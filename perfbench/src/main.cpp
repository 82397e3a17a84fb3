// wb_perfbench: the end-to-end benchmark of the repository's two user
// paths, figure regeneration and live capture serving (README.md).
//
//   wb_perfbench --workload <figure_sweep|decode_corpus|serve_live>
//                --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// Prints informational lines, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics", "tag"}; perfbench/run.py
// checks the metric names and units against BENCHMARK.json and re-emits
// the object without the tag.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "bench.h"

namespace pb {

std::uint64_t allocs_now() { return wb_bench::alloc_count(); }

}  // namespace pb

namespace {

using Metric = std::pair<const char*, const char*>;  // name, unit

/// The metrics of a --trace 0 run, with units (must match BENCHMARK.json;
/// run.py enforces it).
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ns_per_packet", "ns"},
};

/// The metrics of a --trace 1 run. A layer a workload never calls reads 0.
const std::vector<Metric> kPerLayer = {
    {"wifi.traffic.ns_per_packet", "ns"},
    {"phy.channel.ns_per_packet", "ns"},
    {"wifi.nic.ns_per_packet", "ns"},
    {"core.sim.self_ns_per_packet", "ns"},
    {"reader.condition.ns_per_packet", "ns"},
    {"reader.decode.ns_per_packet", "ns"},
    {"reader.coded.ns_per_packet", "ns"},
    {"reader.streaming.ns_per_record", "ns"},
    {"reader.streaming.push_ns_p999", "ns"},
    {"serve.submit.ns_per_record", "ns"},
    {"serve.submit.ns_p50", "ns"},
    {"serve.submit.ns_p99", "ns"},
    {"serve.poll.ns_per_record", "ns"},
    {"serve.poll.ns_p99", "ns"},
    {"serve.drain.ns_per_record", "ns"},
    {"serve.record_latency_p50_us", "us"},
    {"serve.record_latency_p99_us", "us"},
    {"serve.ring.depth_peak", "count"},
    {"serve.blocked_total", "count"},
    {"core.packets_total", "count"},
    {"reader.decode.found_frac", "ratio"},
    {"serve.frames_emitted_frac", "ratio"},
    {"reader.allocs_per_packet", "allocs/packet"},
    {"serve.allocs_per_record", "allocs/record"},
    {"bench.generator_late_p99_us", "us"},
    {"bench.offered_records_per_s", "1/s"},
    {"bench.untraced_ns_per_packet", "ns"},
    {"bench.traced_ns_per_packet", "ns"},
    {"bench.trace_overhead_ratio", "ratio"},
};

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

/// Machine and build tag: results are only comparable between runs whose
/// tags match, and never between an optimised and an unoptimised or
/// sanitized build.
std::string tag_json(const pb::Options& opt) {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(NDEBUG)
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const bool comparable =
      optimized && ndebug && std::strcmp(sanitizer(), "none") == 0;
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\":%u,\"compiler\":\"gcc-compatible %s\","
                "\"build_type\":\"%s\",\"cxx_flags\":\"%s\","
                "\"optimized\":%s,\"ndebug\":%s,\"sanitizer\":\"%s\","
                "\"release_comparable\":%s,\"workload\":\"%s\","
                "\"seed\":%llu,\"seconds\":%g,\"trace\":%d}",
                std::thread::hardware_concurrency(), __VERSION__,
                WB_PERFBENCH_BUILD_TYPE, WB_PERFBENCH_CXX_FLAGS,
                optimized ? "true" : "false", ndebug ? "true" : "false",
                sanitizer(), comparable ? "true" : "false",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "wb_perfbench: %s\nusage: wb_perfbench --workload "
               "<figure_sweep|decode_corpus|serve_live> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed must be a whole number");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--spans") {
      opt.spans_path = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }

  pb::Result r;
  if (opt.workload == "figure_sweep") {
    r = pb::run_figure_sweep(opt);
  } else if (opt.workload == "decode_corpus") {
    r = pb::run_decode_corpus(opt);
  } else if (opt.workload == "serve_live") {
    r = pb::run_serve_live(opt);
  } else {
    usage("unknown workload");
  }

  for (const auto& line : r.info) std::printf("%s\n", line.c_str());
  std::printf("digest: %s\n", r.digest.c_str());

  std::map<std::string, double> got(r.metrics.begin(), r.metrics.end());
  std::string metrics;
  for (const auto& [name, unit] : opt.trace ? kPerLayer : kEndToEnd) {
    const auto it = got.find(name);
    if (it == got.end() && !opt.trace) {
      std::fprintf(stderr, "wb_perfbench: %s was not measured\n", name);
      return 1;
    }
    const double value = it == got.end() ? 0.0 : it->second;
    if (it != got.end()) got.erase(it);
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", name, value, unit);
    metrics += buf;
  }
  if (!got.empty()) {
    std::fprintf(stderr, "wb_perfbench: metric %s is not declared\n",
                 got.begin()->first.c_str());
    return 1;
  }
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s},\"tag\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str(),
              tag_json(opt).c_str());
  return 0;
}
