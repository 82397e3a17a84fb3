// Command-line experiment runner: poke at any operating point of the
// system without writing code.
//
//   wb_experiment_cli uplink   [--distance M] [--pkts-per-bit N]
//                              [--helper-pps N] [--rssi] [--runs N]
//                              [--seed N]
//   wb_experiment_cli coded    [--distance M] [--length L] [--runs N]
//   wb_experiment_cli downlink [--distance M] [--slot-us N] [--bits N]
//   wb_experiment_cli trace    [--distance M] [--packets N] --out FILE
//                              | --in FILE
//   wb_experiment_cli query    [--distance M] [--helper-pps N]
//                              [--queries N] [--ack] [--seed N]
//   wb_experiment_cli sweep    [--distances-cm A,B,...]
//                              [--pkts-per-bit A,B,...] [--helper-pps N]
//                              [--runs N] [--seed N] [--rssi]
//                              [--threads N] [--json-out FILE]
//   wb_experiment_cli serve    [--in FILE] [--sessions N] [--ring N]
//                              [--policy block|drop-oldest|drop-newest]
//                              [--threads N] [--packets N] [--distance M]
//                              [--stagger-us N] [--seed N]
//
// `trace` writes a capture CSV (an alternating-bit tag) that external
// tools — or `read_capture_csv` — can consume; `trace --in` reads one
// back (strict parse: malformed cells are rejected with line:column). `query` drives full
// request-response round trips through the discrete-event scheduler.
// `sweep` expands a distance × packets-per-bit grid and runs it on
// wb::runner worker threads (default: hardware concurrency), emitting one
// obs::RunReport for the whole grid — rows in grid order, per-task
// metrics merged in task order, bit-identical output at any --threads.
// `serve` replays a capture (recorded via `trace --out`, or synthetic)
// as N staggered concurrent sessions through the wb::serve
// CaptureService and prints per-session decodes plus the service's
// property snapshot; with --forensics-out the merged serve forensics
// (ingest ledger + per-session decode taxonomy) lands in the JSONL.
//
// Observability (any mode):
//   --metrics-out FILE   write a JSON run report with every wb::obs metric
//   --trace-out FILE     write Chrome trace_event JSON (open in
//                        chrome://tracing or https://ui.perfetto.dev)
//   --forensics-out FILE write decode-forensics JSONL (drop taxonomy
//                        counts + flight-recorder events) plus exemplar
//                        capture CSV sidecars (`FILE.<stage>_<reason>.N.csv`,
//                        replayable via `trace --in`); also arms a
//                        contract-failure dump to FILE.crash.jsonl
//   --slo RULE           declarative SLO rule (repeatable), e.g.
//                        `ber=core.system.uplink_bit_errors_total/`
//                        `core.system.uplink_bits_delivered_total<=0.01`;
//                        any breach after the run exits 4
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/downlink_sim.h"
#include "core/experiments.h"
#include "core/frame.h"
#include "core/rate_control.h"
#include "core/system.h"
#include "obs/flight_recorder.h"
#include "obs/forensics.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "reader/downlink_encoder.h"
#include "runner/sweep.h"
#include "serve/capture_service.h"
#include "sim/event_queue.h"
#include "tag/modulator.h"
#include "util/args.h"
#include "util/stats.h"
#include "wifi/packet.h"
#include "wifi/replay.h"
#include "wifi/trace_io.h"

namespace {

using namespace wb;

/// Why a tag-reader distance cannot run, or nullptr; every mode but query
/// (whose core::validate requires a positive one) checks its --distance
/// (sweep: --distances-cm) here. The simulated helper sits 3 m past the
/// tag, so a negative distance moves it behind the reader, and at -3 m
/// onto it, where the channel's contracts abort.
const char* distance_error(double distance_m) {
  if (!(distance_m >= 0.0)) {
    return "the tag-reader distance must be non-negative";
  }
  return nullptr;
}

/// Why an uplink operating point cannot run, or nullptr. The decoder's
/// contracts abort on a bit duration under 1 us, so the flags that set it
/// are checked here and rejected as usage errors; the upper bound keeps
/// the bit (and the frame) well inside TimeUs's int64 range.
const char* uplink_params_error(const core::UplinkExperimentParams& p) {
  if (const char* err = distance_error(p.tag_reader_distance_m.value())) {
    return err;
  }
  if (!(p.packets_per_bit > 0.0)) return "--pkts-per-bit must be positive";
  if (!(p.helper_pps > 0.0)) return "--helper-pps must be positive";
  const double bit_us = 1e6 * p.packets_per_bit / p.helper_pps;
  if (!(bit_us >= 1.0 && bit_us <= 1e12)) {
    return "--pkts-per-bit / --helper-pps must give a bit of 1 us to 1e12 us";
  }
  return nullptr;
}

int run_uplink(const util::Args& args) {
  core::UplinkExperimentParams p;
  p.tag_reader_distance_m = Meters{args.num("--distance", 0.3)};
  p.packets_per_bit = args.num("--pkts-per-bit", 30.0);
  p.helper_pps = args.num("--helper-pps", 3'000.0);
  p.runs = args.size("--runs", 10);
  p.seed = args.u64("--seed", 1);
  if (args.flag("--rssi")) {
    p.source = reader::MeasurementSource::kRssi;
  }
  if (const char* err = uplink_params_error(p)) {
    std::fprintf(stderr, "uplink: %s\n", err);
    return 2;
  }
  const auto m = core::measure_uplink_ber(p);
  std::printf("uplink %s @ %.0f cm, %.0f pkt/bit, helper %.0f pkt/s\n",
              p.source == reader::MeasurementSource::kRssi ? "RSSI" : "CSI",
              p.tag_reader_distance_m.value() * 100, p.packets_per_bit,
              p.helper_pps);
  std::printf("  bit rate   : %.0f bps\n",
              p.helper_pps / p.packets_per_bit);
  std::printf("  BER        : %.3e (%zu errors / %zu bits)\n", m.ber,
              m.errors, m.bits);
  std::printf("  sync fails : %zu / %zu runs\n", m.failed_syncs, p.runs);
  return 0;
}

/// Why a coded operating point cannot run, or nullptr: the orthogonal
/// code pair needs two chips, and the decoder's contracts abort on a chip
/// under 1 us.
const char* coded_params_error(const core::CodedExperimentParams& p) {
  if (const char* err = distance_error(p.tag_reader_distance_m.value())) {
    return err;
  }
  if (p.code_length < 2) return "--length must be at least 2 chips";
  if (!(p.packets_per_chip > 0.0)) return "--pkts-per-chip must be positive";
  const double chip_us = 1e6 * p.packets_per_chip / p.helper_pps;
  if (!(chip_us >= 1.0 && chip_us <= 1e12)) {
    return "--pkts-per-chip must give a chip of 1 us to 1e12 us";
  }
  return nullptr;
}

int run_coded(const util::Args& args) {
  core::CodedExperimentParams p;
  p.tag_reader_distance_m = Meters{args.num("--distance", 1.6)};
  p.code_length = args.size("--length", 20);
  p.runs = args.size("--runs", 5);
  p.packets_per_chip = args.num("--pkts-per-chip", 2.0);
  p.seed = args.u64("--seed", 1);
  if (const char* err = coded_params_error(p)) {
    std::fprintf(stderr, "coded: %s\n", err);
    return 2;
  }
  const auto m = core::measure_coded_uplink_ber(p);
  std::printf("coded uplink @ %.0f cm, L=%zu, %.0f pkt/chip\n",
              p.tag_reader_distance_m.value() * 100, p.code_length,
              p.packets_per_chip);
  std::printf("  BER: %.3e (%zu errors / %zu bits)\n", m.ber, m.errors,
              m.bits);
  return 0;
}

/// Why a downlink operating point cannot run, or nullptr: path loss
/// aborts on a negative distance, and the encoder's contracts on a slot
/// shorter than the shortest 802.11 packet or longer than one NAV
/// reservation holds. The slot is checked before its conversion to ticks.
const char* downlink_params_error(double distance_m, double slot_us) {
  if (const char* err = distance_error(distance_m)) return err;
  const reader::DownlinkEncoderConfig enc;
  const TimeUs longest = enc.max_nav_us - enc.cts_duration_us - enc.sifs_us;
  if (!(slot_us >= static_cast<double>(wifi::kMinPacketUs.ticks()) &&
        slot_us <= static_cast<double>(longest.ticks()))) {
    return "--slot-us must be at least the shortest 802.11 packet (40 us) "
           "and fit in one NAV reservation";
  }
  return nullptr;
}

int run_downlink(const util::Args& args) {
  core::DownlinkExperimentParams p;
  const double distance_m = args.num("--distance", 1.5);
  const double slot_us = args.num("--slot-us", 50);
  if (const char* err = downlink_params_error(distance_m, slot_us)) {
    std::fprintf(stderr, "downlink: %s\n", err);
    return 2;
  }
  p.reader_tag_distance_m = Meters{distance_m};
  p.slot_us = TimeUs::from_us(slot_us);
  p.total_bits = args.size("--bits", 20'000);
  p.max_burst_bits = 500;
  p.seed = args.u64("--seed", 33);
  const auto m = core::measure_downlink_ber(p);
  std::printf("downlink @ %.0f cm, %lld us slots (%.0f kbps)\n",
              p.reader_tag_distance_m.value() * 100,
              static_cast<long long>(p.slot_us.ticks()),
              1e3 / static_cast<double>(p.slot_us.ticks()));
  std::printf("  slot BER: %.3e (%zu errors / %zu bits)\n", m.ber,
              m.errors, m.bits);
  return 0;
}

int run_trace(const util::Args& args) {
  const std::string in = args.str("--in");
  if (!in.empty()) {
    // Inspect a previously written capture: record count, time span, CSI
    // coverage, and the helper packet rate the rate controller would see.
    // A malformed cell is reported with its line and column, not decoded
    // partially.
    wifi::CaptureTrace trace;
    try {
      trace = wifi::load_capture_csv(in);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::printf("read %zu capture records from %s\n", trace.size(),
                in.c_str());
    if (!trace.empty()) {
      std::size_t with_csi = 0;
      for (const auto& rec : trace) with_csi += rec.has_csi ? 1 : 0;
      const auto span_us =
          trace.back().timestamp_us - trace.front().timestamp_us;
      std::printf("  span     : %.3f s\n",
                  static_cast<double>(span_us.ticks()) / 1e6);
      std::printf("  CSI      : %zu/%zu records\n", with_csi, trace.size());
      std::printf("  rate     : %.0f pkt/s over the last second\n",
                  core::RateControl::measured_packet_rate(trace, TimeUs{1'000'000}));
    }
    return 0;
  }
  const double distance = args.num("--distance", 0.05);
  const auto packets = args.size("--packets", 3'000);
  const std::string out = args.str("--out");
  if (out.empty()) {
    std::fprintf(stderr, "trace mode requires --out or --in FILE\n");
    return 2;
  }
  if (const char* err = distance_error(distance)) {
    std::fprintf(stderr, "trace: %s\n", err);
    return 2;
  }
  core::UplinkSimConfig cfg;
  cfg.channel.tag_pos = {distance, 0.0};
  cfg.channel.helper_pos = {distance + 3.0, 0.0};
  cfg.seed = args.u64("--seed", 1);
  const double pps = 3'000.0;
  const TimeUs until =
      TimeUs{static_cast<std::int64_t>(
          static_cast<double>(packets) / pps * 1e6)} +
      TimeUs{1};
  sim::RngStream rng(cfg.seed);
  auto traffic_rng = rng.fork("t");
  const auto tl = wifi::make_cbr_timeline(pps, until, wifi::TrafficParams{},
                                          traffic_rng);
  BitVec alternating;
  for (std::size_t i = 0;
       TimeUs{10'000} * static_cast<std::int64_t>(i) < until;
       ++i) {
    alternating.push_back(static_cast<std::uint8_t>(i % 2));
  }
  tag::Modulator mod(alternating, TimeUs{10'000}, TimeUs{});
  core::UplinkSim sim(cfg);
  const auto trace = sim.run(tl, mod);
  const auto n = wifi::save_capture_csv(out, trace);
  std::printf("wrote %zu capture records to %s\n", n, out.c_str());
  return 0;
}

int run_query(const util::Args& args) {
  core::SystemConfig cfg;
  cfg.tag_reader_distance_m = Meters{args.num("--distance", 0.3)};
  cfg.helper_pps = args.num("--helper-pps", 3'000.0);
  cfg.ack_enabled = args.flag("--ack");
  cfg.seed = args.u64("--seed", 1);
  const auto queries = args.size("--queries", 3);
  if (const char* err = core::validate(cfg)) {
    std::fprintf(stderr, "query: %s\n", err);
    return 2;
  }
  core::WiFiBackscatterSystem system(cfg);

  // Drive the exchanges through the discrete-event scheduler: one event
  // per query on a fixed virtual cadence, each with a watchdog the
  // completion path cancels (so cancelled events show in sim.* metrics).
  sim::EventQueue queue;
  constexpr TimeUs kQueryPeriodUs{5'000'000};
  std::size_t succeeded = 0;
  std::size_t attempts = 0;
  for (std::size_t i = 0; i < queries; ++i) {
    queue.schedule_at(kQueryPeriodUs * static_cast<std::int64_t>(i),
                      [&, i] {
      const std::uint64_t watchdog =
          queue.schedule_in(kQueryPeriodUs - TimeUs{1}, [i] {
            std::printf("query %zu: watchdog expired\n", i);
          });
      core::Query q;
      q.tag_address = 7;
      q.command = core::kCmdReadSensor;
      const BitVec reading = random_bits(24, cfg.seed + i);
      const auto outcome = system.query(q, reading);
      attempts += outcome.downlink.attempts;
      if (outcome.success()) ++succeeded;
      std::printf("query %zu: %s after %zu attempt(s), %zu/%zu bits ok\n",
                  i, outcome.success() ? "ok" : "FAILED",
                  outcome.downlink.attempts,
                  outcome.uplink.bits_total - outcome.uplink.bit_errors,
                  outcome.uplink.bits_total);
      queue.cancel(watchdog);
    });
  }
  queue.run_all();
  std::printf("query summary: %zu/%zu round trips ok, %zu attempts, "
              "%lld us virtual\n",
              succeeded, queries, attempts,
              static_cast<long long>(queue.now().ticks()));
  return succeeded == queries ? 0 : 1;
}

int run_sweep(const util::Args& args) {
  core::UplinkGridSpec spec;
  spec.base.helper_pps = args.num("--helper-pps", 3'000.0);
  spec.base.runs = args.size("--runs", 4);
  spec.base.seed = args.u64("--seed", 1);
  if (args.flag("--rssi")) {
    spec.sources = {reader::MeasurementSource::kRssi};
  }
  for (double cm : args.num_list("--distances-cm", {5, 15, 30, 50})) {
    spec.distances_m.push_back(cm / 100.0);
  }
  spec.packets_per_bit = args.num_list("--pkts-per-bit", {30, 6});
  const auto grid = core::expand_uplink_grid(spec);
  if (grid.empty()) {
    std::fprintf(stderr, "sweep grid is empty\n");
    return 2;
  }
  for (const auto& pt : grid) {
    if (const char* err = uplink_params_error(pt.params)) {
      std::fprintf(stderr, "sweep: %s\n", err);
      return 2;
    }
  }

  runner::SweepConfig cfg;
  cfg.threads = static_cast<unsigned>(args.u64("--threads", 0));
  cfg.collect_metrics = true;
  // Collect per-task forensics whenever a sink is installed for the run
  // (--forensics-out); the per-task sinks merge in task-index order, so
  // the combined taxonomy is thread-count independent.
  cfg.collect_forensics = obs::forensics() != nullptr;
  runner::SweepRunner sweep(cfg);
  const auto res =
      sweep.run(grid.size(), [&grid](const runner::TaskContext& ctx) {
        return core::measure_uplink_ber(grid[ctx.task_index].params);
      });

  // One RunReport for the whole grid: rows in grid (task-index) order,
  // the merged per-task metrics attached. Nothing scheduling-dependent
  // goes into the report, so the JSON is byte-identical at any --threads.
  obs::RunReport report;
  report.set_meta("tool", "wb_experiment_cli");
  report.set_meta("mode", "sweep");
  report.set_meta("base_seed", static_cast<double>(spec.base.seed));
  report.set_meta("rssi", args.flag("--rssi"));
  report.set_meta("grid_points", static_cast<double>(grid.size()));

  std::printf("%-10s %-14s %-10s %-12s %s\n", "task", "distance(cm)",
              "pkt/bit", "BER", "errors/bits");
  for (const auto& pt : grid) {
    const auto& m = res.results[pt.index];
    std::printf("%-10zu %-14.1f %-10.0f %-12.3e %zu/%zu\n", pt.index,
                pt.distance_m.value() * 100.0, pt.packets_per_bit, m.ber,
                m.errors,
                m.bits);
    report.add_row("grid_point")
        .set("task", static_cast<double>(pt.index))
        .set("source",
             pt.source == reader::MeasurementSource::kRssi ? "rssi" : "csi")
        .set("distance_cm", pt.distance_m.value() * 100.0)
        .set("pkts_per_bit", pt.packets_per_bit)
        .set("ber", m.ber)
        .set("ber_raw", m.ber_raw)
        .set("errors", static_cast<double>(m.errors))
        .set("bits", static_cast<double>(m.bits))
        .set("failed_syncs", static_cast<double>(m.failed_syncs));
  }
  if (res.metrics != nullptr) {
    report.attach_metrics(*res.metrics);
    // Fold the sweep's merged metrics into a --metrics-out registry, if
    // one is installed on this thread, so the generic artifact below
    // covers sweep mode too.
    if (auto* m = obs::metrics()) m->merge_from(*res.metrics);
  }
  if (res.forensics != nullptr) {
    // Same for the merged drop taxonomy and the --forensics-out sink.
    if (auto* fx = obs::forensics()) fx->merge_from(*res.forensics);
  }

  const std::string json_out = args.str("--json-out");
  if (!json_out.empty()) {
    if (!report.write_json(json_out)) {
      std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
      return 2;
    }
    std::printf("sweep report: %s\n", json_out.c_str());
  }
  return 0;
}

bool parse_policy(const std::string& s, serve::BackpressurePolicy& out) {
  if (s.empty() || s == "block") {
    out = serve::BackpressurePolicy::kBlockProducer;
  } else if (s == "drop-oldest") {
    out = serve::BackpressurePolicy::kDropOldest;
  } else if (s == "drop-newest") {
    out = serve::BackpressurePolicy::kDropNewest;
  } else {
    return false;
  }
  return true;
}

int run_serve(const util::Args& args) {
  serve::ServeConfig cfg;
  const std::size_t sessions = args.size("--sessions", 3);
  cfg.max_sessions = sessions;
  cfg.ring_capacity = args.size("--ring", 256);
  cfg.dispatch_threads = static_cast<unsigned>(args.u64("--threads", 1));
  if (!parse_policy(args.str("--policy"), cfg.policy)) {
    std::fprintf(stderr,
                 "unknown --policy '%s' (block|drop-oldest|drop-newest)\n",
                 args.str("--policy").c_str());
    return 2;
  }
  const std::size_t payload_bits = args.size("--payload-bits", 24);
  const TimeUs bit_us = TimeUs::from_us(args.num("--bit-us", 5'000));
  cfg.decoder.decoder.payload_bits = payload_bits;
  cfg.decoder.decoder.bit_duration_us = bit_us;
  if (const auto err = serve::validate(cfg); !err.ok()) {
    std::fprintf(stderr, "serve: %s\n", err.message().c_str());
    return 2;
  }
  const TimeUs stagger = TimeUs::from_us(args.num("--stagger-us", 1'733));
  if (stagger < TimeUs{}) {
    std::fprintf(stderr, "serve: --stagger-us must be non-negative\n");
    return 2;
  }
  const std::uint64_t seed = args.u64("--seed", 1);

  // Source capture: a recorded CSV, or a synthetic frame (the streaming
  // decoder's preamble + payload at 0.7 s) over helper CBR traffic.
  wifi::CaptureTrace trace;
  const std::string in = args.str("--in");
  if (!in.empty()) {
    try {
      trace = wifi::load_capture_csv(in);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  } else {
    const auto packets = args.size("--packets", 3'600);
    const double distance = args.num("--distance", 0.08);
    if (const char* err = distance_error(distance)) {
      std::fprintf(stderr, "serve: %s\n", err);
      return 2;
    }
    core::UplinkSimConfig sim_cfg;
    sim_cfg.channel.tag_pos = {distance, 0.0};
    sim_cfg.channel.helper_pos = {distance + 3.0, 0.0};
    sim_cfg.seed = seed;
    const double pps = 3'000.0;
    const TimeUs until = TimeUs{static_cast<std::int64_t>(
        static_cast<double>(packets) / pps * 1e6)};
    sim::RngStream rng(seed);
    auto traffic_rng = rng.fork("t");
    const auto tl = wifi::make_cbr_timeline(pps, until, wifi::TrafficParams{},
                                            traffic_rng);
    BitVec frame = barker13();
    const BitVec payload = random_bits(payload_bits, seed);
    frame.insert(frame.end(), payload.begin(), payload.end());
    tag::Modulator mod(frame, bit_us, TimeUs{700'000});
    core::UplinkSim sim(sim_cfg);
    trace = sim.run(tl, mod);
  }
  if (trace.empty()) {
    std::fprintf(stderr, "serve: capture is empty\n");
    return 1;
  }

  serve::CaptureService svc(cfg);
  for (std::uint32_t id = 0; id < sessions; ++id) {
    const auto err = svc.attach(id);
    if (!err.ok()) {
      std::fprintf(stderr, "attach %u: %s (%s)\n", id,
                   serve::to_string(err.code()), err.message().c_str());
      return 1;
    }
  }

  // Replay the capture as `sessions` concurrent time-staggered streams
  // merged in global timestamp order — what a live multi-NIC feed looks
  // like to the service.
  wifi::MultiSessionFeed feed(wifi::fan_out(trace, sessions, stagger));
  std::uint32_t session = 0;
  wifi::CaptureRecord rec{};
  while (feed.next(session, rec)) {
    const auto err = svc.submit(session, rec);
    if (!err.ok()) {
      std::fprintf(stderr, "submit (session %u): %s (%s)\n", session,
                   serve::to_string(err.code()), err.message().c_str());
      return 1;
    }
  }
  const std::size_t drained = svc.drain_all();

  std::printf("serve: %zu sessions x %zu records, ring %zu (%s), "
              "threads %u\n",
              sessions, trace.size(), cfg.ring_capacity,
              serve::to_string(cfg.policy), cfg.dispatch_threads);
  for (std::uint32_t id = 0; id < sessions; ++id) {
    const serve::Session* s = svc.find(id);
    if (s == nullptr) continue;
    std::printf("  session %-3u state=%-8s records=%llu frames=%llu\n", id,
                serve::to_string(s->state()),
                static_cast<unsigned long long>(s->records_dispatched()),
                static_cast<unsigned long long>(s->frames_total()));
  }
  std::printf("  drained %zu frame(s) at shutdown\n", drained);
  std::printf("properties:\n");
  for (const auto& kv : svc.properties()) {
    std::printf("  %-36s %s\n", kv.first.c_str(), kv.second.c_str());
  }

  svc.publish_metrics();
  // Fold the service's forensics (ingest ledger + per-session decode
  // taxonomy) into the --forensics-out sink, if one is installed.
  if (auto* fx = obs::forensics()) svc.merge_forensics_into(*fx);
  const auto err = svc.stop();
  if (!err.ok()) {
    std::fprintf(stderr, "stop: %s\n", serve::to_string(err.code()));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(
        stderr,
        "usage: %s {uplink|coded|downlink|trace|query|sweep|serve} "
        "[options]\n",
        argv[0]);
    return 2;
  }
  const util::Args args(argc, argv);
  const std::string mode = argv[1];

  // Observability: install a registry/tracer for the whole run when the
  // corresponding output file is requested.
  const std::string metrics_out = args.str("--metrics-out");
  const std::string trace_out = args.str("--trace-out");
  const std::string forensics_out = args.str("--forensics-out");
  const std::vector<std::string> slo_specs = args.str_list("--slo");
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ForensicsSink forensics;
  obs::FlightRecorder recorder;
  std::unique_ptr<obs::ScopedMetrics> metrics_guard;
  std::unique_ptr<obs::ScopedTracer> tracer_guard;
  std::unique_ptr<obs::ScopedForensics> forensics_guard;
  std::unique_ptr<obs::ScopedFlightRecorder> recorder_guard;
  std::unique_ptr<obs::ScopedContractDump> dump_guard;
  // SLO rules read metrics, so evaluating them needs a registry even when
  // no --metrics-out artifact was asked for.
  if (!metrics_out.empty() || !slo_specs.empty()) {
    metrics_guard = std::make_unique<obs::ScopedMetrics>(registry);
  }
  if (!trace_out.empty()) {
    tracer_guard = std::make_unique<obs::ScopedTracer>(tracer);
  }
  if (!forensics_out.empty()) {
    forensics_guard = std::make_unique<obs::ScopedForensics>(forensics);
    recorder_guard = std::make_unique<obs::ScopedFlightRecorder>(&recorder);
    dump_guard = std::make_unique<obs::ScopedContractDump>(
        forensics_out + ".crash.jsonl");
  }
  obs::HealthMonitor health;
  for (const auto& spec : slo_specs) {
    if (!health.add_rule(spec)) {
      std::fprintf(stderr, "malformed --slo rule '%s'\n", spec.c_str());
      return 2;
    }
  }

  int rc = 2;
  if (mode == "uplink") rc = run_uplink(args);
  else if (mode == "coded") rc = run_coded(args);
  else if (mode == "downlink") rc = run_downlink(args);
  else if (mode == "trace") rc = run_trace(args);
  else if (mode == "query") rc = run_query(args);
  else if (mode == "sweep") rc = run_sweep(args);
  else if (mode == "serve") rc = run_serve(args);
  else std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());

  if (!metrics_out.empty()) {
    obs::RunReport report;
    report.set_meta("tool", "wb_experiment_cli");
    report.set_meta("mode", mode);
    report.set_meta("exit_code", static_cast<double>(rc));
    report.attach_metrics(registry);
    if (!report.write_json(metrics_out)) {
      std::fprintf(stderr, "failed to write %s\n", metrics_out.c_str());
      return 2;
    }
    std::printf("metrics report: %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    if (!tracer.write_json(trace_out)) {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
      return 2;
    }
    std::printf("trace (%zu events): %s\n", tracer.num_events(),
                trace_out.c_str());
  }
  // Evaluate SLOs before writing forensics so breach events appear in
  // the JSONL artifact.
  if (health.num_rules() > 0) {
    const auto statuses = health.evaluate(
        registry, TimeUs{0}, recorder_guard != nullptr ? &recorder : nullptr);
    for (const auto& st : statuses) {
      std::printf("slo %-48s %s value=%.6g%s\n", st.name.c_str(),
                  st.breached ? "BREACH" : "ok", st.value,
                  st.has_value ? "" : " (no such instrument)");
    }
    if (health.breached_count() > 0 && rc == 0) rc = 4;
  }
  if (!forensics_out.empty()) {
    if (!forensics.write_jsonl(forensics_out, &recorder)) {
      std::fprintf(stderr, "failed to write %s\n", forensics_out.c_str());
      return 2;
    }
    const std::size_t sidecars = forensics.write_exemplars(forensics_out);
    std::printf("forensics (%llu drops, %zu exemplar files): %s\n",
                static_cast<unsigned long long>(forensics.total_drops()),
                sidecars, forensics_out.c_str());
  }
  return rc;
}
