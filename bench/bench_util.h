// Shared helpers for the figure-reproduction benches: consistent table
// printing so bench output reads like the paper's figures, flag parsing
// (one util::Args scanner instead of per-binary strcmp loops), and an
// optional machine-readable JSON sink (--json-out, backed by
// obs::RunReport) alongside the human table.
//
// Flags every bench understands:
//   --quick          shrink run counts so the whole suite stays fast
//   --json-out FILE  write the obs::RunReport twin of the printed table
//                    (Fig 10, 12, 17 and 20)
// and the benches that run their points through run_points (Fig 5, 10,
// 11, 12, 14, 17, 18, 20 and the uplink ablation):
//   --threads N      sweep worker threads (default: hardware concurrency;
//                    1 = serial). Output is bit-identical at any N.
//   --forensics-out FILE  write the merged decode-forensics JSONL —
//                    per-task sinks merged in task-index order, so the
//                    file is bit-identical at any --threads.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/report.h"
#include "runner/sweep.h"
#include "util/args.h"

namespace wb::bench {

/// True if argv contains --quick (benches then shrink run counts so the
/// whole suite stays fast; full fidelity is the default).
inline bool quick_mode(int argc, char** argv) {
  return util::Args(argc, argv).flag("--quick");
}

/// Value of `--json-out FILE`, or "" when not given.
inline std::string json_out_path(int argc, char** argv) {
  return util::Args(argc, argv).str("--json-out");
}

/// The sweep skeleton of the figure benches: runs fn(i) for every point
/// i in [0, n) on runner::SweepRunner with --threads workers and returns
/// the results in index order. With --forensics-out it writes the
/// task-order merge of the points' decode forensics (JSONL plus exemplar
/// CSVs), exiting 1 if it cannot. `fn` runs on several threads at once
/// and returns a default-constructible value that is not bool.
template <typename Fn>
auto run_points(int argc, char** argv, std::size_t n, Fn&& fn) {
  const util::Args args(argc, argv);
  const std::string forensics_out = args.str("--forensics-out");
  runner::SweepConfig cfg;
  cfg.threads = static_cast<unsigned>(args.u64("--threads", 0));
  cfg.collect_forensics = !forensics_out.empty();
  auto res = runner::SweepRunner(cfg).run(
      n, [&fn](const runner::TaskContext& ctx) { return fn(ctx.task_index); });
  if (res.forensics != nullptr) {
    if (!res.forensics->write_jsonl(forensics_out)) {
      std::fprintf(stderr, "failed to write %s\n", forensics_out.c_str());
      std::exit(1);
    }
    res.forensics->write_exemplars(forensics_out);
    std::printf("forensics (%llu drops): %s\n",
                static_cast<unsigned long long>(res.forensics->total_drops()),
                forensics_out.c_str());
  }
  return std::move(res.results);
}

/// Print a figure header in a uniform style.
inline void print_header(const char* fig, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", fig, title);
  std::printf("================================================================\n");
}

inline void print_row_divider() {
  std::printf("----------------------------------------------------------------\n");
}

/// Machine-readable twin of the printed table: benches add one named row
/// per table line, and finish() writes an obs::RunReport JSON file when
/// --json-out was given (a no-op otherwise, so the human table stays the
/// default interface).
///
/// Deliberately NOT in the report: the thread count. Sweep JSON must be
/// byte-identical across --threads values (that is the determinism
/// contract ctest enforces), so nothing scheduling-dependent may appear
/// in it.
class BenchReport {
 public:
  BenchReport(int argc, char** argv, const char* fig, const char* title)
      : path_(json_out_path(argc, argv)) {
    report_.set_meta("figure", fig);
    report_.set_meta("title", title);
    report_.set_meta("quick", quick_mode(argc, argv));
  }

  obs::RunReport::Row& add_row(std::string_view name) {
    return report_.add_row(name);
  }

  obs::RunReport& report() { return report_; }

  /// Writes the JSON report (attaching a metrics snapshot if a registry
  /// is installed). Returns false only on an actual write failure.
  bool finish() {
    if (path_.empty()) return true;
    if (const auto* m = obs::metrics()) report_.attach_metrics(*m);
    if (!report_.write_json(path_)) {
      std::fprintf(stderr, "failed to write %s\n", path_.c_str());
      return false;
    }
    std::printf("json report: %s\n", path_.c_str());
    return true;
  }

 private:
  obs::RunReport report_;
  std::string path_;
};

}  // namespace wb::bench
