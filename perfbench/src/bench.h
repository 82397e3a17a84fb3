// Shared pieces of the end-to-end benchmark: options, the result every
// workload returns, exact quantiles, and the span tracer the traced runs
// wrap around calls into each layer of the system under test.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< where the traced run writes its spans
};

/// What one workload run reports. `metrics` holds (name, value); units are
/// fixed per name in main.cpp and checked against BENCHMARK.json.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> info;  ///< human-readable lines printed first
  std::string digest;             ///< hash of the outputs, for information

  void set(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void note(std::string line) { info.push_back(std::move(line)); }
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// Process-wide operator-new count (bench/alloc_count.h, defined once in
/// main.cpp); subtract two readings to count the allocations between them.
std::uint64_t allocs_now();

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// Quantile q in [0, 1] with linear interpolation between order
/// statistics (Python's statistics.quantiles "inclusive" method). Takes a
/// copy: callers keep their samples in arrival order.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// A unit of work (a sweep frame, a corpus trace, a serve segment or
/// record) runs once per pass; the benchmark keeps each unit's fastest
/// time over the passes. On a shared machine interference only ever adds
/// time, and its episodes last seconds, so the per-unit minimum is far
/// steadier from run to run than any per-pass statistic.
inline constexpr double kNotRun = 1e300;
inline void best_of(double& best, double sample) {
  if (sample < best) best = sample;
}

/// FNV-1a over bytes, folded into `h` (output digests).
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n);
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// Calls `setup` `reps` times and returns the median wall seconds; the
/// state the last call built is what the workload then measures.
template <typename Fn>
double timed_setup(int reps, Fn&& setup) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    setup();
    s.push_back(seconds_since(t0));
  }
  return median(std::move(s));
}

/// Number of setup repetitions whose median is reported as setup_s.
inline constexpr int kSetupReps = 3;

// ------------------------------------------------------------- tracing

/// In-memory span recorder. A span is (name, start, end, parent); spans
/// nest through a stack, so a layer's self time is its duration minus the
/// time its child spans cover. Per-layer totals are always exact; the
/// span list itself is capped so a long run cannot exhaust memory (spans
/// past the cap are counted, not kept). Single-threaded by design.
class Tracer {
 public:
  struct Layer {
    const char* name = nullptr;
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::vector<double> samples_ns;  ///< per-call durations when kept
    bool keep_samples = false;
  };

  explicit Tracer(std::size_t span_capacity = 1u << 17);

  /// Keep every call's duration for `name` (for percentiles); reserve
  /// room for `expected` calls up front.
  void keep_samples(const char* name, std::size_t expected);

  void begin(const char* name);
  void end();

  /// Totals for `name` (a zeroed entry when the layer never ran).
  const Layer& layer(const char* name) const;

  /// Writes one JSON object per kept span, then a summary line; returns
  /// false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

  std::size_t spans_kept() const { return spans_.size(); }
  std::uint64_t spans_dropped() const { return dropped_; }

 private:
  struct Span {
    std::uint32_t name = 0;  ///< index into layers_
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Open {
    std::uint32_t layer = 0;
    std::int32_t span = -1;  ///< index into spans_, -1 when dropped
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };

  std::uint32_t layer_index(const char* name);

  std::vector<Layer> layers_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::int64_t origin_ns_;
};

/// RAII span; a null tracer makes it free, so one code path serves the
/// traced and untraced runs where the benchmark needs both.
class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t) {
    if (t_ != nullptr) t_->begin(name);
  }
  ~Scope() {
    if (t_ != nullptr) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

// ------------------------------------------------------------ workloads

Result run_figure_sweep(const Options& opt);
Result run_decode_corpus(const Options& opt);
Result run_serve_live(const Options& opt);

}  // namespace pb
