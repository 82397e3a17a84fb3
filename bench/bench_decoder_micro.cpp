// Microbenchmarks of the reader-side decoding kernels and the tag-side
// circuit simulation, via google-benchmark. These bound how much capture
// data a software reader can process in real time.
//
// Two modes:
//   (default)        the google-benchmark suite below
//   --json-out FILE  direct instrumented measurement of the decode hot
//                    path, written as an obs::RunReport (BENCH_decoder
//                    .json): ns/packet and allocations/decode for the
//                    workspace path, the allocating wrappers, the scalar
//                    reference reader (tests/reference) and the seed's
//                    memory behaviour on top of it, so the perf trajectory
//                    keeps a fixed baseline. --quick shrinks the iteration
//                    count. scripts/check.sh gates on allocs_per_decode ==
//                    0 for the workspace rows.
#include <chrono>
#include <string>

#include <benchmark/benchmark.h>

#include "alloc_count.h"
#include "capture_fixture.h"

#include "obs/report.h"
#include "phy/ofdm_envelope.h"
#include "reader/conditioning.h"
#include "reader/decode_workspace.h"
#include "reader/slot_sync.h"
#include "reader/uplink_decoder.h"
#include "reference/reference.h"
#include "tag/energy_detector.h"
#include "util/args.h"

namespace {

using namespace wb;
using wb_bench::shared_decoder_config;
using wb_bench::shared_trace;

void BM_Conditioning(benchmark::State& state) {
  const auto& trace = shared_trace();
  for (auto _ : state) {
    auto ct = reader::condition(trace, reader::MeasurementSource::kCsi);
    benchmark::DoNotOptimize(ct);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_Conditioning);

void BM_PreambleCorrelation(benchmark::State& state) {
  // One sync probe at the true frame start: a one-candidate search, every
  // stream correlated with the preamble and ranked.
  const auto ct =
      reader::condition(shared_trace(), reader::MeasurementSource::kCsi);
  const auto cfg = shared_decoder_config();
  const std::vector<double> tmpl = to_bipolar(cfg.preamble);
  const double need =
      reader::kMinPreambleFill * static_cast<double>(tmpl.size());
  reader::DecodeWorkspace ws;
  double score = 0.0;
  for (auto _ : state) {
    reader::sync_search(ct, tmpl, cfg.bit_duration_us, need,
                        cfg.num_good_streams, TimeUs{600'000},
                        TimeUs{600'000}, cfg.bit_duration_us, ws,
                        [&score](TimeUs, double s) { score = s; });
    benchmark::DoNotOptimize(score);
  }
}
BENCHMARK(BM_PreambleCorrelation);

void BM_FrameSync(benchmark::State& state) {
  const auto ct =
      reader::condition(shared_trace(), reader::MeasurementSource::kCsi);
  const reader::UplinkDecoder dec(shared_decoder_config());
  reader::DecodeWorkspace ws;
  TimeUs start{0};
  double score = 0.0;
  obs::DropReason failure{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.find_frame(ct, ws, start, score, failure));
  }
}
BENCHMARK(BM_FrameSync);

void BM_FullDecode(benchmark::State& state) {
  const auto& trace = shared_trace();
  const reader::UplinkDecoder dec(shared_decoder_config());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.decode(trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_FullDecode);

void BM_EnergyDetectorStep(benchmark::State& state) {
  sim::RngStream rng(4);
  tag::EnergyDetector det(tag::EnergyDetectorParams{}, rng.fork("det"));
  auto env = rng.fork("env");
  const Milliwatts p{dbm_to_mw(-25.0)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        det.step(1.0, Milliwatts{phy::draw_ofdm_power_sample(p, env)}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EnergyDetectorStep);

// ---------------------------------------------------------------------
// --json-out mode: direct measurement of the decode hot path.

/// The seed's condition(): AoS per-record collection via push_back with
/// per-call stream_csi index arithmetic, then per stream the reference's
/// centering and normalising stages into freshly allocated vectors, as the
/// seed's allocating dsp wrappers did. Its values are the reference's;
/// only the memory behaviour differs.
reference::StreamTrace condition_seed(const wifi::CaptureTrace& trace,
                                      reader::MeasurementSource source,
                                      TimeUs movavg_window_us) {
  reference::StreamTrace out;
  std::vector<std::vector<double>> raw;
  const std::size_t num_streams =
      (source == reader::MeasurementSource::kCsi) ? wifi::kNumCsiStreams
                                                  : phy::kNumAntennas;
  raw.resize(num_streams);
  for (const auto& rec : trace) {
    if (source == reader::MeasurementSource::kCsi && !rec.has_csi) continue;
    out.timestamps.push_back(rec.timestamp_us);
    for (std::size_t s = 0; s < num_streams; ++s) {
      const double v = (source == reader::MeasurementSource::kCsi)
                           ? wifi::stream_csi(rec, s)
                           : rec.rssi_dbm[s];
      raw[s].push_back(v);
    }
  }
  out.streams.resize(num_streams);
  for (std::size_t s = 0; s < num_streams; ++s) {
    std::vector<double> centered(raw[s].size());
    reference::center(out.timestamps, raw[s], movavg_window_us, centered);
    out.streams[s] = std::vector<double>(centered.size());
    reference::normalize_mad(centered, out.streams[s]);
  }
  return out;
}

struct Sample {
  double ns_per_packet = 0.0;
  double allocs_per_decode = 0.0;
};

/// Times `fn` over `iters` calls (after two warmup calls so workspace
/// capacities are steady-state) and reads the allocation-counter delta.
template <typename F>
Sample measure(F&& fn, std::size_t packets, int iters) {
  fn();
  fn();
  const std::uint64_t a0 = wb_bench::alloc_count();
  // wb-analyze: allow(no-wallclock): wall-clock is the measurand here — this timing harness reports ns/packet, never feeds results
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  // wb-analyze: allow(no-wallclock): wall-clock is the measurand here (end of the timed window)
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t a1 = wb_bench::alloc_count();
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  Sample s;
  s.ns_per_packet =
      ns / (static_cast<double>(iters) * static_cast<double>(packets));
  s.allocs_per_decode =
      static_cast<double>(a1 - a0) / static_cast<double>(iters);
  return s;
}

bool run_json_report(const std::string& path, bool quick) {
  const auto& trace = shared_trace();
  const std::size_t packets = trace.size();
  const int iters = quick ? 5 : 25;
  const auto cfg = shared_decoder_config();
  const reader::UplinkDecoder dec(cfg);

  obs::RunReport report;
  report.set_meta("bench", "decoder_micro");
  report.set_meta("quick", quick);
  report.set_meta("packets", static_cast<double>(packets));
  report.set_meta("iters", static_cast<double>(iters));

  auto add = [&report](const char* name, const Sample& s) {
    report.add_row(name)
        .set("ns_per_packet", s.ns_per_packet)
        .set("allocs_per_decode", s.allocs_per_decode);
    return s;
  };

  // The seed pipeline (see condition_seed above): per-stream vectors,
  // decoded by the reference reader one lone probe per sync candidate, as
  // the seed decoder read them.
  const Sample full_seed = add("full_decode_seed", measure(
      [&] {
        benchmark::DoNotOptimize(reference::uplink_decode(
            cfg, condition_seed(trace, cfg.source, cfg.movavg_window_us)));
      },
      packets, iters));
  add("conditioning_seed", measure(
      [&] {
        benchmark::DoNotOptimize(
            condition_seed(trace, cfg.source, cfg.movavg_window_us));
      },
      packets, iters));

  // Current allocating convenience wrappers (fresh workspace per call).
  add("full_decode_allocating", measure(
      [&] { benchmark::DoNotOptimize(dec.decode(trace)); }, packets, iters));
  add("conditioning_allocating", measure(
      [&] {
        benchmark::DoNotOptimize(reader::condition(trace, cfg.source));
      },
      packets, iters));

  // Steady-state workspace path: one workspace + result, reused.
  reader::DecodeWorkspace ws;
  reader::UplinkDecodeResult result;
  const Sample full_ws = add("full_decode_workspace", measure(
      [&] {
        dec.decode_into(trace, ws, result);
        benchmark::DoNotOptimize(result.found);
      },
      packets, iters));
  reader::DecodeWorkspace cond_ws;
  reader::ConditionedTrace ct_out;
  const Sample cond_ws_sample = add("conditioning_workspace", measure(
      [&] {
        reader::condition_into(trace, cfg.source, cfg.movavg_window_us,
                               cond_ws, ct_out);
        benchmark::DoNotOptimize(ct_out.timestamps.data());
      },
      packets, iters));

  // The reference reader's conditioning with warm scratch: the same
  // steady-state memory behaviour (no allocation), one stream at a time in
  // scalar code. The workspace/scalar ratio is the vectorisation-speedup
  // gate.
  reference::ConditionScratch scalar_ws;
  reference::StreamTrace scalar_out;
  const Sample cond_scalar = add("conditioning_scalar", measure(
      [&] {
        reference::condition(trace, cfg.source, cfg.movavg_window_us,
                             scalar_ws, scalar_out);
        benchmark::DoNotOptimize(scalar_out.timestamps.data());
      },
      packets, iters));

  report.set_meta("speedup_full_decode_vs_seed",
                  full_seed.ns_per_packet / full_ws.ns_per_packet);
  report.set_meta("speedup_conditioning_vs_scalar",
                  cond_scalar.ns_per_packet / cond_ws_sample.ns_per_packet);
  if (!report.write_json(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("json report: %s\n", path.c_str());
  std::printf("full decode: seed %.0f ns/pkt (%.0f allocs), workspace "
              "%.0f ns/pkt (%.0f allocs), speedup %.2fx\n",
              full_seed.ns_per_packet, full_seed.allocs_per_decode,
              full_ws.ns_per_packet, full_ws.allocs_per_decode,
              full_seed.ns_per_packet / full_ws.ns_per_packet);
  std::printf("conditioning: scalar %.0f ns/pkt, batched %.0f ns/pkt, "
              "speedup %.2fx\n",
              cond_scalar.ns_per_packet, cond_ws_sample.ns_per_packet,
              cond_scalar.ns_per_packet / cond_ws_sample.ns_per_packet);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::string json_path = args.str("--json-out");
  if (!json_path.empty()) {
    return run_json_report(json_path, args.flag("--quick")) ? 0 : 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
