// figure_sweep: figure regeneration, the first user path. A fixed
// 12-point subset of the Fig 10 grid runs through core::measure_uplink_ber
// on a one-thread runner::SweepRunner, exactly as bench_fig10_uplink_ber
// does. The substrate (traffic -> channel -> NIC) dominates it.
//
// The traced run replays the same frames layer by layer through the public
// calls measure_uplink_ber makes internally and must reproduce every grid
// point's BER exactly.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "capture.h"
#include "core/experiments.h"
#include "reader/conditioning.h"
#include "reader/decode_workspace.h"
#include "reader/uplink_decoder.h"
#include "runner/seed_derive.h"
#include "runner/sweep.h"
#include "sim/rng.h"
#include "util/bits.h"
#include "util/codes.h"
#include "util/stats.h"
#include "wifi/traffic.h"

namespace pb {
namespace {

using namespace wb;

// The frame layout measure_uplink_ber simulates (core/experiments.cpp):
// a 600 ms lead that fills the conditioning window, the frame, 100 ms tail.
constexpr TimeUs kLeadUs{600'000};
constexpr TimeUs kTailUs{100'000};
// Each grid point is 4 frames, run as 4 one-frame sweep tasks with their
// own derived seeds, so every frame is timed on its own (bench.h best_of).
constexpr std::size_t kFramesPerPoint = 4;

/// One grid point plus the paper bound it is checked against
/// (EXPERIMENTS.md, Fig 10 shape claims).
enum class Bound {
  kNone,          ///< measured only
  kBelow1e2,      ///< CSI close in: BER < 1e-2
  kAbove1e2,      ///< CSI far beyond the plain decoder's range: BER > 1e-2
  kAbove1e1,      ///< RSSI past 30 cm is useless: BER > 1e-1
  kHalfOfFarRssi  ///< RSSI close in works: BER < half the 50 cm BER
};

struct Point {
  core::UplinkGridPoint grid;
  Bound bound = Bound::kNone;
};

/// One sweep task: one frame of one grid point.
struct Task {
  std::size_t point = 0;
  core::UplinkExperimentParams params;
};

std::vector<Task> make_tasks(const std::vector<Point>& pts) {
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t f = 0; f < kFramesPerPoint; ++f) {
      Task t;
      t.point = i;
      t.params = pts[i].grid.params;
      t.params.seed = runner::derive_seed(pts[i].grid.params.seed, f);
      tasks.push_back(t);
    }
  }
  return tasks;
}

/// CSI at 20 cm (inside range) and 150 cm (beyond), RSSI at 5 cm and
/// 50 cm, each at 30/6/3 packets per bit. Per-point seeds derive from the
/// workload seed, so every seed is a different draw of the same figure.
std::vector<Point> make_grid(std::uint64_t seed) {
  std::vector<Point> pts;
  const auto add = [&](reader::MeasurementSource src, double near_m,
                       double far_m, Bound near_bound,
                       const std::vector<Bound>& far_bounds) {
    core::UplinkGridSpec spec;
    spec.base.runs = 1;
    spec.base.seed = seed * 2 + (src == reader::MeasurementSource::kRssi);
    spec.sources = {src};
    spec.distances_m = {near_m, far_m};
    spec.packets_per_bit = {30.0, 6.0, 3.0};
    for (const auto& g : core::expand_uplink_grid(spec)) {
      Point p;
      p.grid = g;
      p.grid.index = pts.size();
      p.bound = g.distance_m.value() == near_m ? near_bound
                                               : far_bounds[g.index % 3];
      pts.push_back(p);
    }
  };
  add(reader::MeasurementSource::kCsi, 0.20, 1.50, Bound::kBelow1e2,
      {Bound::kNone, Bound::kAbove1e2, Bound::kAbove1e2});
  add(reader::MeasurementSource::kRssi, 0.05, 0.50, Bound::kHalfOfFarRssi,
      {Bound::kAbove1e1, Bound::kAbove1e1, Bound::kAbove1e1});
  return pts;
}

/// measure_uplink_ber's per-run seed (core/experiments.cpp). If the core
/// ever derives it differently, the traced run's BER check fails.
std::uint64_t frame_seed(const core::UplinkExperimentParams& p,
                         std::size_t run) {
  return p.seed * 0x9e3779b97f4a7c15ull + run * 0xc2b2ae3d27d4eb4full + 1;
}

/// The frame measure_uplink_ber simulates for run `run` of a point.
FrameSpec frame_spec(const core::UplinkExperimentParams& p, std::size_t run) {
  FrameSpec f;
  const std::uint64_t seed = frame_seed(p, run);
  f.sim.channel = core::make_channel_params(p);
  f.sim.nic = p.nic;
  f.sim.seed = seed;
  f.sim.channel_seed = p.channel_seed;
  const BitVec payload = random_bits(p.payload_bits, seed ^ 0x5151u);
  f.frame = barker13();
  f.frame.insert(f.frame.end(), payload.begin(), payload.end());
  f.symbol_us = p.bit_duration_us();
  f.start_us = kLeadUs;
  f.until_us = kLeadUs +
               f.symbol_us * static_cast<std::int64_t>(f.frame.size()) +
               kTailUs;
  f.helper_pps = p.helper_pps;
  f.traffic_seed = seed;
  return f;
}

std::size_t frame_packets(const FrameSpec& f) {
  auto rng = sim::RngStream(f.traffic_seed).fork("traffic");
  return wifi::make_cbr_timeline(f.helper_pps, f.until_us,
                                 wifi::TrafficParams{}, rng)
      .size();
}

reader::UplinkDecoderConfig decoder_config(
    const core::UplinkExperimentParams& p) {
  reader::UplinkDecoderConfig dec;
  dec.source = p.source;
  dec.payload_bits = p.payload_bits;
  dec.bit_duration_us = p.bit_duration_us();
  dec.movavg_window_us = p.movavg_window_us;
  dec.num_good_streams =
      p.source == reader::MeasurementSource::kRssi ? 1 : p.num_good_streams;
  dec.hysteresis_sigma = p.hysteresis_sigma;
  dec.sync_threshold = p.sync_threshold;
  dec.search_from = kLeadUs - 2 * p.bit_duration_us();
  dec.search_to = kLeadUs + 2 * p.bit_duration_us();
  return dec;
}

/// Reader-side counts of the traced run.
struct ReaderCounts {
  std::uint64_t decodes = 0;
  std::uint64_t found = 0;
  std::uint64_t allocs = 0;  ///< inside conditioning + decode calls
};

/// measure_uplink_ber, replayed one layer call at a time under spans.
core::BerMeasurement traced_point(const core::UplinkExperimentParams& p,
                                  Tracer& t, ReaderCounts& rc) {
  Scope point(&t, "core.measure_uplink_ber");
  BerCounter ber;
  core::BerMeasurement m;
  const reader::UplinkDecoder decoder(decoder_config(p));
  reader::DecodeWorkspace ws;
  reader::UplinkDecodeResult result;
  for (std::size_t run = 0; run < p.runs; ++run) {
    Scope frame_scope(&t, "core.frame");
    const FrameSpec f = frame_spec(p, run);
    const wifi::CaptureTrace trace = simulate(f, &t);
    const BitVec payload(f.frame.begin() +
                             static_cast<std::ptrdiff_t>(barker13().size()),
                         f.frame.end());
    const std::uint64_t a0 = allocs_now();
    {
      Scope s(&t, "reader.condition");
      reader::condition_into(trace, decoder.config().source,
                             decoder.config().movavg_window_us, ws,
                             ws.conditioned);
    }
    {
      Scope s(&t, "reader.decode");
      decoder.decode_conditioned_into(ws.conditioned, ws, result);
    }
    rc.allocs += allocs_now() - a0;
    ++rc.decodes;
    rc.found += result.found ? 1 : 0;
    if (!result.found) {
      ++m.failed_syncs;
      ber.add_counts(payload.size(), payload.size());
      continue;
    }
    ber.add(payload, result.payload);
  }
  m.ber = ber.ber_floored();
  m.ber_raw = ber.ber();
  m.bits = ber.bits();
  m.errors = ber.errors();
  return m;
}

bool same(const core::BerMeasurement& a, const core::BerMeasurement& b) {
  return a.bits == b.bits && a.errors == b.errors &&
         a.failed_syncs == b.failed_syncs;
}

/// Per grid point: the sum of its frames' counts.
std::vector<core::BerMeasurement> per_point(
    std::size_t points, const std::vector<Task>& tasks,
    const std::vector<core::BerMeasurement>& res) {
  std::vector<core::BerMeasurement> out(points);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    core::BerMeasurement& m = out[tasks[i].point];
    m.bits += res[i].bits;
    m.errors += res[i].errors;
    m.failed_syncs += res[i].failed_syncs;
  }
  for (auto& m : out) {
    m.ber_raw = m.bits ? static_cast<double>(m.errors) /
                             static_cast<double>(m.bits)
                       : 0.0;
  }
  return out;
}

/// Failed bound checks over one pass's results.
std::uint64_t check_bounds(const std::vector<Point>& pts,
                           const std::vector<core::BerMeasurement>& res,
                           std::vector<std::string>* why) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double ber = res[i].ber_raw;
    bool ok = true;
    switch (pts[i].bound) {
      case Bound::kNone: break;
      case Bound::kBelow1e2: ok = ber < 1e-2; break;
      case Bound::kAbove1e2: ok = ber > 1e-2; break;
      case Bound::kAbove1e1: ok = ber > 1e-1; break;
      case Bound::kHalfOfFarRssi:
        // The 50 cm point with the same packets/bit sits three rows on.
        ok = ber < 0.5 * res[i + 3].ber_raw;
        break;
    }
    if (!ok) {
      ++failed;
      if (why != nullptr) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "figure_sweep: point %zu (%s %.0f cm %.0f pkt/bit) "
                      "breaks its bound: BER %.4f",
                      i, pts[i].grid.source == reader::MeasurementSource::kCsi
                             ? "csi" : "rssi",
                      pts[i].grid.distance_m.value() * 100.0,
                      pts[i].grid.packets_per_bit, ber);
        why->push_back(buf);
      }
    }
  }
  return failed;
}

}  // namespace

Result run_figure_sweep(const Options& opt) {
  Result r;
  std::vector<Point> pts;
  std::vector<Task> tasks;
  std::uint64_t packets = 0;
  const double setup_s = timed_setup(opt.trace ? 1 : kSetupReps, [&] {
    pts = make_grid(opt.seed);
    tasks = make_tasks(pts);
    packets = 0;
    for (const auto& t : tasks) {
      packets += frame_packets(frame_spec(t.params, 0));
    }
    // Warm-up: one short frame through the whole pipeline.
    core::measure_uplink_ber(tasks.back().params);
  });

  runner::SweepConfig sweep_cfg;
  sweep_cfg.threads = 1;
  runner::SweepRunner sweep(sweep_cfg);
  // Each frame's fastest time over the passes (interference on a shared
  // machine only ever adds time; see bench.h best_of).
  std::vector<double> frame_us(tasks.size(), kNotRun);
  std::vector<double> pass_ns_per_packet;
  std::vector<core::BerMeasurement> first;

  // Untraced passes: the product path. With --trace 1 they only provide
  // the base of the tracing-overhead ratio.
  const double untraced_s = opt.trace ? 0.4 * opt.seconds : opt.seconds;
  const std::int64_t t_start = now_ns();
  while (pass_ns_per_packet.size() < 2 || seconds_since(t_start) < untraced_s) {
    const std::int64_t t0 = now_ns();
    const auto res = sweep.run(tasks.size(), [&](const runner::TaskContext& c) {
      const std::int64_t p0 = now_ns();
      auto m = core::measure_uplink_ber(tasks[c.task_index].params);
      best_of(frame_us[c.task_index], static_cast<double>(now_ns() - p0) * 1e-3);
      return m;
    });
    pass_ns_per_packet.push_back(static_cast<double>(now_ns() - t0) /
                                 static_cast<double>(packets));
    r.attempted += tasks.size();
    if (first.empty()) {
      first = res.results;
      std::vector<std::string> why;
      r.failed += check_bounds(pts, per_point(pts.size(), tasks, first), &why);
      for (auto& w : why) r.note(std::move(w));
    } else {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (!same(res.results[i], first[i])) ++r.failed;  // nondeterminism
      }
    }
  }

  std::uint64_t h = kFnvBasis;
  for (const auto& m : first) {
    const std::uint64_t v[3] = {m.bits, m.errors, m.failed_syncs};
    h = fnv1a(h, v, sizeof v);
  }
  char buf[256];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  r.digest = buf;
  const double untraced_ns = median(pass_ns_per_packet);
  double best_sum_us = 0.0;
  for (double us : frame_us) best_sum_us += us;
  std::snprintf(buf, sizeof buf,
                "figure_sweep: %zu points x %zu frames, %llu packets/pass, "
                "%zu passes, median %.4f s/pass, fastest frames sum to "
                "%.4f s",
                pts.size(), kFramesPerPoint,
                static_cast<unsigned long long>(packets),
                pass_ns_per_packet.size(), untraced_ns * 1e-9 *
                    static_cast<double>(packets),
                best_sum_us * 1e-6);
  r.note(buf);
  const auto point_ber = per_point(pts.size(), tasks, first);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    std::snprintf(buf, sizeof buf, "  point %2zu %-4s %4.0f cm %2.0f pkt/bit "
                  "BER %.4f (%zu/%zu bits, %zu failed syncs)",
                  i, pts[i].grid.source == reader::MeasurementSource::kCsi
                         ? "csi" : "rssi",
                  pts[i].grid.distance_m.value() * 100.0,
                  pts[i].grid.packets_per_bit, point_ber[i].ber_raw,
                  point_ber[i].errors, point_ber[i].bits,
                  point_ber[i].failed_syncs);
    r.note(buf);
  }

  if (!opt.trace) {
    r.set("setup_s", setup_s);
    r.set("peak_rss_mb", peak_rss_mb());
    r.set("ns_per_packet", best_sum_us * 1e3 / static_cast<double>(packets));
    return r;
  }

  // Traced passes: same frames, layer by layer; outputs must match.
  Tracer t;
  ReaderCounts rc;
  std::vector<double> traced_pass;
  const std::int64_t t_traced = now_ns();
  while (traced_pass.empty() || seconds_since(t_traced) < 0.6 * opt.seconds) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const auto m = traced_point(tasks[i].params, t, rc);
      ++r.attempted;
      if (!same(m, first[i])) {
        ++r.failed;
        std::snprintf(buf, sizeof buf,
                      "figure_sweep: traced task %zu differs from the "
                      "untraced run", i);
        r.note(buf);
      }
    }
    traced_pass.push_back(static_cast<double>(now_ns() - t0));
  }
  const double n = static_cast<double>(packets * traced_pass.size());
  const auto per_packet = [&](std::initializer_list<const char*> names) {
    double ns = 0.0;
    for (const char* name : names) {
      ns += static_cast<double>(t.layer(name).total_ns);
    }
    return ns / n;
  };
  const double core_self =
      static_cast<double>(t.layer("core.measure_uplink_ber").self_ns +
                          t.layer("core.frame").self_ns) / n;
  const double traced_ns = median(traced_pass) / static_cast<double>(packets);
  r.set("wifi.traffic.ns_per_packet", per_packet({"wifi.traffic"}));
  r.set("phy.channel.ns_per_packet",
        per_packet({"phy.channel", "phy.channel.init"}));
  r.set("wifi.nic.ns_per_packet", per_packet({"wifi.nic"}));
  r.set("core.sim.self_ns_per_packet", core_self);
  r.set("reader.condition.ns_per_packet", per_packet({"reader.condition"}));
  r.set("reader.decode.ns_per_packet", per_packet({"reader.decode"}));
  r.set("core.packets_total", static_cast<double>(packets));
  r.set("reader.decode.found_frac", static_cast<double>(rc.found) /
                                        static_cast<double>(rc.decodes));
  r.set("reader.allocs_per_packet", static_cast<double>(rc.allocs) / n);
  r.set("bench.untraced_ns_per_packet", untraced_ns);
  r.set("bench.traced_ns_per_packet", traced_ns);
  r.set("bench.trace_overhead_ratio", traced_ns / untraced_ns);
  std::snprintf(buf, sizeof buf,
                "figure_sweep trace: layers sum to %.1f ns/packet; traced "
                "%.1f, untraced %.1f ns/packet; %zu spans kept, %llu dropped",
                per_packet({"core.measure_uplink_ber"}), traced_ns,
                untraced_ns, t.spans_kept(),
                static_cast<unsigned long long>(t.spans_dropped()));
  r.note(buf);
  if (!opt.spans_path.empty() && !t.write_jsonl(opt.spans_path)) {
    r.note("figure_sweep: cannot write spans to " + opt.spans_path);
    ++r.failed;
  }
  return r;
}

}  // namespace pb
