// decode_corpus: the reader kernels with the substrate out of the timed
// path. Setup simulates a corpus of captures from the seed (plain uplink
// CSI and RSSI frames like Fig 10, long-code frames like Fig 20); the run
// decodes it over and over through UplinkDecoder::decode_into and
// CodedUplinkDecoder::decode_into with one warm DecodeWorkspace, each with
// its experiment's narrow search window (+-2 bits, or the known start).
// It is the one-shot counterpart of serve_live's wide streaming scans.
#include <array>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "capture.h"
#include "core/experiments.h"
#include "reader/conditioning.h"
#include "reader/corr_decoder.h"
#include "reader/decode_workspace.h"
#include "reader/uplink_decoder.h"
#include "runner/seed_derive.h"
#include "util/bits.h"

namespace pb {
namespace {

using namespace wb;

constexpr TimeUs kLeadUs{600'000};
constexpr TimeUs kTailUs{100'000};
constexpr double kHelperPps = 3000.0;

enum class Kind { kCsi, kRssi, kCoded };

/// One corpus slot. A slot inside its decoder's range must decode with at
/// most `max_bit_errors` wrong payload bits: none for CSI and coded frames,
/// under 1e-1 of them for RSSI, which EXPERIMENTS.md finds usable only
/// within a few cm and not error-free there. Slots beyond range
/// (kUnchecked) are decoded but not checked.
struct Slot {
  Kind kind;
  double distance_m;
  double packets_per_symbol;  ///< per bit (plain) or per chip (coded)
  std::size_t code_length;    ///< coded only
  std::size_t max_bit_errors;
};
constexpr std::size_t kUnchecked = ~std::size_t{0};

constexpr Slot kSlots[] = {
    {Kind::kCsi, 0.10, 30.0, 0, 0},
    {Kind::kCsi, 0.30, 30.0, 0, 0},
    {Kind::kCsi, 0.10, 6.0, 0, 0},
    {Kind::kCsi, 0.30, 6.0, 0, 0},
    {Kind::kCsi, 1.50, 30.0, 0, kUnchecked},
    {Kind::kRssi, 0.02, 30.0, 0, 7},  // < 1e-1 of 77 bits
    {Kind::kRssi, 0.50, 30.0, 0, kUnchecked},
    {Kind::kCoded, 0.80, 2.0, 32, 0},
    {Kind::kCoded, 1.20, 2.0, 32, 0},
};
constexpr std::size_t kPlainPayloadBits = 77;
constexpr std::size_t kCodedPayloadBits = 12;

struct Entry {
  Slot slot;
  std::size_t ws;  ///< index of the workspace of this decoder kind
  FrameSpec spec;
  BitVec sent;
  wifi::CaptureTrace trace;
  std::unique_ptr<reader::UplinkDecoder> plain;
  std::unique_ptr<reader::CodedUplinkDecoder> coded;
};

Entry make_entry(const Slot& slot, std::uint64_t seed) {
  Entry e;
  e.slot = slot;
  e.ws = static_cast<std::size_t>(slot.kind);
  core::UplinkExperimentParams geo;
  geo.tag_reader_distance_m = Meters{slot.distance_m};
  e.spec.sim.channel = core::make_channel_params(geo);
  e.spec.sim.seed = seed;
  e.spec.traffic_seed = seed;
  e.spec.helper_pps = kHelperPps;
  e.spec.start_us = kLeadUs;
  e.spec.symbol_us =
      TimeUs::from_us(1e6 * slot.packets_per_symbol / kHelperPps);
  const bool coded = slot.kind == Kind::kCoded;
  e.sent = random_bits(coded ? kCodedPayloadBits : kPlainPayloadBits,
                       seed ^ 0x5151u);
  e.spec.frame = barker13();
  e.spec.frame.insert(e.spec.frame.end(), e.sent.begin(), e.sent.end());
  std::size_t symbols = e.spec.frame.size();
  if (coded) {
    e.spec.codes = make_orthogonal_pair(slot.code_length);
    symbols *= slot.code_length;
    reader::CodedDecoderConfig dec;
    dec.codes = *e.spec.codes;
    dec.payload_bits = kCodedPayloadBits;
    dec.chip_duration_us = e.spec.symbol_us;
    dec.known_start = kLeadUs;  // query-synchronised, as in Fig 20
    e.coded = std::make_unique<reader::CodedUplinkDecoder>(dec);
  } else {
    reader::UplinkDecoderConfig dec;
    dec.source = slot.kind == Kind::kRssi ? reader::MeasurementSource::kRssi
                                          : reader::MeasurementSource::kCsi;
    dec.payload_bits = kPlainPayloadBits;
    dec.bit_duration_us = e.spec.symbol_us;
    dec.num_good_streams = slot.kind == Kind::kRssi ? 1 : 10;
    dec.search_from = kLeadUs - 2 * e.spec.symbol_us;  // as in Fig 10
    dec.search_to = kLeadUs + 2 * e.spec.symbol_us;
    e.plain = std::make_unique<reader::UplinkDecoder>(dec);
  }
  e.spec.until_us =
      kLeadUs + e.spec.symbol_us * static_cast<std::int64_t>(symbols) +
      kTailUs;
  return e;
}

/// Reused decode outputs; `found`/`payload` view whichever ran last.
struct Decoded {
  reader::UplinkDecodeResult plain;
  reader::CodedDecodeResult coded;
  bool found = false;
  const BitVec* payload = nullptr;
};

/// One warm workspace per decoder kind, as a reader running the three
/// decoders would keep: a workspace shared between CSI (90 streams) and
/// RSSI (3 streams) would free and regrow its per-stream rows each switch.
using Workspaces = std::array<reader::DecodeWorkspace, 3>;

/// The product path: one decode_into call.
void decode(const Entry& e, Workspaces& wss, Decoded& d) {
  reader::DecodeWorkspace& ws = wss[e.ws];
  if (e.coded) {
    e.coded->decode_into(e.trace, ws, d.coded);
    d.found = d.coded.found;
    d.payload = &d.coded.payload;
  } else {
    e.plain->decode_into(e.trace, ws, d.plain);
    d.found = d.plain.found;
    d.payload = &d.plain.payload;
  }
}

/// decode_into's two stages as separate calls under spans.
void decode_traced(const Entry& e, Workspaces& wss, Decoded& d, Tracer& t) {
  reader::DecodeWorkspace& ws = wss[e.ws];
  {
    Scope s(&t, "reader.condition");
    if (e.coded) {
      reader::condition_into(e.trace, e.coded->config().source,
                             e.coded->config().movavg_window_us, ws,
                             ws.conditioned);
    } else {
      reader::condition_into(e.trace, e.plain->config().source,
                             e.plain->config().movavg_window_us, ws,
                             ws.conditioned);
    }
  }
  if (e.coded) {
    Scope s(&t, "reader.coded");
    e.coded->decode_conditioned_into(ws.conditioned, ws, d.coded);
    d.found = d.coded.found;
    d.payload = &d.coded.payload;
  } else {
    Scope s(&t, "reader.decode");
    e.plain->decode_conditioned_into(ws.conditioned, ws, d.plain);
    d.found = d.plain.found;
    d.payload = &d.plain.payload;
  }
}

}  // namespace

Result run_decode_corpus(const Options& opt) {
  Result r;
  Tracer t;
  std::vector<Entry> corpus;
  Workspaces ws;
  Decoded d;
  std::uint64_t packets = 0;
  std::uint64_t plain_packets = 0;
  bool traces_equal = true;
  // Builds the corpus and warms fresh workspaces.
  const auto setup = [&] {
    corpus.clear();
    ws = Workspaces{};
    packets = plain_packets = 0;
    std::uint64_t i = 0;
    for (const Slot& slot : kSlots) {
      corpus.push_back(make_entry(slot, runner::derive_seed(opt.seed, i++)));
      Entry& e = corpus.back();
      e.trace = simulate(e.spec, nullptr);
      if (opt.trace && !same_trace(e.trace, simulate(e.spec, &t))) {
        traces_equal = false;
      }
      packets += e.trace.size();
      if (!e.coded) plain_packets += e.trace.size();
    }
    for (const Entry& e : corpus) decode(e, ws, d);  // warm the workspace
  };

  // Reference outputs from the first untraced pass; every later pass and
  // the traced run must reproduce them.
  const std::size_t n_traces = std::size(kSlots);
  std::vector<BitVec> ref_payload(n_traces);
  std::vector<char> ref_found(n_traces, 0);
  // Each trace's fastest decode over the passes (bench.h best_of).
  std::vector<double> trace_us(n_traces, kNotRun);
  std::vector<double> pass_ns_per_packet;
  std::uint64_t allocs = 0;
  std::uint64_t decodes = 0;
  std::uint64_t found = 0;
  const auto check = [&](std::size_t i, bool first_pass) {
    ++r.attempted;
    const Entry& e = corpus[i];
    if (first_pass) {
      ref_found[i] = d.found ? 1 : 0;
      ref_payload[i] = *d.payload;
      if (e.slot.max_bit_errors != kUnchecked &&
          (!d.found ||
           hamming_distance(*d.payload, e.sent) > e.slot.max_bit_errors)) {
        ++r.failed;
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "decode_corpus: trace %zu (%.2f m) decoded with too "
                      "many bit errors", i, e.slot.distance_m);
        r.note(buf);
      }
    } else if ((d.found ? 1 : 0) != ref_found[i] || *d.payload != ref_payload[i]) {
      ++r.failed;
    }
  };

  // One untraced pass over the corpus: the product path.
  const auto pass = [&](bool first_pass) {
    std::int64_t pass_ns = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const std::uint64_t a0 = allocs_now();
      const std::int64_t t0 = now_ns();
      decode(corpus[i], ws, d);
      const std::int64_t dt = now_ns() - t0;
      allocs += allocs_now() - a0;
      pass_ns += dt;
      best_of(trace_us[i], static_cast<double>(dt) * 1e-3);
      ++decodes;
      found += d.found ? 1 : 0;
      check(i, first_pass);
    }
    pass_ns_per_packet.push_back(static_cast<double>(pass_ns) /
                                 static_cast<double>(packets));
  };
  const auto measure = [&](double seconds) {
    const std::int64_t t_start = now_ns();
    do {
      pass(pass_ns_per_packet.empty());
    } while (pass_ns_per_packet.size() < 2 || seconds_since(t_start) < seconds);
  };

  double setup_s = 0.0;
  if (opt.trace) {
    setup();
    measure(0.4 * opt.seconds);
  } else {
    // The corpus is built kSetupReps times (setup_s is the median) and
    // each build is measured for an equal share of the run: fresh buffers
    // land on fresh memory, and the best-of times do not depend on one
    // build's luck.
    std::vector<double> setup_times;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const std::int64_t s0 = now_ns();
      setup();
      setup_times.push_back(seconds_since(s0));
      measure(opt.seconds / kSetupReps);
    }
    setup_s = median(setup_times);
  }
  if (!traces_equal) {
    ++r.failed;
    r.note("decode_corpus: traced capture generation differs from "
           "UplinkSim::run");
  }

  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    h = fnv1a(h, &ref_found[i], 1);
    h = fnv1a(h, ref_payload[i].data(), ref_payload[i].size());
  }
  char buf[256];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  r.digest = buf;
  const double untraced_ns = median(pass_ns_per_packet);
  double best_sum_us = 0.0;
  for (double us : trace_us) best_sum_us += us;
  std::snprintf(buf, sizeof buf,
                "decode_corpus: %zu traces, %llu packets/pass, %zu passes, "
                "median %.1f ns/packet per pass, fastest traces sum to %.1f "
                "ns/packet, found %llu/%llu, %llu allocs",
                corpus.size(), static_cast<unsigned long long>(packets),
                pass_ns_per_packet.size(), untraced_ns,
                best_sum_us * 1e3 / static_cast<double>(packets),
                static_cast<unsigned long long>(found),
                static_cast<unsigned long long>(decodes),
                static_cast<unsigned long long>(allocs));
  r.note(buf);

  if (!opt.trace) {
    r.set("setup_s", setup_s);
    r.set("peak_rss_mb", peak_rss_mb());
    r.set("ns_per_packet", best_sum_us * 1e3 / static_cast<double>(packets));
    return r;
  }

  // The substrate layers ran once, in setup, to build the corpus.
  const auto gen_per_packet = [&](std::initializer_list<const char*> names) {
    double ns = 0.0;
    for (const char* name : names) {
      ns += static_cast<double>(t.layer(name).total_ns);
    }
    return ns / static_cast<double>(packets);
  };
  r.set("wifi.traffic.ns_per_packet", gen_per_packet({"wifi.traffic"}));
  r.set("phy.channel.ns_per_packet",
        gen_per_packet({"phy.channel", "phy.channel.init"}));
  r.set("wifi.nic.ns_per_packet", gen_per_packet({"wifi.nic"}));

  std::vector<double> traced_pass;
  const std::int64_t t_traced = now_ns();
  while (traced_pass.empty() || seconds_since(t_traced) < 0.6 * opt.seconds) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      decode_traced(corpus[i], ws, d, t);
      check(i, false);
    }
    traced_pass.push_back(static_cast<double>(now_ns() - t0) /
                          static_cast<double>(packets));
  }
  const auto passes = static_cast<double>(traced_pass.size());
  const auto per = [&](const char* name, std::uint64_t n) {
    return static_cast<double>(t.layer(name).total_ns) /
           (passes * static_cast<double>(n));
  };
  const double traced_ns = median(traced_pass);
  r.set("reader.condition.ns_per_packet", per("reader.condition", packets));
  r.set("reader.decode.ns_per_packet", per("reader.decode", plain_packets));
  r.set("reader.coded.ns_per_packet",
        per("reader.coded", packets - plain_packets));
  r.set("core.packets_total", static_cast<double>(packets));
  r.set("reader.decode.found_frac",
        static_cast<double>(found) / static_cast<double>(decodes));
  r.set("reader.allocs_per_packet",
        static_cast<double>(allocs) /
            (static_cast<double>(packets) *
             static_cast<double>(pass_ns_per_packet.size())));
  r.set("bench.untraced_ns_per_packet", untraced_ns);
  r.set("bench.traced_ns_per_packet", traced_ns);
  r.set("bench.trace_overhead_ratio", traced_ns / untraced_ns);
  const double layers =
      (static_cast<double>(t.layer("reader.condition").total_ns) +
       static_cast<double>(t.layer("reader.decode").total_ns) +
       static_cast<double>(t.layer("reader.coded").total_ns)) /
      (passes * static_cast<double>(packets));
  std::snprintf(buf, sizeof buf,
                "decode_corpus trace: reader layers sum to %.1f ns/packet; "
                "traced %.1f, untraced %.1f ns/packet",
                layers, traced_ns, untraced_ns);
  r.note(buf);
  if (!opt.spans_path.empty() && !t.write_jsonl(opt.spans_path)) {
    r.note("decode_corpus: cannot write spans to " + opt.spans_path);
    ++r.failed;
  }
  return r;
}

}  // namespace pb
