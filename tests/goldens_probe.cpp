// Prints what the reader computes from two fixed captures, every double
// in hex-float: an FNV-1a hash of the conditioned rows (CSI and RSSI),
// the uplink decoder's frame start, sync score, streams, polarities, MRC
// weights, a hash of the MRC-combined signal, per-bit confidence and
// payload, and the coded decoder's score, weights, per-bit margins and
// clipped fraction. The figure tables print three digits, so a one-ulp
// change in a reader kernel leaves them unchanged; scripts/goldens.py
// hashes this output to see it.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/uplink_sim.h"
#include "reader/conditioning.h"
#include "reader/corr_decoder.h"
#include "reader/decode_workspace.h"
#include "reader/uplink_decoder.h"
#include "tag/modulator.h"
#include "util/codes.h"
#include "wifi/traffic.h"

namespace {

using namespace wb;

constexpr TimeUs kStart{600'000};

/// One frame starting 600 ms into a 3000 pkt/s capture, the tag
/// `distance_m` from the reader and the helper 3 m beyond it.
wifi::CaptureTrace capture(double distance_m, const BitVec& frame,
                           TimeUs symbol_us, const OrthogonalCodePair* codes,
                           std::uint64_t seed) {
  core::UplinkSimConfig cfg;
  cfg.channel.tag_pos = {distance_m, 0.0};
  cfg.channel.helper_pos = {distance_m + 3.0, 0.0};
  cfg.seed = seed;
  const std::size_t symbols = frame.size() * (codes ? codes->length() : 1);
  const TimeUs until = kStart +
                       symbol_us * static_cast<std::int64_t>(symbols) +
                       TimeUs{100'000};
  auto rng = sim::RngStream(seed).fork("traffic");
  const auto tl =
      wifi::make_cbr_timeline(3000, until, wifi::TrafficParams{}, rng);
  const tag::Modulator mod =
      codes ? tag::Modulator(frame, *codes, symbol_us, kStart)
            : tag::Modulator(frame, symbol_us, kStart);
  return core::UplinkSim(cfg).run(tl, mod);
}

BitVec frame_with(std::size_t payload_bits, std::uint64_t seed) {
  BitVec frame = barker13();
  const BitVec payload = random_bits(payload_bits, seed);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

/// FNV-1a over the bit patterns of `x`.
std::uint64_t fnv1a(std::uint64_t h, double x) {
  unsigned char bytes[sizeof x];
  std::memcpy(bytes, &x, sizeof x);
  for (unsigned char b : bytes) h = (h ^ b) * 0x100000001b3ull;
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

void print_conditioned(const char* name, const wifi::CaptureTrace& trace,
                       reader::MeasurementSource source) {
  reader::DecodeWorkspace ws;
  reader::ConditionedTrace ct;
  reader::condition_into(trace, source, TimeUs{400'000}, ws, ct);
  std::uint64_t h = kFnvBasis;
  for (std::size_t k = 0; k < ct.num_packets(); ++k) {
    for (std::size_t s = 0; s < ct.num_streams(); ++s) {
      h = fnv1a(h, ct.at(k, s));
    }
  }
  std::printf("%s conditioned %zu x %zu fnv1a %016" PRIx64 "\n", name,
              ct.num_packets(), ct.num_streams(), h);
}

template <typename Result>
void print_result(const char* name, const Result& r) {
  std::printf("%s found %d start %lld score %a\n  streams", name,
              r.found ? 1 : 0, static_cast<long long>(r.start_us.ticks()),
              r.sync_score);
  for (std::size_t s : r.streams) std::printf(" %zu", s);
  std::printf("\n  polarity");
  for (double x : r.polarity) std::printf(" %a", x);
  std::printf("\n  weights");
  for (double x : r.weights) std::printf(" %a", x);
  std::printf("\n  payload ");
  for (auto b : r.payload) std::printf("%d", b ? 1 : 0);
  std::printf("\n");
}

}  // namespace

int main() {
  const TimeUs bit_us{10'000};
  const auto plain = capture(0.2, frame_with(40, 5), bit_us, nullptr, 99);
  print_conditioned("csi", plain, reader::MeasurementSource::kCsi);
  print_conditioned("rssi", plain, reader::MeasurementSource::kRssi);
  for (const auto source :
       {reader::MeasurementSource::kCsi, reader::MeasurementSource::kRssi}) {
    reader::UplinkDecoderConfig dec;
    dec.source = source;
    dec.payload_bits = 40;
    dec.bit_duration_us = bit_us;
    dec.num_good_streams =
        source == reader::MeasurementSource::kRssi ? 1 : 10;
    dec.search_from = kStart - 2 * bit_us;
    dec.search_to = kStart + 2 * bit_us;
    reader::DecodeWorkspace ws;
    reader::UplinkDecodeResult r;
    reader::UplinkDecoder(dec).decode_into(plain, ws, r);
    print_result(source == reader::MeasurementSource::kCsi ? "uplink.csi"
                                                            : "uplink.rssi",
                 r);
    std::uint64_t h = kFnvBasis;
    for (double y : ws.y) h = fnv1a(h, y);
    std::printf("  combined %zu fnv1a %016" PRIx64 "\n  confidence",
                ws.y.size(), h);
    for (double x : r.confidence) std::printf(" %a", x);
    std::printf("\n");
  }

  reader::CodedDecoderConfig dec;
  dec.codes = make_orthogonal_pair(16);
  dec.payload_bits = 12;
  dec.chip_duration_us = TimeUs{1'000};
  dec.known_start = kStart;
  const auto coded = capture(1.2, frame_with(12, 7), dec.chip_duration_us,
                             &dec.codes, 8);
  const auto r = reader::CodedUplinkDecoder(dec).decode(coded);
  print_result("coded", r);
  std::printf("  margin");
  for (double x : r.margin) std::printf(" %a", x);
  std::printf("\n  clipped_fraction %a\n", r.clipped_fraction);
  return 0;
}
