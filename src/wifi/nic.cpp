#include "wifi/nic.h"

#include <cmath>

#include "util/check.h"

namespace wb::wifi {
namespace {

double rms_amplitude(const phy::CsiMatrix& h) {
  double acc = 0.0;
  for (const auto& ant : h) {
    for (const auto& c : ant) acc += std::norm(c);
  }
  return std::sqrt(acc / static_cast<double>(kNumCsiStreams));
}

}  // namespace

NicModel::NicModel(const NicModelParams& params, sim::RngStream rng)
    : params_(params), rng_(rng) {
  WB_REQUIRE(params.csi_noise_rel >= 0.0);
  WB_REQUIRE(params.spurious_prob >= 0.0 && params.spurious_prob <= 1.0);
  // kNumAntennas (one past the end) is the documented "no weak antenna"
  // sentinel; anything beyond that is a typo.
  WB_REQUIRE(params.weak_antenna <= phy::kNumAntennas,
             "weak antenna index out of range");
  auto spread_rng = rng_.fork("noise-spread");
  for (auto& ant : noise_factor_) {
    for (double& f : ant) {
      f = std::exp(params_.csi_noise_spread * spread_rng.normal());
    }
  }
}

void NicModel::calibrate(const phy::CsiMatrix& h) {
  const double rms = rms_amplitude(h);
  ref_amp_ = rms > 0.0 ? rms : 1.0;
  calibrated_ = true;
}

CaptureRecord NicModel::measure(const phy::CsiMatrix& h, TimeUs t,
                                std::uint32_t source_id, FrameKind kind) {
  if (!calibrated_) calibrate(h);

  CaptureRecord rec;
  rec.timestamp_us = t;
  rec.source = source_id;
  rec.has_csi = (kind != FrameKind::kBeacon);

  // Estimation noise scales with the typical channel amplitude: the CSI
  // estimator error is set by the packet's preamble SNR, which the direct
  // path dominates.
  const double noise_sd = params_.csi_noise_rel * ref_amp_;
  const double noise_mw = params_.noise_floor_dbm.to_mw().value();

  // Spurious whole-snapshot event?
  double spurious = 1.0;
  if (rng_.chance(params_.spurious_prob)) {
    const double lo = std::log(1.0 / params_.spurious_scale);
    const double hi = std::log(params_.spurious_scale);
    spurious = std::exp(rng_.uniform(lo, hi));
  }

  for (std::size_t a = 0; a < phy::kNumAntennas; ++a) {
    const double ant_gain =
        (a == params_.weak_antenna) ? params_.weak_antenna_gain : 1.0;
    double power_mw = 0.0;
    for (std::size_t s = 0; s < phy::kNumSubchannels; ++s) {
      const double sd = noise_sd * ant_gain * noise_factor_[a][s];
      const phy::Complex noisy =
          ant_gain * h[a][s] +
          phy::Complex{rng_.normal(0.0, sd), rng_.normal(0.0, sd)};
      const double norm = std::norm(noisy);
      power_mw += norm;

      if (rec.has_csi) {
        // sqrt(|z|^2) rather than std::abs (hypot): it can differ from
        // |z| by one ulp, but not once quantised to csi_quant_step
        // (Nic.SqrtNormMatchesAbsOnceQuantised).
        double amp = std::sqrt(norm) / ref_amp_ * params_.csi_scale;
        amp *= spurious;
        // Quantise to the NIC's reporting granularity.
        if (params_.csi_quant_step > 0.0) {
          amp = std::round(amp / params_.csi_quant_step) *
                params_.csi_quant_step;
        }
        rec.csi[a][s] = amp;
      }
    }
    // RSSI: total in-band power plus thermal noise, quantised.
    double rssi = mw_to_dbm(power_mw +
                            noise_mw * static_cast<double>(
                                           phy::kNumSubchannels));
    rssi += rng_.normal(0.0, params_.rssi_noise_db.value());
    if (params_.rssi_quant_db > Db{}) {
      const double q = params_.rssi_quant_db.value();
      rssi = std::round(rssi / q) * q;
    }
    rec.rssi_dbm[a] = rssi;
  }
  return rec;
}

}  // namespace wb::wifi
