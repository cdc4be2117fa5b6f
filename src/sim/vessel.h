#ifndef MARLIN_SIM_VESSEL_H_
#define MARLIN_SIM_VESSEL_H_

#include "ais/types.h"
#include "util/rng.h"

namespace marlin {

/// Parameters of the AIS transmission model. The raw AIS reporting interval
/// depends on speed and equipment (ITU-R M.1371 schedules 2-10 s under way)
/// but the *received* stream the paper's system consumes is shaped by
/// terrestrial coverage holes and satellite revisit gaps: §6.1 reports a
/// post-downsampling mean interval of 78.6 s with a 418.3 s standard
/// deviation. The mixture below reproduces that regime: mostly short
/// nominal intervals, a coverage-degraded component, and rare long
/// satellite-gap outliers.
struct EmissionModel {
  /// P(nominal reception), interval ~ U[min, max).
  double p_nominal = 0.90;
  double nominal_min_sec = 4.0;
  double nominal_max_sec = 40.0;
  /// P(degraded coverage), interval ~ Exp(mean).
  double p_degraded = 0.08;
  double degraded_mean_sec = 150.0;
  /// Remainder: satellite revisit gap, interval ~ Exp(mean).
  double gap_mean_sec = 1500.0;

  /// Measurement noise on the *reported* kinematics (positions come from
  /// GNSS and are comparatively clean; SOG and especially COG readings are
  /// noisy, which is why single-report dead reckoning degrades and why
  /// history-integrating models can beat it).
  double position_noise_m = 10.0;
  double sog_noise_knots = 0.2;
  double cog_noise_deg = 1.0;

  /// Draws the next inter-transmission interval in seconds.
  double SampleIntervalSec(Rng* rng) const;
};

/// Draws a vessel type from the simulated fleet's mix (40% cargo, 22%
/// tanker, 12% fishing, 10% passenger, 6% tug, 5% pleasure craft, 5%
/// other). Consumes one draw.
VesselType SampleVesselType(Rng* rng);

/// Draws a cruise speed in knots from `type`'s speed band. Consumes one
/// draw.
double CruiseSpeedFor(VesselType type, Rng* rng);

}  // namespace marlin

#endif  // MARLIN_SIM_VESSEL_H_
