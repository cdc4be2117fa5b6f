#include "sim/vessel.h"

namespace marlin {

double EmissionModel::SampleIntervalSec(Rng* rng) const {
  const double u = rng->NextDouble();
  if (u < p_nominal) {
    return rng->Uniform(nominal_min_sec, nominal_max_sec);
  }
  if (u < p_nominal + p_degraded) {
    return rng->Exponential(1.0 / degraded_mean_sec);
  }
  return rng->Exponential(1.0 / gap_mean_sec);
}

VesselType SampleVesselType(Rng* rng) {
  const double u = rng->NextDouble();
  if (u < 0.40) return VesselType::kCargo;
  if (u < 0.62) return VesselType::kTanker;
  if (u < 0.74) return VesselType::kFishing;
  if (u < 0.84) return VesselType::kPassenger;
  if (u < 0.90) return VesselType::kTug;
  if (u < 0.95) return VesselType::kPleasureCraft;
  return VesselType::kOther;
}

double CruiseSpeedFor(VesselType type, Rng* rng) {
  switch (type) {
    case VesselType::kCargo:
      return rng->Uniform(10.0, 18.0);
    case VesselType::kTanker:
      return rng->Uniform(9.0, 15.0);
    case VesselType::kPassenger:
      return rng->Uniform(15.0, 24.0);
    case VesselType::kFishing:
      return rng->Uniform(4.0, 10.0);
    case VesselType::kTug:
      return rng->Uniform(5.0, 10.0);
    case VesselType::kHighSpeedCraft:
      return rng->Uniform(22.0, 35.0);
    case VesselType::kPleasureCraft:
      return rng->Uniform(6.0, 16.0);
    default:
      return rng->Uniform(8.0, 16.0);
  }
}

}  // namespace marlin
