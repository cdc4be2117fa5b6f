#include "sim/des/event_fleet.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "geo/geodesy.h"

namespace marlin {
namespace des {
namespace {

/// Degrees of latitude per meter on the authalic sphere.
constexpr double kDegLatPerMeter = kRadToDeg / kEarthRadiusMeters;

/// Zero-mean unit-stddev noise from two uniforms (triangular
/// distribution). At ~10⁹ events per 72 h regime run the log/sin/cos
/// behind Rng::Normal's Box-Muller are a measurable slice of the
/// per-event budget, and kinematic jitter / sensor noise only need the
/// first two moments, not Gaussian tails. Var(U1 + U2 - 1) = 1/6, so
/// scaling by sqrt(6) gives unit variance.
inline double FastNoise(Rng* rng) {
  constexpr double kSqrt6 = 2.4494897427831781;
  return (rng->NextDouble() + rng->NextDouble() - 1.0) * kSqrt6;
}

}  // namespace

EventFleet::EventFleet(const World* world, const EventFleetConfig& config,
                       EventScheduler* scheduler, Sink sink)
    : world_(world), config_(config), sink_(std::move(sink)) {
  BuildLegCache();
  handler_id_ = scheduler->RegisterHandler("event-fleet", this);

  Rng master(config_.seed);
  vessels_.resize(static_cast<size_t>(config_.num_vessels));
  for (int i = 0; i < config_.num_vessels; ++i) {
    VesselState& v = vessels_[static_cast<size_t>(i)];
    v.rng = master.Fork();
    v.type = SampleVesselType(&v.rng);
    v.cruise_mps = CruiseSpeedFor(v.type, &v.rng) * kKnotsToMps;
    v.speed_mps = v.cruise_mps;
    v.lane = static_cast<uint32_t>(world_->RandomLane(&v.rng));
    const LaneSpan& span = lanes_[v.lane];
    // Spawn at a random progress point within the lane's first 80%.
    const double fraction = v.rng.NextDouble() * 0.8;
    v.leg = span.first_leg +
            std::min(span.num_legs - 1,
                     static_cast<uint32_t>(fraction * span.num_legs));
    v.leg_offset_m = 0.0;

    // Front-loaded exponential arrivals (EventFleetConfig::
    // arrival_span_sec), then the first transmission one emission interval
    // later.
    double arrival_sec = 0.0;
    if (config_.arrival_span_sec > 0.0) {
      arrival_sec = std::min(config_.arrival_span_sec,
                             master.Exponential(6.0 / config_.arrival_span_sec));
    }
    const double first_emit_sec =
        arrival_sec + config_.emission.SampleIntervalSec(&v.rng);
    const TimeMicros first_at =
        config_.start_time +
        static_cast<TimeMicros>(first_emit_sec * kMicrosPerSecond);
    v.last_update =
        config_.start_time +
        static_cast<TimeMicros>(arrival_sec * kMicrosPerSecond);
    scheduler->PostAt(first_at, handler_id_, static_cast<uint64_t>(i));
  }
}

void EventFleet::BuildLegCache() {
  const auto& lanes = world_->lanes();
  lanes_.resize(lanes.size());
  size_t total_legs = 0;
  for (const Lane& lane : lanes) total_legs += lane.waypoints.size() - 1;
  legs_.reserve(total_legs);
  for (size_t li = 0; li < lanes.size(); ++li) {
    const Lane& lane = lanes[li];
    LaneSpan& span = lanes_[li];
    span.first_leg = static_cast<uint32_t>(legs_.size());
    span.to_port = lane.to_port;
    for (size_t w = 0; w + 1 < lane.waypoints.size(); ++w) {
      const LatLng& a = lane.waypoints[w];
      const LatLng& b = lane.waypoints[w + 1];
      Leg leg;
      leg.lat0 = a.lat_deg;
      leg.lon0 = a.lon_deg;
      leg.length_m = std::max(1.0, ApproxDistanceMeters(a, b));
      leg.dlat_per_m = (b.lat_deg - a.lat_deg) / leg.length_m;
      leg.dlon_per_m = (b.lon_deg - a.lon_deg) / leg.length_m;
      leg.bearing_deg = InitialBearingDeg(a, b);
      leg.noise_dlat_per_m = kDegLatPerMeter;
      leg.noise_dlon_per_m =
          kDegLatPerMeter /
          std::max(0.05, std::cos(a.lat_deg * kDegToRad));
      legs_.push_back(leg);
    }
    span.num_legs = static_cast<uint32_t>(legs_.size()) - span.first_leg;
  }

  // Flat LanesFrom adjacency, so lane hops at port arrival are two array
  // reads instead of a vector-returning query.
  const size_t num_ports = world_->ports().size();
  port_offsets_.assign(num_ports + 1, 0);
  for (const Lane& lane : lanes) {
    ++port_offsets_[static_cast<size_t>(lane.from_port) + 1];
  }
  for (size_t p = 0; p < num_ports; ++p) {
    port_offsets_[p + 1] += port_offsets_[p];
  }
  lanes_from_.resize(lanes.size());
  std::vector<uint32_t> cursor(port_offsets_.begin(),
                               port_offsets_.end() - 1);
  for (size_t li = 0; li < lanes.size(); ++li) {
    lanes_from_[cursor[static_cast<size_t>(lanes[li].from_port)]++] =
        static_cast<uint32_t>(li);
  }
}

void EventFleet::Advance(VesselState* v, double distance_m) {
  const Leg* leg = &legs_[v->leg];
  double remaining = v->leg_offset_m + distance_m;
  while (remaining >= leg->length_m) {
    remaining -= leg->length_m;
    const LaneSpan& span = lanes_[v->lane];
    if (v->leg + 1 < span.first_leg + span.num_legs) {
      ++v->leg;
    } else {
      // Lane end: hop to an onward lane from the destination port (any
      // lane when the port is a sink).
      const size_t port = static_cast<size_t>(span.to_port);
      const uint32_t begin = port_offsets_[port];
      const uint32_t count = port_offsets_[port + 1] - begin;
      v->lane = count > 0
                    ? lanes_from_[begin + v->rng.UniformInt(count)]
                    : static_cast<uint32_t>(world_->RandomLane(&v->rng));
      v->leg = lanes_[v->lane].first_leg;
    }
    leg = &legs_[v->leg];
  }
  v->leg_offset_m = remaining;
}

void EventFleet::OnEvent(EventScheduler* scheduler, const Event& event) {
  VesselState& v = vessels_[static_cast<size_t>(event.arg)];
  const double dt_sec =
      static_cast<double>(event.at - v.last_update) / kMicrosPerSecond;
  v.last_update = event.at;

  // Ornstein-Uhlenbeck speed refresh at event granularity, applied over
  // the whole inter-transmission gap.
  const double theta = 0.02;
  const double dt_capped = std::min(dt_sec, 120.0);  // keep the pull stable
  v.speed_mps +=
      (theta * (v.cruise_mps - v.speed_mps) * dt_capped +
       0.15 * FastNoise(&v.rng) * std::sqrt(dt_capped)) *
      kKnotsToMps;
  v.speed_mps = std::clamp(v.speed_mps, 0.5 * kKnotsToMps, 40.0 * kKnotsToMps);

  Advance(&v, v.speed_mps * dt_sec);

  const Leg& leg = legs_[v.leg];
  AisPosition report;
  report.mmsi = config_.mmsi_base + static_cast<Mmsi>(event.arg);
  report.timestamp = event.at;
  const double pos_noise_m = config_.emission.position_noise_m;
  report.position.lat_deg = leg.lat0 + leg.dlat_per_m * v.leg_offset_m +
                            pos_noise_m * FastNoise(&v.rng) *
                                leg.noise_dlat_per_m;
  report.position.lon_deg = leg.lon0 + leg.dlon_per_m * v.leg_offset_m +
                            pos_noise_m * FastNoise(&v.rng) *
                                leg.noise_dlon_per_m;
  report.sog_knots =
      std::max(0.0, v.speed_mps / kKnotsToMps +
                        config_.emission.sog_noise_knots * FastNoise(&v.rng));
  report.cog_deg = leg.bearing_deg +
                   config_.emission.cog_noise_deg * FastNoise(&v.rng);
  if (report.cog_deg < 0.0) report.cog_deg += 360.0;
  if (report.cog_deg >= 360.0) report.cog_deg -= 360.0;
  report.heading_deg = static_cast<int>(report.cog_deg);
  report.nav_status = NavStatus::kUnderWayUsingEngine;
  ++emitted_;
  sink_(report);

  const double next_sec = config_.emission.SampleIntervalSec(&v.rng);
  scheduler->PostAt(
      event.at + static_cast<TimeMicros>(next_sec * kMicrosPerSecond),
      handler_id_, event.arg);

#if defined(__GNUC__) || defined(__clang__)
  // Overlap the next dispatch's state fetch with the tail of this one: at
  // 400K vessels the VesselState array is ~40 MB, so the next event's
  // vessel is almost never resident.
  Event next;
  if (scheduler->PeekNext(&next) && next.handler == handler_id_) {
    __builtin_prefetch(&vessels_[static_cast<size_t>(next.arg)]);
  }
#endif
}

AisStatic EventFleet::StaticInfo(int index) const {
  const VesselState& v = vessels_[static_cast<size_t>(index)];
  AisStatic info;
  info.mmsi = config_.mmsi_base + static_cast<Mmsi>(index);
  info.name = "SIM " + std::to_string(info.mmsi);
  info.type = v.type;
  info.destination =
      world_->ports()[static_cast<size_t>(lanes_[v.lane].to_port)].name;
  Rng rng(config_.seed ^ (0x9E3779B97F4A7C15ULL * info.mmsi));
  info.length_m = rng.Uniform(40.0, 320.0);
  info.beam_m = info.length_m * rng.Uniform(0.12, 0.18);
  info.draught_m = rng.Uniform(3.0, 16.0);
  info.dwt =
      info.length_m * info.beam_m * info.draught_m * rng.Uniform(0.4, 0.8);
  return info;
}

std::vector<AisPosition> RunFleet(const World& world,
                                  const EventFleetConfig& config,
                                  double seconds) {
  std::vector<AisPosition> reports;
  EventScheduler scheduler({config.seed, config.start_time});
  EventFleet fleet(&world, config, &scheduler,
                   [&reports](const AisPosition& report) {
                     reports.push_back(report);
                   });
  scheduler.RunUntil(config.start_time +
                     static_cast<TimeMicros>(seconds * kMicrosPerSecond));
  return reports;
}

std::map<Mmsi, std::vector<AisPosition>> RunFleetTracks(
    const World& world, const EventFleetConfig& config, double seconds) {
  std::map<Mmsi, std::vector<AisPosition>> tracks;
  for (const AisPosition& report : RunFleet(world, config, seconds)) {
    tracks[report.mmsi].push_back(report);
  }
  return tracks;
}

}  // namespace des
}  // namespace marlin
