#ifndef MARLIN_SIM_DES_EVENT_FLEET_H_
#define MARLIN_SIM_DES_EVENT_FLEET_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "ais/types.h"
#include "geo/world.h"
#include "sim/des/scheduler.h"
#include "sim/vessel.h"
#include "util/clock.h"
#include "util/rng.h"

namespace marlin {
namespace des {

/// Configuration of the synthetic AIS fleet.
struct EventFleetConfig {
  int num_vessels = 100000;
  /// Base of MMSI assignment (vessel i gets mmsi_base + i).
  Mmsi mmsi_base = 237000000;
  uint64_t seed = 1;
  /// Stream start time.
  TimeMicros start_time = TimeMicros{1635811200} * kMicrosPerSecond;  // 2021-11-02
  /// Per-vessel AIS emission mixture (defaults reproduce §6.1's received
  /// stream statistics).
  EmissionModel emission;
  /// Vessels enter over this span with front-loaded (exponential) arrival
  /// times, 0 = all present from the start. A live feed surfaces most of
  /// the active fleet within the first minutes of a connection and
  /// stragglers trickle in — the "massive introduction of new actors" of
  /// the paper's initialisation phase (§6.3).
  double arrival_span_sec = 0.0;
};

/// Marlin's synthetic substitute for the MarineTraffic global feed
/// (DESIGN.md §1): vessels following shipping lanes with stochastic speed,
/// transmitting on the irregular AIS emission model. Built as a
/// discrete-event component so that it reaches the paper's headline regime
/// (72 h, 400K vessels, ~10^9 messages/day — PAPER.md §1).
///
/// EventFleet holds exactly one pending event per vessel in the scheduler's
/// global queue: its next AIS transmission. Work is proportional to the
/// number of *messages*, not to vessels × time.
///
/// To keep the per-event cost flat (~hundreds of ns), lane geometry is
/// precompiled into a leg cache: each lane leg stores its origin, unit
/// lat/lon slopes per meter, bearing, and length, so advancing a vessel is
/// pure arithmetic — trigonometry happens once per leg at construction, not
/// per event. Between its (irregular, mean ~78.6 s) transmissions a vessel
/// moves at a speed held constant since its last event and refreshed by an
/// Ornstein-Uhlenbeck pull towards its cruise speed, so tracks keep
/// realistic speed texture; at a lane's end it continues on a lane leaving
/// the destination port.
class EventFleet : public EventHandler {
 public:
  /// Called for every emitted report, in global virtual-time order.
  using Sink = std::function<void(const AisPosition&)>;

  /// Registers the fleet with `scheduler` and posts every vessel's first
  /// transmission. The scheduler, world, and sink must outlive the fleet.
  EventFleet(const World* world, const EventFleetConfig& config,
             EventScheduler* scheduler, Sink sink);

  /// Dispatch of one vessel transmission (event.arg = vessel index):
  /// advance the vessel to event.at, emit the report, re-arm the next one.
  void OnEvent(EventScheduler* scheduler, const Event& event) override;

  /// Static and voyage data of vessel `index` (0 <= index < num_vessels):
  /// the type its cruise speed was drawn for, the current lane's
  /// destination, and dimensions drawn from a (seed, MMSI)-seeded Rng, so
  /// asking never changes the emitted stream.
  AisStatic StaticInfo(int index) const;

  int64_t emitted() const { return emitted_; }
  int num_vessels() const { return static_cast<int>(vessels_.size()); }

 private:
  /// One precompiled lane leg: position is origin + slope × meters.
  struct Leg {
    double lat0 = 0.0;
    double lon0 = 0.0;
    double dlat_per_m = 0.0;
    double dlon_per_m = 0.0;
    double length_m = 0.0;
    /// Constant course along the leg and the local meters→degrees noise
    /// scale, cached so emission needs no trig.
    double bearing_deg = 0.0;
    double noise_dlat_per_m = 0.0;
    double noise_dlon_per_m = 0.0;
  };
  struct LaneSpan {
    uint32_t first_leg = 0;
    uint32_t num_legs = 0;
    int to_port = 0;
  };
  struct VesselState {
    Rng rng;
    uint32_t lane = 0;
    uint32_t leg = 0;  // index into legs_, within the lane's span
    VesselType type = VesselType::kUnknown;
    double leg_offset_m = 0.0;
    double speed_mps = 6.0;
    double cruise_mps = 6.0;
    TimeMicros last_update = 0;
  };

  void BuildLegCache();
  /// Moves `v` forward `distance_m` along its lane, hopping legs and lanes.
  void Advance(VesselState* v, double distance_m);

  const World* world_;
  const EventFleetConfig config_;
  Sink sink_;
  uint32_t handler_id_ = 0;

  std::vector<Leg> legs_;
  std::vector<LaneSpan> lanes_;
  /// Flat LanesFrom adjacency: lanes_from_[port_offsets_[p] ..
  /// port_offsets_[p+1]) are the lane indices leaving port p.
  std::vector<uint32_t> lanes_from_;
  std::vector<uint32_t> port_offsets_;

  std::vector<VesselState> vessels_;
  int64_t emitted_ = 0;
};

/// Runs a fresh fleet on its own scheduler (seeded with `config.seed`,
/// starting at `config.start_time`) for `seconds` of virtual time and
/// returns every report in emission order.
std::vector<AisPosition> RunFleet(const World& world,
                                  const EventFleetConfig& config,
                                  double seconds);

/// RunFleet's reports as per-vessel time-ordered tracks: the
/// historical-dataset shape used for training and evaluation.
std::map<Mmsi, std::vector<AisPosition>> RunFleetTracks(
    const World& world, const EventFleetConfig& config, double seconds);

}  // namespace des
}  // namespace marlin

#endif  // MARLIN_SIM_DES_EVENT_FLEET_H_
