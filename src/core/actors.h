#ifndef MARLIN_CORE_ACTORS_H_
#define MARLIN_CORE_ACTORS_H_

#include <deque>
#include <string>
#include <vector>

#include "actor/actor.h"
#include "ais/preprocess.h"
#include "core/messages.h"
#include "core/pipeline.h"
#include "events/collision.h"
#include "events/proximity.h"
#include "events/switch_off.h"
#include "events/traffic_flow.h"
#include "hexgrid/hexgrid.h"
#include "vrf/patterns_of_life.h"

namespace marlin {

/// Actor-name helpers shared by the pipeline and its actors.
std::string VesselActorName(Mmsi mmsi);
std::string CellActorName(CellId cell);
std::string CollisionActorName(CellId cell);

/// Per-vessel actor (§3: "multiple actors N, each one corresponding to a
/// specific vessel as defined by its MMSI"). Maintains the vessel's
/// downsampled history window, runs the shared S-VRF model on each accepted
/// position, and fans results out to the cell actor (proximity), the
/// collision actor of its region, the traffic actor, and the writer.
class VesselActor : public Actor {
 public:
  VesselActor(Mmsi mmsi, PipelineContext* pipeline);

  Status Receive(const std::any& message, ActorContext& ctx) override;
  void OnRestart(const Status& failure) override;

 private:
  Status HandlePosition(const AisPosition& report, int64_t ingest_cost_nanos,
                        ActorContext& ctx);
  /// Completes an asynchronously batched forecast: stores it, fans it out
  /// to the collision/traffic/ports/writer actors, and records the
  /// per-message processing cost (stashed sync share + batched share).
  Status HandleForecastResult(const ForecastResultMsg& result,
                              ActorContext& ctx);
  /// Forecast fan-out shared by the inline and batched paths.
  void PublishForecast(const ForecastTrajectory& trajectory, ActorContext& ctx);
  /// Sends the writer a VesselStateMsg for `latest_report_`. It carries the
  /// position when `with_position`, and the forecast while it is
  /// unpublished.
  void PublishState(bool with_position, ActorContext& ctx);

  Mmsi mmsi_;
  PipelineContext* pipeline_;
  VesselHistory history_;
  bool has_forecast_ = false;
  /// Set whenever `latest_forecast_` changes, cleared once a state has
  /// carried it to the writer.
  bool forecast_unpublished_ = false;
  ForecastTrajectory latest_forecast_;
  AisPosition latest_report_;
  std::deque<MaritimeEvent> my_events_;  // events affecting this vessel
  /// Self-handle captured into batcher callbacks (resolved lazily).
  ActorRef self_ref_;
  /// Sync-side nanos of positions whose forecast is still in the batcher,
  /// oldest first; results pop from the front (actor isolation — the deque
  /// is only touched from this actor's Receive).
  std::deque<int64_t> pending_sync_nanos_;
};

/// Per-cell actor for proximity event detection (§3: "a class for proximity
/// event detection with variable size M"). Owns the detector shard of one
/// grid cell's neighbourhood.
class CellActor : public Actor {
 public:
  explicit CellActor(PipelineContext* pipeline);

  Status Receive(const std::any& message, ActorContext& ctx) override;

 private:
  PipelineContext* pipeline_;
  ProximityDetector detector_;
  int observations_since_prune_ = 0;
};

/// Per-region actor for collision forecasting (§3: "a class for collision
/// forecasting with variable size K"). Owns the collision forecaster of one
/// coarse grid region; forecast trajectories are routed here by the region
/// cell of their anchor.
class CollisionActor : public Actor {
 public:
  explicit CollisionActor(PipelineContext* pipeline);

  Status Receive(const std::any& message, ActorContext& ctx) override;

 private:
  PipelineContext* pipeline_;
  CollisionForecaster forecaster_;
  int observations_since_prune_ = 0;
};

/// Singleton aggregation actor for indirect vessel traffic flow
/// forecasting (§5.1): rasterises every forecast trajectory into the
/// (cell × 5-minute-window) grid. Also accumulates the historical
/// "Patterns of Life" mobility statistics (§4.1) from the raw positions it
/// observes.
class TrafficActor : public Actor {
 public:
  explicit TrafficActor(PipelineContext* pipeline);

  Status Receive(const std::any& message, ActorContext& ctx) override;

 private:
  PipelineContext* pipeline_;
  TrafficFlowForecaster forecaster_;
  PatternsOfLife patterns_;
  int observations_since_prune_ = 0;
};

/// Singleton actor hosting the AIS switch-off detector (§5: "the switch-off
/// of the AIS transmitter on a vessel" is one of the platform's detected
/// composite events [9]). Consumes every position to maintain per-vessel
/// cadence baselines and periodically scans for silent vessels in stream
/// time.
class SurveillanceActor : public Actor {
 public:
  explicit SurveillanceActor(PipelineContext* pipeline);

  Status Receive(const std::any& message, ActorContext& ctx) override;

 private:
  PipelineContext* pipeline_;
  SwitchOffDetector detector_;
  TimeMicros latest_time_ = 0;
  int observations_since_check_ = 0;
};

/// Singleton actor hosting the berth/port congestion monitor (§7 future
/// work, implemented): consumes raw positions (occupancy) and forecast
/// trajectories (inbound arrivals) and answers port-traffic queries.
class PortsActor : public Actor {
 public:
  explicit PortsActor(PipelineContext* pipeline);

  Status Receive(const std::any& message, ActorContext& ctx) override;

 private:
  PipelineContext* pipeline_;
  PortCongestionMonitor monitor_;
  TimeMicros latest_time_ = 0;
};

/// Writer actor (§3): the single sink publishing actor states and events
/// into the KvStore for the middleware/UI, and answering recent-event
/// queries. A `vessel:<mmsi>` hash holds `lat`/`lon` (6 decimals),
/// `sog`/`cog` (1 decimal) and `ts` from the latest position state, the
/// registry's `name`/`type`, and `forecast` ("lat,lon,t;" per point) from
/// the latest forecast.
class WriterActor : public Actor {
 public:
  /// `shard` distinguishes this writer's event keys when several writer
  /// actors run concurrently (§3).
  explicit WriterActor(PipelineContext* pipeline, int shard = 0);

  Status Receive(const std::any& message, ActorContext& ctx) override;

 private:
  void WriteVesselState(const VesselStateMsg& state);
  void WriteEvent(const MaritimeEvent& event);

  PipelineContext* pipeline_;
  int shard_;
  std::deque<MaritimeEvent> recent_events_;
  int64_t event_seq_ = 0;
};

}  // namespace marlin

#endif  // MARLIN_CORE_ACTORS_H_
