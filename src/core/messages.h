#ifndef MARLIN_CORE_MESSAGES_H_
#define MARLIN_CORE_MESSAGES_H_

#include <vector>

#include "ais/types.h"
#include "events/event_types.h"
#include "vrf/route_forecaster.h"

namespace marlin {

/// Message payloads exchanged between pipeline actors. All are copyable
/// value types carried in std::any envelopes.

/// AIS position routed to a vessel actor (the core partitioning: one actor
/// per MMSI).
struct PositionMsg {
  AisPosition report;
  /// Ingest-side cost already spent on this message (actor lookup/spawn),
  /// folded into the per-message processing-time measurement so the
  /// init-phase actor-creation storm is visible in the Figure-6 curve.
  int64_t ingest_cost_nanos = 0;
};

/// Position observation forwarded by a vessel actor to its cell actor for
/// proximity event detection.
struct CellObservationMsg {
  AisPosition report;
};

/// Forecast trajectory forwarded to collision actors, the traffic-flow
/// actor, and the ports actor.
struct TrajectoryMsg {
  ForecastTrajectory trajectory;
};

/// Detected or forecast event, routed to the writer and back to the
/// affected vessel actors.
struct EventMsg {
  MaritimeEvent event;
};

/// Completed asynchronous forecast, Tell-ed back to the owning vessel actor
/// by the inference batcher's flushing thread. The actor finishes the
/// forecast fan-out (collision/traffic/ports/writer) when this lands.
struct ForecastResultMsg {
  bool ok = false;
  ForecastTrajectory trajectory;  // valid when ok
  /// This request's share of the batched network forward, in nanoseconds
  /// (batch cost / batch size) — the async path's contribution to the
  /// Figure-6 per-message processing cost.
  int64_t forecast_nanos = 0;
};

/// Vessel state published by a vessel actor to its writer: one per
/// position report, plus one when a batched forecast lands. Each state
/// carries only what changed since the vessel's previous one.
struct VesselStateMsg {
  /// The vessel's latest report. Its MMSI and timestamp key every state.
  AisPosition latest;
  /// True for the state sent on a position report: the writer publishes
  /// `latest`'s position, speed, course and time. False when only the
  /// forecast changed.
  bool has_position = true;
  /// True when `forecast` is new: each forecast rides along exactly once,
  /// in the first state after it replaced the vessel's previous one.
  bool has_forecast = false;
  ForecastTrajectory forecast;
};

// ---- Ask payloads (replies in parentheses) ----

/// Vessel actor: latest forecast (reply: TrajectoryMsg; empty reply if no
/// forecast has been produced yet).
struct GetForecastQuery {};

/// Vessel actor: events that involved this vessel (reply:
/// std::vector<MaritimeEvent>).
struct GetVesselEventsQuery {};

/// Writer actor: most recent events, newest first (reply:
/// std::vector<MaritimeEvent>).
struct GetRecentEventsQuery {
  int limit = 100;
};

/// Traffic actor: predicted flow raster for one horizon step (reply:
/// std::vector<FlowCell>).
struct GetTrafficFlowQuery {
  int step = 1;
};

/// Ports actor: current + forecast port traffic (reply:
/// std::vector<PortTrafficStatus>).
struct GetPortTrafficQuery {
  TimeMicros now = 0;
};

/// Traffic actor: busiest historical cells — the Patterns-of-Life view
/// (reply: std::vector<CellMobilityStats>).
struct GetPatternsQuery {
  int top_n = 20;
};

}  // namespace marlin

#endif  // MARLIN_CORE_MESSAGES_H_
