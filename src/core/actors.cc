#include "core/actors.h"

#include <cstdio>
#include <utility>

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/format.h"
#include "util/logging.h"
#include "vrf/inference_batcher.h"

namespace marlin {
namespace {

/// Routes an event to the writer and back to the two affected vessel
/// actors, per the state feedback loop of §3.
void PublishEvent(const MaritimeEvent& event, PipelineContext* pipeline,
                  ActorContext& ctx) {
  pipeline->events_detected.fetch_add(1, std::memory_order_relaxed);
  ctx.system().Tell(pipeline->WriterFor(event.vessel_a), EventMsg{event},
                    ctx.self());
  for (Mmsi mmsi : {event.vessel_a, event.vessel_b}) {
    if (mmsi == 0) continue;
    StatusOr<ActorRef> vessel = ctx.system().Find(VesselActorName(mmsi));
    if (vessel.ok()) {
      ctx.system().Tell(*vessel, EventMsg{event}, ctx.self());
    }
  }
}

/// Time of a forecast's present position (the end of its input window).
TimeMicros AnchorTime(const ForecastTrajectory& trajectory) {
  return trajectory.points.empty() ? 0 : trajectory.points.front().time;
}

/// `value` with `precision` decimals, as printf("%.*f") renders it.
std::string Fixed(double value, int precision) {
  std::string text;
  AppendFixed(&text, value, precision);
  return text;
}

}  // namespace

std::string VesselActorName(Mmsi mmsi) {
  return "vessel-" + std::to_string(mmsi);
}

std::string CellActorName(CellId cell) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "cell-%016llx",
                static_cast<unsigned long long>(cell));
  return buf;
}

std::string CollisionActorName(CellId cell) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "coll-%016llx",
                static_cast<unsigned long long>(cell));
  return buf;
}

// ------------------------------------------------------------ VesselActor

VesselActor::VesselActor(Mmsi mmsi, PipelineContext* pipeline)
    : mmsi_(mmsi), pipeline_(pipeline) {}

Status VesselActor::Receive(const std::any& message, ActorContext& ctx) {
  if (const auto* position = std::any_cast<PositionMsg>(&message)) {
    return HandlePosition(position->report, position->ingest_cost_nanos, ctx);
  }
  if (const auto* result = std::any_cast<ForecastResultMsg>(&message)) {
    return HandleForecastResult(*result, ctx);
  }
  if (const auto* event = std::any_cast<EventMsg>(&message)) {
    my_events_.push_back(event->event);
    while (my_events_.size() > 64) my_events_.pop_front();
    return Status::Ok();
  }
  if (std::any_cast<GetForecastQuery>(&message) != nullptr) {
    if (has_forecast_) {
      ctx.Reply(TrajectoryMsg{latest_forecast_});
    } else {
      ctx.Reply(std::any());
    }
    return Status::Ok();
  }
  if (std::any_cast<GetVesselEventsQuery>(&message) != nullptr) {
    ctx.Reply(std::vector<MaritimeEvent>(my_events_.begin(), my_events_.end()));
    return Status::Ok();
  }
  return Status::InvalidArgument("vessel actor: unexpected message type");
}

Status VesselActor::HandlePosition(const AisPosition& report,
                                   int64_t ingest_cost_nanos,
                                   ActorContext& ctx) {
  // The Figure-6 measurement: time to fully process one AIS message at the
  // actor level (history update, forecast, event routing), charged once to
  // the position-stage histogram.
  Stopwatch stopwatch;
  pipeline_->positions_ingested.fetch_add(1, std::memory_order_relaxed);

  const bool accepted = history_.Push(report);
  latest_report_ = report;

  // Route the raw observation to the proximity cell actor.
  const CellId cell = HexGrid::LatLngToCell(
      report.position, pipeline_->config->cell_actor_resolution);
  if (cell != kInvalidCellId) {
    StatusOr<ActorRef> cell_actor = ctx.system().GetOrSpawn(
        CellActorName(cell),
        [this] { return std::make_unique<CellActor>(pipeline_); });
    if (cell_actor.ok()) {
      ctx.system().Tell(*cell_actor, CellObservationMsg{report}, ctx.self());
    }
  }

  // Port occupancy monitoring.
  if (pipeline_->ports.valid()) {
    ctx.system().Tell(pipeline_->ports, CellObservationMsg{report},
                      ctx.self());
  }

  // Patterns-of-Life accumulation (historical mobility statistics).
  if (pipeline_->traffic.valid()) {
    ctx.system().Tell(pipeline_->traffic, CellObservationMsg{report},
                      ctx.self());
  }

  // AIS switch-off surveillance.
  if (pipeline_->surveillance.valid()) {
    ctx.system().Tell(pipeline_->surveillance, CellObservationMsg{report},
                      ctx.self());
  }

  // Generate a forecast once a full input window is available. Preferred
  // path: submit to the shared inference batcher, which coalesces requests
  // from many vessel actors into one column-batched network forward and
  // Tells a ForecastResultMsg back; the fan-out then happens in
  // HandleForecastResult. Falls back to the inline forecast when batching
  // is off or the batcher applies backpressure.
  bool submitted = false;
  if (accepted && history_.Ready()) {
    const SvrfInput input = history_.MakeInput();
    InferenceBatcher* batcher = pipeline_->batcher;
    if (batcher != nullptr) {
      if (!self_ref_.valid()) {
        StatusOr<ActorRef> self = ctx.system().Find(VesselActorName(mmsi_));
        if (self.ok()) self_ref_ = *self;
      }
      if (self_ref_.valid()) {
        // The callback runs on whichever thread flushes the batch; Tell is
        // thread-safe and re-enters this actor through its mailbox, so no
        // actor state is touched off-thread.
        ActorSystem* system = &ctx.system();
        submitted =
            batcher
                ->Submit(input,
                         [system, self = self_ref_](
                             StatusOr<ForecastTrajectory> result,
                             int64_t per_item_nanos) {
                           ForecastResultMsg msg;
                           msg.ok = result.ok();
                           if (result.ok()) {
                             msg.trajectory = std::move(*result);
                           }
                           msg.forecast_nanos = per_item_nanos;
                           system->Tell(self, std::move(msg));
                         })
                .ok();
      }
    }
    if (!submitted) {
      obs::ScopedTimer forecast_timer(pipeline_->stage_forecast);
      StatusOr<ForecastTrajectory> forecast =
          pipeline_->forecaster->Forecast(input);
      if (forecast.ok()) {
        forecast->mmsi = mmsi_;
        latest_forecast_ = std::move(*forecast);
        has_forecast_ = true;
        forecast_unpublished_ = true;
        pipeline_->forecasts_generated.fetch_add(1, std::memory_order_relaxed);
        PublishForecast(latest_forecast_, ctx);
      }
    }
  }

  PublishState(/*with_position=*/true, ctx);

  const int64_t total_nanos = stopwatch.ElapsedNanos() + ingest_cost_nanos;
  if (submitted) {
    // Charge this message's cost once, when its forecast lands: stash the
    // sync share for HandleForecastResult to combine with the batched
    // share. Bounded defensively; entries only leak if a callback is lost.
    pending_sync_nanos_.push_back(total_nanos);
    while (pending_sync_nanos_.size() > 64) pending_sync_nanos_.pop_front();
  } else if (pipeline_->stage_position != nullptr) {
    pipeline_->stage_position->Observe(total_nanos);
  }
  return Status::Ok();
}

Status VesselActor::HandleForecastResult(const ForecastResultMsg& result,
                                         ActorContext& ctx) {
  Stopwatch stopwatch;
  int64_t sync_nanos = 0;
  if (!pending_sync_nanos_.empty()) {
    sync_nanos = pending_sync_nanos_.front();
    pending_sync_nanos_.pop_front();
  }
  if (pipeline_->stage_forecast != nullptr) {
    pipeline_->stage_forecast->Observe(result.forecast_nanos);
  }
  if (result.ok) {
    pipeline_->forecasts_generated.fetch_add(1, std::memory_order_relaxed);
    // Batches complete in submission order, but a refused Submit makes the
    // actor forecast a later window inline and apply it at once; the
    // earlier window's queued result then lands afterwards. It still
    // counts as generated, but must not replace the newer forecast.
    if (!has_forecast_ || AnchorTime(result.trajectory) >=
                              AnchorTime(latest_forecast_)) {
      latest_forecast_ = result.trajectory;
      latest_forecast_.mmsi = mmsi_;
      has_forecast_ = true;
      forecast_unpublished_ = true;
      PublishForecast(latest_forecast_, ctx);
      // The writer already holds the latest position; send the forecast.
      PublishState(/*with_position=*/false, ctx);
    }
  }
  // Complete the Figure-6 measurement for the originating message: its
  // synchronous share, its slice of the batched forward, and this fan-out.
  const int64_t total_nanos =
      sync_nanos + result.forecast_nanos + stopwatch.ElapsedNanos();
  if (pipeline_->stage_position != nullptr) {
    pipeline_->stage_position->Observe(total_nanos);
  }
  return Status::Ok();
}

void VesselActor::PublishForecast(const ForecastTrajectory& trajectory,
                                  ActorContext& ctx) {
  // Collision actor of the anchor's coarse region.
  const CellId region = HexGrid::LatLngToCell(
      latest_report_.position, pipeline_->config->collision_actor_resolution);
  if (region != kInvalidCellId) {
    StatusOr<ActorRef> collision_actor = ctx.system().GetOrSpawn(
        CollisionActorName(region),
        [this] { return std::make_unique<CollisionActor>(pipeline_); });
    if (collision_actor.ok()) {
      ctx.system().Tell(*collision_actor, TrajectoryMsg{trajectory},
                        ctx.self());
    }
  }
  // Traffic raster.
  if (pipeline_->traffic.valid()) {
    ctx.system().Tell(pipeline_->traffic, TrajectoryMsg{trajectory},
                      ctx.self());
  }
  // Predicted port arrivals.
  if (pipeline_->ports.valid()) {
    ctx.system().Tell(pipeline_->ports, TrajectoryMsg{trajectory}, ctx.self());
  }
}

void VesselActor::PublishState(bool with_position, ActorContext& ctx) {
  VesselStateMsg state;
  state.latest = latest_report_;
  state.has_position = with_position;
  state.has_forecast = forecast_unpublished_;
  if (forecast_unpublished_) state.forecast = latest_forecast_;
  forecast_unpublished_ = false;
  ctx.system().Tell(pipeline_->WriterFor(mmsi_), std::move(state), ctx.self());
}

void VesselActor::OnRestart(const Status& failure) {
  (void)failure;
  history_.Clear();
}

// -------------------------------------------------------------- CellActor

CellActor::CellActor(PipelineContext* pipeline)
    : pipeline_(pipeline), detector_(pipeline->config->proximity) {}

Status CellActor::Receive(const std::any& message, ActorContext& ctx) {
  if (const auto* observation = std::any_cast<CellObservationMsg>(&message)) {
    for (const MaritimeEvent& event : detector_.Observe(observation->report)) {
      PublishEvent(event, pipeline_, ctx);
    }
    // Self-prune on stream time so long-running cells do not accumulate
    // unbounded observation history.
    if (++observations_since_prune_ >= 64) {
      observations_since_prune_ = 0;
      detector_.Prune(observation->report.timestamp);
    }
    return Status::Ok();
  }
  return Status::InvalidArgument("cell actor: unexpected message type");
}

// --------------------------------------------------------- CollisionActor

CollisionActor::CollisionActor(PipelineContext* pipeline)
    : pipeline_(pipeline), forecaster_(pipeline->config->collision) {}

Status CollisionActor::Receive(const std::any& message, ActorContext& ctx) {
  if (const auto* trajectory = std::any_cast<TrajectoryMsg>(&message)) {
    for (const MaritimeEvent& event :
         forecaster_.Observe(trajectory->trajectory)) {
      PublishEvent(event, pipeline_, ctx);
    }
    if (++observations_since_prune_ >= 64 &&
        !trajectory->trajectory.points.empty()) {
      observations_since_prune_ = 0;
      forecaster_.Prune(trajectory->trajectory.points.front().time);
    }
    return Status::Ok();
  }
  return Status::InvalidArgument("collision actor: unexpected message type");
}

// ----------------------------------------------------------- TrafficActor

TrafficActor::TrafficActor(PipelineContext* pipeline)
    : pipeline_(pipeline),
      forecaster_(pipeline->config->traffic),
      patterns_(pipeline->config->traffic.resolution) {}

Status TrafficActor::Receive(const std::any& message, ActorContext& ctx) {
  if (const auto* observation = std::any_cast<CellObservationMsg>(&message)) {
    patterns_.AddObservation(observation->report);
    return Status::Ok();
  }
  if (const auto* query = std::any_cast<GetPatternsQuery>(&message)) {
    ctx.Reply(patterns_.TopCells(query->top_n));
    return Status::Ok();
  }
  if (const auto* trajectory = std::any_cast<TrajectoryMsg>(&message)) {
    forecaster_.Observe(trajectory->trajectory);
    if (++observations_since_prune_ >= 1024 &&
        !trajectory->trajectory.points.empty()) {
      observations_since_prune_ = 0;
      forecaster_.Prune(trajectory->trajectory.points.front().time);
    }
    return Status::Ok();
  }
  if (const auto* query = std::any_cast<GetTrafficFlowQuery>(&message)) {
    ctx.Reply(forecaster_.Flow(query->step));
    return Status::Ok();
  }
  return Status::InvalidArgument("traffic actor: unexpected message type");
}

// ------------------------------------------------------- SurveillanceActor

SurveillanceActor::SurveillanceActor(PipelineContext* pipeline)
    : pipeline_(pipeline), detector_(pipeline->config->switch_off) {}

Status SurveillanceActor::Receive(const std::any& message,
                                  ActorContext& ctx) {
  if (const auto* observation = std::any_cast<CellObservationMsg>(&message)) {
    detector_.Observe(observation->report);
    latest_time_ = std::max(latest_time_, observation->report.timestamp);
    // Scan for silent vessels periodically in stream time.
    if (++observations_since_check_ >= 256) {
      observations_since_check_ = 0;
      for (const MaritimeEvent& event : detector_.Check(latest_time_)) {
        PublishEvent(event, pipeline_, ctx);
      }
    }
    return Status::Ok();
  }
  return Status::InvalidArgument("surveillance actor: unexpected message");
}

// ------------------------------------------------------------- PortsActor

PortsActor::PortsActor(PipelineContext* pipeline)
    : pipeline_(pipeline),
      monitor_(pipeline->config->monitored_ports,
               pipeline->config->port_monitor) {}

Status PortsActor::Receive(const std::any& message, ActorContext& ctx) {
  if (const auto* observation = std::any_cast<CellObservationMsg>(&message)) {
    monitor_.ObservePosition(observation->report);
    latest_time_ = std::max(latest_time_, observation->report.timestamp);
    return Status::Ok();
  }
  if (const auto* trajectory = std::any_cast<TrajectoryMsg>(&message)) {
    monitor_.ObserveForecast(trajectory->trajectory);
    if (!trajectory->trajectory.points.empty()) {
      latest_time_ = std::max(latest_time_,
                              trajectory->trajectory.points.front().time);
    }
    return Status::Ok();
  }
  if (const auto* query = std::any_cast<GetPortTrafficQuery>(&message)) {
    ctx.Reply(monitor_.Status(query->now > 0 ? query->now : latest_time_));
    return Status::Ok();
  }
  return Status::InvalidArgument("ports actor: unexpected message type");
}

// ------------------------------------------------------------ WriterActor

WriterActor::WriterActor(PipelineContext* pipeline, int shard)
    : pipeline_(pipeline), shard_(shard) {}

Status WriterActor::Receive(const std::any& message, ActorContext& ctx) {
  if (const auto* state = std::any_cast<VesselStateMsg>(&message)) {
    WriteVesselState(*state);
    return Status::Ok();
  }
  if (const auto* event = std::any_cast<EventMsg>(&message)) {
    recent_events_.push_back(event->event);
    while (recent_events_.size() > 1024) recent_events_.pop_front();
    WriteEvent(event->event);
    return Status::Ok();
  }
  if (const auto* query = std::any_cast<GetRecentEventsQuery>(&message)) {
    std::vector<MaritimeEvent> out;
    const int limit = query->limit;
    for (auto it = recent_events_.rbegin();
         it != recent_events_.rend() && static_cast<int>(out.size()) < limit;
         ++it) {
      out.push_back(*it);
    }
    ctx.Reply(std::move(out));
    return Status::Ok();
  }
  return Status::InvalidArgument("writer actor: unexpected message type");
}

void WriterActor::WriteVesselState(const VesselStateMsg& state) {
  obs::ScopedTimer write_timer(pipeline_->stage_write);
  const std::string mmsi = std::to_string(state.latest.mmsi);
  const std::string key = "vessel:" + mmsi;
  KvStore* store = pipeline_->store;
  if (state.has_position) {
    (void)store->HSet(key, "lat", Fixed(state.latest.position.lat_deg, 6));
    (void)store->HSet(key, "lon", Fixed(state.latest.position.lon_deg, 6));
    (void)store->HSet(key, "sog", Fixed(state.latest.sog_knots, 1));
    (void)store->HSet(key, "cog", Fixed(state.latest.cog_deg, 1));
    (void)store->HSet(key, "ts", std::to_string(state.latest.timestamp));
    // Static-data fusion (§3): enrich the published state with the cached
    // registry record.
    if (pipeline_->registry != nullptr) {
      if (const AisStatic* info =
              pipeline_->registry->Find(state.latest.mmsi)) {
        (void)store->HSet(key, "name", info->name);
        (void)store->HSet(key, "type",
                          std::string(VesselTypeName(info->type)));
      }
    }
  }
  if (state.has_forecast) {
    std::string forecast;  // "lat,lon,t;" per point
    for (const ForecastPoint& point : state.forecast.points) {
      AppendFixed(&forecast, point.position.lat_deg, 6);
      forecast += ',';
      AppendFixed(&forecast, point.position.lon_deg, 6);
      forecast += ',';
      AppendInt(&forecast, point.time);
      forecast += ';';
    }
    // Dedicated forecast output stream (§7), keyed by MMSI: the MMSI, then
    // ";lat,lon,t" per point.
    if (pipeline_->config->publish_output_topics) {
      std::string record = mmsi;
      if (!forecast.empty()) {
        record += ';';
        record.append(forecast, 0, forecast.size() - 1);
      }
      (void)pipeline_->broker->Append(pipeline_->config->forecasts_topic, mmsi,
                                      std::move(record),
                                      state.latest.timestamp);
    }
    (void)store->HSet(key, "forecast", std::move(forecast));
  }
}

void WriterActor::WriteEvent(const MaritimeEvent& event) {
  obs::ScopedTimer write_timer(pipeline_->stage_write);
  const std::string key = "event:" + std::to_string(shard_) + ":" +
                          std::to_string(event_seq_++);
  KvStore* store = pipeline_->store;
  const std::string type(EventTypeName(event.type));
  std::string location = Fixed(event.location.lat_deg, 6);
  location += ',';
  AppendFixed(&location, event.location.lon_deg, 6);
  std::string distance = Fixed(event.distance_m, 1);
  // Dedicated event output stream (§7), keyed by the primary vessel:
  // type,vessel_a,vessel_b,time,lat,lon,distance_m.
  if (pipeline_->config->publish_output_topics) {
    std::string record = type + ',' + std::to_string(event.vessel_a) + ',' +
                         std::to_string(event.vessel_b) + ',' +
                         std::to_string(event.event_time) + ',' + location +
                         ',' + distance;
    (void)pipeline_->broker->Append(pipeline_->config->events_topic,
                                    std::to_string(event.vessel_a),
                                    std::move(record), event.detected_at);
  }
  (void)store->HSet(key, "type", type);
  (void)store->HSet(key, "vessel_a", std::to_string(event.vessel_a));
  (void)store->HSet(key, "vessel_b", std::to_string(event.vessel_b));
  (void)store->HSet(key, "time", std::to_string(event.event_time));
  (void)store->HSet(key, "location", std::move(location));
  (void)store->HSet(key, "distance_m", std::move(distance));
}

}  // namespace marlin
