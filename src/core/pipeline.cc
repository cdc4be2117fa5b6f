#include "core/pipeline.h"

#include <thread>

#include "ais/codec.h"
#include "core/actors.h"
#include "util/logging.h"
#include "vrf/inference_batcher.h"

namespace marlin {

MaritimePipeline::MaritimePipeline(
    std::shared_ptr<const RouteForecaster> forecaster,
    const PipelineConfig& config)
    : config_(config),
      forecaster_(std::move(forecaster)),
      metrics_(obs::MetricsRegistry::OrGlobal(config.metrics)),
      store_(nullptr, 16, metrics_),
      broker_(metrics_) {
  MARLIN_CHECK(forecaster_ != nullptr);
  if (config_.actor_system.metrics == nullptr) {
    config_.actor_system.metrics = metrics_;
  }
}

MaritimePipeline::~MaritimePipeline() { Stop(); }

Status MaritimePipeline::Start() {
  if (started_) return Status::FailedPrecondition("pipeline already started");
  started_ = true;
  system_ = std::make_unique<ActorSystem>(config_.actor_system);
  context_ = std::make_unique<PipelineContext>();
  context_->config = &config_;
  context_->forecaster = forecaster_.get();
  context_->registry = registry_;
  context_->store = &store_;
  context_->broker = &broker_;
  context_->system = system_.get();
  if (config_.batched_inference) {
    InferenceBatcher::Options batcher_options;
    batcher_options.max_batch = std::max(1, config_.inference_batch_size);
    batcher_options.flush_deadline_micros = config_.inference_flush_micros;
    // A serving thread under a cooperative dispatcher would Tell results
    // from outside the seeded schedule.
    const Dispatcher* dispatcher = config_.actor_system.dispatcher.get();
    batcher_options.background_flusher =
        dispatcher == nullptr || !dispatcher->cooperative();
    batcher_options.metrics = metrics_;
    batcher_ =
        std::make_unique<InferenceBatcher>(forecaster_.get(), batcher_options);
    context_->batcher = batcher_.get();
  }
  const std::string stage_name = "marlin_pipeline_stage_nanos";
  const std::string stage_help = "Per-stage pipeline latency in nanoseconds";
  context_->stage_ingest =
      metrics_->GetHistogram(stage_name, stage_help, {{"stage", "ingest"}});
  context_->stage_position =
      metrics_->GetHistogram(stage_name, stage_help, {{"stage", "position"}});
  context_->stage_forecast =
      metrics_->GetHistogram(stage_name, stage_help, {{"stage", "forecast"}});
  context_->stage_write =
      metrics_->GetHistogram(stage_name, stage_help, {{"stage", "write"}});

  const int writers = std::max(1, config_.num_writer_actors);
  for (int i = 0; i < writers; ++i) {
    MARLIN_ASSIGN_OR_RETURN(
        ActorRef writer,
        system_->SpawnActor<WriterActor>("writer-" + std::to_string(i),
                                         context_.get(), i));
    context_->writers.push_back(writer);
  }
  MARLIN_ASSIGN_OR_RETURN(
      context_->traffic,
      system_->SpawnActor<TrafficActor>("traffic", context_.get()));
  if (!config_.monitored_ports.empty()) {
    MARLIN_ASSIGN_OR_RETURN(
        context_->ports,
        system_->SpawnActor<PortsActor>("ports", context_.get()));
  }
  MARLIN_ASSIGN_OR_RETURN(
      context_->surveillance,
      system_->SpawnActor<SurveillanceActor>("surveillance", context_.get()));
  MARLIN_RETURN_IF_ERROR(
      broker_.CreateTopic(config_.topic, config_.topic_partitions));
  if (config_.publish_output_topics) {
    MARLIN_RETURN_IF_ERROR(
        broker_.CreateTopic(config_.events_topic, config_.topic_partitions));
    MARLIN_RETURN_IF_ERROR(broker_.CreateTopic(config_.forecasts_topic,
                                               config_.topic_partitions));
  }
  consumer_ = std::make_unique<Consumer>(&broker_, config_.consumer_group,
                                         config_.topic);
  return Status::Ok();
}

void MaritimePipeline::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // Stop the batcher first: its final flush still Tells results into the
  // live actor system; afterwards no non-actor thread touches the system.
  if (batcher_ != nullptr) batcher_->Stop();
  system_->Shutdown();
}

Status MaritimePipeline::Ingest(const AisPosition& report) {
  if (!started_ || stopped_) {
    return Status::FailedPrecondition("pipeline not running");
  }
  obs::ScopedTimer ingest_timer(context_->stage_ingest);
  Stopwatch spawn_watch;
  StatusOr<ActorRef> actor = system_->GetOrSpawn(
      marlin::VesselActorName(report.mmsi), [this, &report] {
        return std::make_unique<VesselActor>(report.mmsi, context_.get());
      });
  MARLIN_RETURN_IF_ERROR(actor.status());
  PositionMsg message{report, spawn_watch.ElapsedNanos()};
  system_->Tell(*actor, std::move(message));
  return Status::Ok();
}

Status MaritimePipeline::Produce(const std::string& aivdm_sentence,
                                 TimeMicros received_at) {
  if (!started_ || stopped_) {
    return Status::FailedPrecondition("pipeline not running");
  }
  // Validate & extract the MMSI for keying (vessel messages stay ordered
  // within one partition).
  MARLIN_ASSIGN_OR_RETURN(AisPosition decoded,
                          AisCodec::DecodePosition(aivdm_sentence, received_at));
  return broker_
      .Append(config_.topic, std::to_string(decoded.mmsi), aivdm_sentence,
              received_at)
      .status();
}

int MaritimePipeline::PumpIngestion(int max_records) {
  if (!started_ || stopped_ || consumer_ == nullptr) return 0;
  const std::vector<Record> batch = consumer_->Poll(max_records);
  int ingested = 0;
  for (const Record& record : batch) {
    StatusOr<AisPosition> decoded =
        AisCodec::DecodePosition(record.value, record.timestamp);
    if (!decoded.ok()) {
      MARLIN_LOG(WARNING) << "dropping undecodable record: "
                          << decoded.status().ToString();
      continue;
    }
    if (Ingest(*decoded).ok()) ++ingested;
  }
  consumer_->Commit();
  return ingested;
}

void MaritimePipeline::AwaitQuiescence() {
  if (system_ == nullptr) return;
  // Actors and the batcher feed each other: draining the mailboxes can
  // enqueue forecast requests, and flushing those requests Tells results
  // back into the mailboxes. Alternate until both are quiet. Once the
  // system is quiescent no actor can submit, so a batcher that is also
  // quiescent ends the loop — unless the serving thread delivered a result
  // after the actor quiesce had already returned, which then has to be
  // drained by another one.
  for (;;) {
    const uint64_t delivered =
        batcher_ == nullptr ? 0 : batcher_->Delivered();
    system_->AwaitQuiescence();
    if (batcher_ == nullptr) return;
    if (batcher_->Flush() == 0 && batcher_->Quiescent() &&
        batcher_->Delivered() == delivered) {
      return;
    }
    // The serving thread may still own a batch; let it finish delivering
    // before re-checking.
    std::this_thread::yield();
  }
}

StatusOr<ForecastTrajectory> MaritimePipeline::LatestForecast(Mmsi mmsi) {
  MARLIN_ASSIGN_OR_RETURN(ActorRef vessel,
                          system_->Find(marlin::VesselActorName(mmsi)));
  std::future<std::any> reply = system_->Ask(vessel, GetForecastQuery{});
  const std::any value = reply.get();
  if (const auto* trajectory = std::any_cast<TrajectoryMsg>(&value)) {
    return trajectory->trajectory;
  }
  return Status::NotFound("vessel has no forecast yet");
}

StatusOr<std::vector<MaritimeEvent>> MaritimePipeline::VesselEvents(Mmsi mmsi) {
  MARLIN_ASSIGN_OR_RETURN(ActorRef vessel,
                          system_->Find(marlin::VesselActorName(mmsi)));
  std::future<std::any> reply = system_->Ask(vessel, GetVesselEventsQuery{});
  const std::any value = reply.get();
  if (const auto* events = std::any_cast<std::vector<MaritimeEvent>>(&value)) {
    return *events;
  }
  return Status::Internal("unexpected reply type");
}

std::vector<MaritimeEvent> MaritimePipeline::RecentEvents(int limit) {
  // Gather from every writer shard, then merge newest-first.
  std::vector<MaritimeEvent> merged;
  for (const ActorRef& writer : context_->writers) {
    if (!writer.valid()) continue;
    std::future<std::any> reply =
        system_->Ask(writer, GetRecentEventsQuery{limit});
    const std::any value = reply.get();
    if (const auto* events =
            std::any_cast<std::vector<MaritimeEvent>>(&value)) {
      merged.insert(merged.end(), events->begin(), events->end());
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const MaritimeEvent& a, const MaritimeEvent& b) {
              return a.detected_at > b.detected_at;
            });
  if (static_cast<int>(merged.size()) > limit) {
    merged.resize(static_cast<size_t>(limit));
  }
  return merged;
}

std::vector<FlowCell> MaritimePipeline::TrafficFlow(int step) {
  if (!context_->traffic.valid()) return {};
  std::future<std::any> reply =
      system_->Ask(context_->traffic, GetTrafficFlowQuery{step});
  const std::any value = reply.get();
  if (const auto* flow = std::any_cast<std::vector<FlowCell>>(&value)) {
    return *flow;
  }
  return {};
}

std::vector<PortTrafficStatus> MaritimePipeline::PortTraffic() {
  if (!context_->ports.valid()) return {};
  std::future<std::any> reply =
      system_->Ask(context_->ports, GetPortTrafficQuery{});
  const std::any value = reply.get();
  if (const auto* status =
          std::any_cast<std::vector<PortTrafficStatus>>(&value)) {
    return *status;
  }
  return {};
}

std::vector<CellMobilityStats> MaritimePipeline::Patterns(int top_n) {
  if (!context_->traffic.valid()) return {};
  std::future<std::any> reply =
      system_->Ask(context_->traffic, GetPatternsQuery{top_n});
  const std::any value = reply.get();
  if (const auto* cells =
          std::any_cast<std::vector<CellMobilityStats>>(&value)) {
    return *cells;
  }
  return {};
}

PipelineStats MaritimePipeline::Stats() const {
  PipelineStats stats;
  if (system_ != nullptr) {
    stats.actor_count = system_->ActorCount();
    stats.messages_processed = system_->ProcessedCount();
  }
  if (context_ != nullptr) {
    stats.positions_ingested =
        context_->positions_ingested.load(std::memory_order_relaxed);
    stats.forecasts_generated =
        context_->forecasts_generated.load(std::memory_order_relaxed);
    stats.events_detected =
        context_->events_detected.load(std::memory_order_relaxed);
  }
  // The position-stage histogram is charged once per vessel message.
  if (context_ != nullptr && context_->stage_position != nullptr) {
    stats.mean_processing_nanos = context_->stage_position->Mean();
  }
  return stats;
}

std::string MaritimePipeline::VesselActorName(Mmsi mmsi) const {
  return marlin::VesselActorName(mmsi);
}

}  // namespace marlin
