#ifndef MARLIN_CORE_PIPELINE_H_
#define MARLIN_CORE_PIPELINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "actor/actor_system.h"
#include "core/messages.h"
#include "events/collision.h"
#include "events/port_congestion.h"
#include "events/proximity.h"
#include "events/switch_off.h"
#include "events/traffic_flow.h"
#include "geo/world.h"
#include "core/static_registry.h"
#include "kvstore/kvstore.h"
#include "stream/broker.h"
#include "vrf/patterns_of_life.h"
#include "vrf/route_forecaster.h"

namespace marlin {

class InferenceBatcher;

/// Pipeline configuration (the knobs named in §3: per-vessel actors N,
/// cell actors of variable size M, collision actors of variable size K).
struct PipelineConfig {
  ActorSystemConfig actor_system;
  /// Grid resolution of the proximity cell actors ("variable size M").
  int cell_actor_resolution = 9;
  /// Coarser grid resolution partitioning the collision actors ("variable
  /// size K"): each collision actor owns one coarse region.
  int collision_actor_resolution = 4;
  ProximityDetector::Config proximity;
  CollisionForecaster::Config collision;
  TrafficFlowForecaster::Config traffic;
  /// AIS switch-off detection (§5).
  SwitchOffDetector::Config switch_off;
  /// Kafka-substitute topic layout for broker-backed ingestion.
  std::string topic = "ais-positions";
  int topic_partitions = 8;
  std::string consumer_group = "marlin-pipeline";
  /// Output streams (§7 future work, implemented): when enabled, the writer
  /// actor also publishes every event and every vessel forecast, one record
  /// each, to dedicated broker topics that external consumers can
  /// subscribe to.
  bool publish_output_topics = false;
  std::string events_topic = "marlin-events";
  std::string forecasts_topic = "marlin-forecasts";
  /// Number of writer actors. §3 deploys a single writer; "depending on
  /// system and application requirements, multiple writer actors may exist
  /// and be supported by Akka concurrently" — outputs are sharded across
  /// them by vessel key.
  int num_writer_actors = 1;
  /// Ports monitored for berth/port congestion (§7 future work; empty =
  /// monitoring disabled). The ports actor consumes positions and forecast
  /// trajectories like the other grid actors.
  std::vector<Port> monitored_ports;
  PortCongestionMonitor::Config port_monitor;
  /// Batched S-VRF inference (DESIGN.md §10): vessel actors submit forecast
  /// requests to a shared InferenceBatcher that coalesces them into one
  /// column-batched network forward, instead of each actor running the
  /// network inline per message. Results come back as ForecastResultMsg.
  /// Batching never changes forecast values (columns are independent).
  /// The batcher's serving thread runs every batch in submission order off
  /// the actor dispatchers. Under a cooperative `actor_system.dispatcher`
  /// (chk::DeterministicScheduler) it has no serving thread: full batches
  /// run inline on the submitting actor and partial batches only flush via
  /// AwaitQuiescence, so nothing runs outside the seeded schedule.
  bool batched_inference = true;
  /// Requests coalesced per batched forward.
  int inference_batch_size = 32;
  /// Age of the oldest pending request at which a partial batch runs.
  int64_t inference_flush_micros = 2000;
  /// Registry all pipeline substrates (actor system, broker, store, stage
  /// histograms) report into. Null = process global. Also applied to
  /// `actor_system.metrics` when that is unset.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Aggregate pipeline statistics.
struct PipelineStats {
  size_t actor_count = 0;
  int64_t messages_processed = 0;
  int64_t positions_ingested = 0;
  int64_t forecasts_generated = 0;
  int64_t events_detected = 0;
  double mean_processing_nanos = 0.0;
};

/// Shared state handed to every actor of one pipeline. Owned by
/// MaritimePipeline; actors hold a raw pointer (the pipeline outlives its
/// actor system).
struct PipelineContext {
  const PipelineConfig* config = nullptr;
  const RouteForecaster* forecaster = nullptr;
  const StaticRegistry* registry = nullptr;  // may be null
  KvStore* store = nullptr;
  Broker* broker = nullptr;
  ActorSystem* system = nullptr;
  /// Shared inference batcher; null when batched_inference is off. Vessel
  /// actors Submit here and fall back to an inline Forecast on rejection.
  InferenceBatcher* batcher = nullptr;
  /// Stage-latency members of marlin_pipeline_stage_nanos{stage=...},
  /// cached at Start() so actors never touch the registry on the hot path.
  obs::Histogram* stage_ingest = nullptr;
  obs::Histogram* stage_position = nullptr;
  obs::Histogram* stage_forecast = nullptr;
  obs::Histogram* stage_write = nullptr;
  std::vector<ActorRef> writers;
  ActorRef traffic;
  ActorRef ports;
  ActorRef surveillance;

  /// The writer actor responsible for a vessel's outputs.
  const ActorRef& WriterFor(Mmsi mmsi) const {
    return writers[mmsi % writers.size()];
  }
  std::atomic<int64_t> positions_ingested{0};
  std::atomic<int64_t> forecasts_generated{0};
  std::atomic<int64_t> events_detected{0};
};

/// The maritime route and event forecasting platform (§3, Figure 2),
/// assembled from Marlin's substrates:
///
///   broker (Kafka substitute) → ingestion → vessel actors (1 per MMSI,
///   S-VRF forecasts at the actor level) → cell actors (proximity events)
///   + collision actors (collision forecasts) + traffic actor (VTFF)
///   → writer actor → KvStore (Redis substitute) → queries/UI.
///
/// `forecaster` is mounted once and shared by all vessel actors, per the
/// digital-twin design of §3. Use Ingest() to push decoded positions
/// directly, or Produce()/PumpIngestion() to go through the broker path.
class MaritimePipeline {
 public:
  /// `forecaster` must outlive the pipeline.
  MaritimePipeline(std::shared_ptr<const RouteForecaster> forecaster,
                   const PipelineConfig& config = PipelineConfig());
  ~MaritimePipeline();

  /// Provides the static vessel-information cache fused with the stream
  /// (§3). Must be called before Start(); the registry must outlive the
  /// pipeline and should be frozen.
  void SetStaticRegistry(const StaticRegistry* registry) {
    registry_ = registry;
  }

  MaritimePipeline(const MaritimePipeline&) = delete;
  MaritimePipeline& operator=(const MaritimePipeline&) = delete;

  /// Spawns the writer and traffic actors and creates the ingestion topic.
  Status Start();

  /// Stops ingestion and shuts the actor system down. Idempotent.
  void Stop();

  // -- Ingestion ---------------------------------------------------------

  /// Routes one decoded position to its vessel actor (spawned on first
  /// message). The common hot path.
  Status Ingest(const AisPosition& report);

  /// Appends an AIVDM sentence to the broker topic (keyed by MMSI).
  Status Produce(const std::string& aivdm_sentence, TimeMicros received_at);

  /// Polls the broker and ingests up to `max_records`; returns the number
  /// ingested. Call repeatedly (or from a pump thread) to drain.
  int PumpIngestion(int max_records = 1024);

  /// Blocks until all in-flight actor messages are processed, including
  /// every batched forecast result and the messages it caused.
  void AwaitQuiescence();

  // -- Queries -----------------------------------------------------------

  /// Latest forecast trajectory of a vessel (NotFound if the vessel is
  /// unknown or has not yet produced a forecast).
  StatusOr<ForecastTrajectory> LatestForecast(Mmsi mmsi);

  /// Events involving a specific vessel.
  StatusOr<std::vector<MaritimeEvent>> VesselEvents(Mmsi mmsi);

  /// Most recent events across the fleet, newest first.
  std::vector<MaritimeEvent> RecentEvents(int limit = 100);

  /// Predicted traffic flow raster at horizon step 1..6.
  std::vector<FlowCell> TrafficFlow(int step);

  /// Present + forecast port traffic (empty when no ports are monitored).
  std::vector<PortTrafficStatus> PortTraffic();

  /// Busiest historical cells (Patterns of Life, §4.1), aggregated by the
  /// traffic actor.
  std::vector<CellMobilityStats> Patterns(int top_n = 20);

  /// Aggregate statistics.
  PipelineStats Stats() const;

  KvStore& store() { return store_; }
  Broker& broker() { return broker_; }
  ActorSystem& system() { return *system_; }
  obs::MetricsRegistry* metrics() { return metrics_; }

 private:
  std::string VesselActorName(Mmsi mmsi) const;

  PipelineConfig config_;
  std::shared_ptr<const RouteForecaster> forecaster_;
  const StaticRegistry* registry_ = nullptr;
  obs::MetricsRegistry* metrics_;  // declared before the substrates it feeds
  KvStore store_;
  Broker broker_;
  std::unique_ptr<ActorSystem> system_;
  std::unique_ptr<InferenceBatcher> batcher_;
  std::unique_ptr<PipelineContext> context_;
  std::unique_ptr<Consumer> consumer_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace marlin

#endif  // MARLIN_CORE_PIPELINE_H_
