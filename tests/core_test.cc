#include <gtest/gtest.h>

#include <any>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ais/codec.h"
#include "ais/preprocess.h"
#include "chk/deterministic_scheduler.h"
#include "core/actors.h"
#include "core/pipeline.h"
#include "geo/geodesy.h"
#include "geo/world.h"
#include "sim/des/event_fleet.h"
#include "sim/proximity_dataset.h"
#include "stream/broker.h"
#include "vrf/inference_batcher.h"
#include "vrf/linear_model.h"
#include "vrf/svrf_model.h"

namespace marlin {
namespace {

AisPosition At(Mmsi mmsi, TimeMicros t, double lat, double lon,
               double sog = 12.0, double cog = 90.0) {
  AisPosition p;
  p.mmsi = mmsi;
  p.timestamp = t;
  p.position = LatLng{lat, lon};
  p.sog_knots = sog;
  p.cog_deg = cog;
  p.heading_deg = static_cast<int>(cog);
  return p;
}

std::unique_ptr<MaritimePipeline> MakePipeline(
    PipelineConfig config = PipelineConfig()) {
  config.actor_system.num_threads = 4;
  auto pipeline = std::make_unique<MaritimePipeline>(
      std::make_shared<LinearKinematicModel>(), config);
  const Status status = pipeline->Start();
  EXPECT_TRUE(status.ok()) << status.ToString();
  return pipeline;
}

/// Feeds a straight eastward track of `points` positions at 1-minute
/// spacing.
void FeedStraightTrack(MaritimePipeline* pipeline, Mmsi mmsi, int points,
                       double lat = 38.0, double lon0 = 24.0) {
  LatLng pos{lat, lon0};
  for (int i = 0; i < points; ++i) {
    ASSERT_TRUE(pipeline
                    ->Ingest(At(mmsi, static_cast<TimeMicros>(i) * kMicrosPerMinute,
                                pos.lat_deg, pos.lon_deg))
                    .ok());
    pos = DestinationPoint(pos, 90.0, 12.0 * kKnotsToMps * 60.0);
  }
}

TEST(PipelineTest, StartStopIdempotent) {
  auto pipeline = MakePipeline();
  EXPECT_FALSE(pipeline->Start().ok());  // double start
  pipeline->Stop();
  pipeline->Stop();
  EXPECT_FALSE(pipeline->Ingest(At(1, 0, 38.0, 24.0)).ok());
}

TEST(PipelineTest, SpawnsOneActorPerVessel) {
  auto pipeline = MakePipeline();
  for (Mmsi mmsi = 100; mmsi < 110; ++mmsi) {
    ASSERT_TRUE(pipeline->Ingest(At(mmsi, 0, 30.0 + mmsi * 0.1, 10.0)).ok());
  }
  pipeline->AwaitQuiescence();
  const PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.positions_ingested, 10);
  // 10 vessel actors + writer + traffic + cell actors.
  EXPECT_GE(stats.actor_count, 12u);
  // Re-ingesting same vessels does not create more vessel actors.
  const size_t before = stats.actor_count;
  for (Mmsi mmsi = 100; mmsi < 110; ++mmsi) {
    ASSERT_TRUE(pipeline
                    ->Ingest(At(mmsi, 2 * kMicrosPerMinute, 30.0 + mmsi * 0.1,
                                10.001))
                    .ok());
  }
  pipeline->AwaitQuiescence();
  EXPECT_EQ(pipeline->Stats().actor_count, before);
}

TEST(PipelineTest, ForecastAvailableAfterWindowFills) {
  auto pipeline = MakePipeline();
  FeedStraightTrack(pipeline.get(), 555, kSvrfInputLength + 5);
  pipeline->AwaitQuiescence();
  auto forecast = pipeline->LatestForecast(555);
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  EXPECT_EQ(forecast->mmsi, 555u);
  ASSERT_EQ(forecast->points.size(), static_cast<size_t>(kSvrfOutputSteps + 1));
  // Forecast continues eastward.
  EXPECT_GT(forecast->points.back().position.lon_deg,
            forecast->points.front().position.lon_deg);
  EXPECT_GT(pipeline->Stats().forecasts_generated, 0);
}

TEST(PipelineTest, NoForecastBeforeWindowFills) {
  auto pipeline = MakePipeline();
  FeedStraightTrack(pipeline.get(), 556, 5);
  pipeline->AwaitQuiescence();
  auto forecast = pipeline->LatestForecast(556);
  EXPECT_FALSE(forecast.ok());
  EXPECT_EQ(forecast.status().code(), StatusCode::kNotFound);
}

TEST(PipelineTest, UnknownVesselQueryFails) {
  auto pipeline = MakePipeline();
  EXPECT_EQ(pipeline->LatestForecast(999).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(pipeline->VesselEvents(999).ok());
}

TEST(PipelineTest, ProximityEventDetectedAndPublished) {
  auto pipeline = MakePipeline();
  // Two vessels ~200 m apart reporting within seconds of each other.
  const LatLng a{38.0, 24.0};
  const LatLng b = DestinationPoint(a, 90.0, 200.0);
  ASSERT_TRUE(pipeline->Ingest(At(1001, kMicrosPerSecond, a.lat_deg, a.lon_deg)).ok());
  pipeline->AwaitQuiescence();
  ASSERT_TRUE(
      pipeline->Ingest(At(1002, 2 * kMicrosPerSecond, b.lat_deg, b.lon_deg)).ok());
  pipeline->AwaitQuiescence();
  const auto events = pipeline->RecentEvents();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].type, EventType::kProximity);
  EXPECT_EQ(PairKey(events[0].vessel_a, events[0].vessel_b),
            PairKey(1001, 1002));
  // State feedback: the vessel actors saw the event too.
  auto vessel_events = pipeline->VesselEvents(1001);
  ASSERT_TRUE(vessel_events.ok());
  ASSERT_FALSE(vessel_events->empty());
  EXPECT_EQ((*vessel_events)[0].type, EventType::kProximity);
  // And it reached the KvStore.
  EXPECT_FALSE(pipeline->store().ScanPrefix("event:").empty());
}

TEST(PipelineTest, CollisionForecastFromHeadOnCourses) {
  auto pipeline = MakePipeline();
  // Two vessels approach head-on along the same latitude: east-bound
  // vessel west of the meeting point, west-bound vessel east of it, both
  // with full history windows so forecasts exist.
  const double lat = 38.0;
  const double speed_mps = 12.0 * kKnotsToMps;
  const LatLng meet{lat, 24.5};
  // After `points` minutes of history the vessels are ~7.4 km apart
  // (closing at 2 * 12 knots covers that in ~10 minutes: inside the
  // 30-minute forecast window).
  const int points = kSvrfInputLength + 2;
  LatLng east_start = DestinationPoint(
      meet, 270.0, speed_mps * 60.0 * points + 3700.0);
  LatLng west_start =
      DestinationPoint(meet, 90.0, speed_mps * 60.0 * points + 3700.0);
  LatLng east_pos = east_start;
  LatLng west_pos = west_start;
  for (int i = 0; i < points; ++i) {
    const TimeMicros t = static_cast<TimeMicros>(i) * kMicrosPerMinute;
    ASSERT_TRUE(pipeline
                    ->Ingest(At(2001, t, east_pos.lat_deg, east_pos.lon_deg,
                                12.0, 90.0))
                    .ok());
    ASSERT_TRUE(pipeline
                    ->Ingest(At(2002, t + kMicrosPerSecond, west_pos.lat_deg,
                                west_pos.lon_deg, 12.0, 270.0))
                    .ok());
    east_pos = DestinationPoint(east_pos, 90.0, speed_mps * 60.0);
    west_pos = DestinationPoint(west_pos, 270.0, speed_mps * 60.0);
  }
  pipeline->AwaitQuiescence();
  const auto events = pipeline->RecentEvents();
  bool found_collision = false;
  for (const MaritimeEvent& event : events) {
    if (event.type == EventType::kCollisionForecast &&
        PairKey(event.vessel_a, event.vessel_b) == PairKey(2001, 2002)) {
      found_collision = true;
      EXPECT_GT(event.event_time, 0);
    }
  }
  EXPECT_TRUE(found_collision);
}

TEST(PipelineTest, TrafficFlowRasterPopulated) {
  auto pipeline = MakePipeline();
  for (Mmsi mmsi = 3000; mmsi < 3005; ++mmsi) {
    FeedStraightTrack(pipeline.get(), mmsi, kSvrfInputLength + 3, 38.0,
                      24.0 + 0.001 * (mmsi - 3000));
  }
  pipeline->AwaitQuiescence();
  for (int step = 1; step <= kSvrfOutputSteps; ++step) {
    int total = 0;
    for (const FlowCell& cell : pipeline->TrafficFlow(step)) {
      total += cell.count;
    }
    EXPECT_EQ(total, 5) << "step " << step;
  }
  EXPECT_TRUE(pipeline->TrafficFlow(0).empty());
}

TEST(PipelineTest, WriterPublishesVesselStateToStore) {
  auto pipeline = MakePipeline();
  ASSERT_TRUE(pipeline->Ingest(At(5001, kMicrosPerSecond, 37.5, 23.5)).ok());
  pipeline->AwaitQuiescence();
  const auto state = pipeline->store().HGetAll("vessel:5001");
  ASSERT_FALSE(state.empty());
  EXPECT_EQ(state.count("lat"), 1u);
  EXPECT_EQ(state.count("lon"), 1u);
  EXPECT_EQ(state.count("sog"), 1u);
  EXPECT_NEAR(std::stod(state.at("lat")), 37.5, 1e-5);
}

/// printf's rendering of the writer's kv fields: the references the
/// writer's own renderer must match byte for byte.
std::string Printf(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

std::string PrintfForecast(const ForecastTrajectory& forecast) {
  std::string text;
  char buf[96];
  for (const ForecastPoint& point : forecast.points) {
    std::snprintf(buf, sizeof(buf), "%.6f,%.6f,%lld;", point.position.lat_deg,
                  point.position.lon_deg, static_cast<long long>(point.time));
    text += buf;
  }
  return text;
}

TEST(PipelineTest, WriterKvMatchesPrintfOfLastReportAndLatestForecast) {
  // Every vessel hash must hold its last ingested report and its latest
  // forecast, rendered as printf renders them. A writer that dropped a
  // forecast sent once, or drifted from printf, fails here.
  auto dispatcher = std::make_shared<chk::DeterministicScheduler>(7);
  dispatcher->DisableTraceRecording();
  PipelineConfig config;
  config.actor_system.num_threads = 1;
  config.actor_system.dispatcher = dispatcher;
  MaritimePipeline pipeline(std::make_shared<LinearKinematicModel>(), config);
  ASSERT_TRUE(pipeline.Start().ok());
  des::EventFleetConfig fleet;
  fleet.num_vessels = 100;
  fleet.seed = 7;
  std::map<Mmsi, AisPosition> last;
  int ingested = 0;
  for (const AisPosition& report :
       des::RunFleet(World::GlobalWorld(7), fleet, 1800.0)) {
    ASSERT_TRUE(pipeline.Ingest(report).ok());
    last[report.mmsi] = report;
    if (++ingested % 500 == 0) pipeline.AwaitQuiescence();
  }
  pipeline.AwaitQuiescence();

  // Under the cooperative scheduler a reply only resolves inside a
  // quiesce, so ask every vessel first and read the replies afterwards.
  std::map<Mmsi, std::future<std::any>> replies;
  for (const auto& [mmsi, report] : last) {
    auto vessel = pipeline.system().Find(VesselActorName(mmsi));
    ASSERT_TRUE(vessel.ok());
    replies[mmsi] = pipeline.system().Ask(*vessel, GetForecastQuery{});
  }
  pipeline.AwaitQuiescence();

  int with_forecast = 0;
  for (const auto& [mmsi, report] : last) {
    SCOPED_TRACE("vessel " + std::to_string(mmsi));
    const auto hash =
        pipeline.store().HGetAll("vessel:" + std::to_string(mmsi));
    ASSERT_EQ(hash.count("ts"), 1u);
    EXPECT_EQ(hash.at("lat"), Printf("%.6f", report.position.lat_deg));
    EXPECT_EQ(hash.at("lon"), Printf("%.6f", report.position.lon_deg));
    EXPECT_EQ(hash.at("sog"), Printf("%.1f", report.sog_knots));
    EXPECT_EQ(hash.at("cog"), Printf("%.1f", report.cog_deg));
    EXPECT_EQ(hash.at("ts"),
              std::to_string(static_cast<long long>(report.timestamp)));
    const std::any reply = replies[mmsi].get();
    if (const auto* held = std::any_cast<TrajectoryMsg>(&reply)) {
      ++with_forecast;
      ASSERT_EQ(hash.count("forecast"), 1u);
      EXPECT_EQ(hash.at("forecast"), PrintfForecast(held->trajectory));
      EXPECT_EQ(hash.size(), 6u);
    } else {
      EXPECT_EQ(hash.size(), 5u);
    }
  }
  EXPECT_EQ(pipeline.store().ScanPrefix("vessel:").size(), last.size());
  EXPECT_GT(with_forecast, 50);
  pipeline.Stop();
}

TEST(PipelineTest, BrokerPathIngestsAivdmSentences) {
  auto pipeline = MakePipeline();
  const TimeMicros t0 = TimeMicros{1700000000} * kMicrosPerSecond;
  for (int i = 0; i < 5; ++i) {
    const AisPosition p = At(6001, t0 + i * kMicrosPerMinute, 36.0,
                             22.0 + i * 0.003);
    ASSERT_TRUE(
        pipeline->Produce(AisCodec::EncodePosition(p), p.timestamp).ok());
  }
  EXPECT_EQ(pipeline->broker().TopicSize("ais-positions"), 5);
  const int ingested = pipeline->PumpIngestion();
  EXPECT_EQ(ingested, 5);
  pipeline->AwaitQuiescence();
  EXPECT_EQ(pipeline->Stats().positions_ingested, 5);
  // Offsets committed: a second pump ingests nothing.
  EXPECT_EQ(pipeline->PumpIngestion(), 0);
}

TEST(PipelineTest, ProduceRejectsGarbage) {
  auto pipeline = MakePipeline();
  EXPECT_FALSE(pipeline->Produce("not an AIVDM sentence", 0).ok());
}

TEST(PipelineTest, StatsGrow) {
  auto pipeline = MakePipeline();
  for (Mmsi mmsi = 7000; mmsi < 7050; ++mmsi) {
    ASSERT_TRUE(pipeline
                    ->Ingest(At(mmsi, kMicrosPerSecond,
                                30.0 + (mmsi % 50) * 0.2, 10.0))
                    .ok());
  }
  pipeline->AwaitQuiescence();
  const PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.positions_ingested, 50);
  EXPECT_GT(stats.messages_processed, 50);
  EXPECT_GT(stats.mean_processing_nanos, 0.0);
}

TEST(PipelineTest, EndToEndFleetSoak) {
  // A regional fleet streamed through the full pipeline: checks that the
  // system stays consistent under realistic multi-vessel traffic.
  const World world = World::GlobalWorld();
  des::EventFleetConfig fleet_config;
  fleet_config.num_vessels = 40;
  fleet_config.seed = 77;
  const auto messages = des::RunFleet(world, fleet_config, 2.0 * 3600.0);
  ASSERT_GT(messages.size(), 500u);

  auto pipeline = MakePipeline();
  for (const AisPosition& report : messages) {
    ASSERT_TRUE(pipeline->Ingest(report).ok());
  }
  pipeline->AwaitQuiescence();
  const PipelineStats stats = pipeline->Stats();
  EXPECT_EQ(stats.positions_ingested, static_cast<int64_t>(messages.size()));
  EXPECT_GT(stats.forecasts_generated, 0);
  // Every distinct vessel has a state entry in the store.
  EXPECT_GE(pipeline->store().ScanPrefix("vessel:").size(), 35u);
}

// ------------------------------------------------ batched forecast results

/// Positions of `vessels` straight eastward tracks, `points` one-minute
/// steps each, interleaved in time order. Vessel v sails latitude
/// 38 + v/10, far enough from its neighbours to raise no events.
std::vector<AisPosition> InterleavedTracks(Mmsi first_mmsi, int vessels,
                                           int points) {
  std::vector<AisPosition> out;
  std::vector<LatLng> pos;
  for (int v = 0; v < vessels; ++v) {
    pos.push_back(LatLng{38.0 + v * 0.1, 24.0});
  }
  for (int i = 0; i < points; ++i) {
    for (int v = 0; v < vessels; ++v) {
      const LatLng& p = pos[static_cast<size_t>(v)];
      out.push_back(At(first_mmsi + static_cast<Mmsi>(v),
                       static_cast<TimeMicros>(i) * kMicrosPerMinute,
                       p.lat_deg, p.lon_deg));
      pos[static_cast<size_t>(v)] =
          DestinationPoint(p, 90.0, 12.0 * kKnotsToMps * 60.0);
    }
  }
  return out;
}

/// Forecasts a pipeline must generate for `positions`: one per accepted
/// position that leaves the vessel's window ready.
int64_t HistoryReplayCount(const std::vector<AisPosition>& positions) {
  std::map<Mmsi, VesselHistory> histories;
  int64_t count = 0;
  for (const AisPosition& p : positions) {
    VesselHistory& history = histories[p.mmsi];
    if (history.Push(p) && history.Ready()) ++count;
  }
  return count;
}

TEST(PipelineQuiescenceTest, ForecastCountMatchesReplayAfterEveryQuiesce) {
  // Regression: the batcher's serving thread Tells results into vessel
  // mailboxes. A result delivered after AwaitQuiescence's actor quiesce had
  // returned was left unprocessed, so forecasts_generated read right after
  // AwaitQuiescence() fell short of the replay count. The 20 µs deadline
  // hands the last partial batch to the serving thread, and the compact
  // S-VRF's forward lasts long enough for the actors to go quiet under it.
  SvrfModel::Config model_config;
  model_config.hidden_dim = 20;
  model_config.dense_dim = 20;
  auto model = std::make_shared<SvrfModel>(model_config);
  const std::vector<AisPosition> positions = InterleavedTracks(5000, 64, 30);
  const int64_t expected = HistoryReplayCount(positions);
  ASSERT_GT(expected, 0);

  const auto end = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int rounds = 0;
  do {
    obs::MetricsRegistry registry;
    PipelineConfig config;
    config.actor_system.num_threads = 2;
    config.inference_flush_micros = 20;
    config.metrics = &registry;
    MaritimePipeline pipeline(model, config);
    ASSERT_TRUE(pipeline.Start().ok());
    for (const AisPosition& p : positions) {
      ASSERT_TRUE(pipeline.Ingest(p).ok());
    }
    pipeline.AwaitQuiescence();
    ASSERT_EQ(pipeline.Stats().forecasts_generated, expected)
        << "round " << rounds;
    // One latency path: every message, batched or inline, is charged to
    // the position stage exactly once.
    ASSERT_EQ(registry
                  .GetHistogram("marlin_pipeline_stage_nanos", "",
                                {{"stage", "position"}})
                  ->Count(),
              positions.size())
        << "round " << rounds;
    pipeline.Stop();
    ++rounds;
  } while (std::chrono::steady_clock::now() < end);
}

TEST(VesselActorTest, OlderBatchedResultDoesNotReplaceNewerInlineForecast) {
  // Regression: with a one-slot batcher queue, the first ready window is
  // queued and every later one is refused, so the actor forecasts those
  // inline and applies them at once. The queued (older) result lands last
  // on Flush() and used to overwrite the newest forecast.
  obs::MetricsRegistry registry;
  PipelineConfig config;
  config.metrics = &registry;
  LinearKinematicModel model;
  KvStore store(nullptr, 16, &registry);
  Broker broker(&registry);
  ActorSystemConfig system_config;
  system_config.num_threads = 2;
  system_config.metrics = &registry;
  ActorSystem system(system_config);
  InferenceBatcher::Options batcher_options;
  batcher_options.max_queue = 1;
  batcher_options.background_flusher = false;
  batcher_options.metrics = &registry;
  InferenceBatcher batcher(&model, batcher_options);

  PipelineContext context;
  context.config = &config;
  context.forecaster = &model;
  context.store = &store;
  context.broker = &broker;
  context.system = &system;
  context.batcher = &batcher;
  auto writer = system.SpawnActor<WriterActor>("writer-0", &context, 0);
  ASSERT_TRUE(writer.ok());
  context.writers.push_back(*writer);
  constexpr Mmsi kMmsi = 4242;
  auto vessel =
      system.SpawnActor<VesselActor>(VesselActorName(kMmsi), kMmsi, &context);
  ASSERT_TRUE(vessel.ok());

  const std::vector<AisPosition> positions = InterleavedTracks(kMmsi, 1, 25);
  VesselHistory history;
  for (const AisPosition& p : positions) {
    history.Push(p);
    system.Tell(*vessel, PositionMsg{p, 0});
  }
  system.AwaitQuiescence();
  EXPECT_EQ(batcher.stats().rejected, 4u);
  EXPECT_EQ(batcher.Flush(), 1);
  system.AwaitQuiescence();

  EXPECT_EQ(context.forecasts_generated.load(), HistoryReplayCount(positions));
  const std::any reply = system.Ask(*vessel, GetForecastQuery{}).get();
  const auto* held = std::any_cast<TrajectoryMsg>(&reply);
  ASSERT_NE(held, nullptr);
  const auto expected = model.Forecast(history.MakeInput());
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(held->trajectory.points.size(), expected->points.size());
  for (size_t i = 0; i < expected->points.size(); ++i) {
    EXPECT_EQ(held->trajectory.points[i].time, expected->points[i].time);
    EXPECT_EQ(held->trajectory.points[i].position.lat_deg,
              expected->points[i].position.lat_deg);
    EXPECT_EQ(held->trajectory.points[i].position.lon_deg,
              expected->points[i].position.lon_deg);
  }
  // The writer holds the newest forecast too, although the stale result
  // landed after it.
  const auto stored = store.HGet("vessel:" + std::to_string(kMmsi), "forecast");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, PrintfForecast(*expected));
  system.Shutdown();
}

// ---------------------------------------------------------- Output topics

TEST(OutputTopicsTest, EventsAndForecastsPublished) {
  PipelineConfig config;
  config.actor_system.num_threads = 2;
  config.publish_output_topics = true;
  MaritimePipeline pipeline(std::make_shared<LinearKinematicModel>(), config);
  ASSERT_TRUE(pipeline.Start().ok());
  // Full window -> forecasts; close pair -> proximity event. Each position
  // is fully processed before the next, so the later ones find a forecast
  // already held.
  LatLng position{38.0, 24.0};
  for (int i = 0; i < kSvrfInputLength + 3; ++i) {
    ASSERT_TRUE(pipeline
                    .Ingest(At(700,
                               static_cast<TimeMicros>(i) * kMicrosPerMinute,
                               position.lat_deg, position.lon_deg))
                    .ok());
    pipeline.AwaitQuiescence();
    position = DestinationPoint(position, 90.0, 12.0 * kKnotsToMps * 60.0);
  }
  const LatLng partner =
      DestinationPoint(position, 270.0, 12.0 * kKnotsToMps * 60.0 + 100.0);
  ASSERT_TRUE(
      pipeline
          .Ingest(At(701,
                     static_cast<TimeMicros>(kSvrfInputLength + 2) *
                             kMicrosPerMinute +
                         kMicrosPerSecond,
                     partner.lat_deg, partner.lon_deg))
          .ok());
  pipeline.AwaitQuiescence();

  Consumer forecast_consumer(&pipeline.broker(), "test", "marlin-forecasts");
  const auto forecasts = forecast_consumer.Poll(1000);
  ASSERT_FALSE(forecasts.empty());
  EXPECT_EQ(forecasts[0].key, "700");
  // Record: mmsi;lat,lon,t;... with 7 points.
  size_t separators = 0;
  for (char c : forecasts[0].value) separators += c == ';';
  EXPECT_EQ(separators, static_cast<size_t>(kSvrfOutputSteps + 1));
  // One record per forecast: a held forecast is not republished with
  // every later position. Only vessel 700 has a full window.
  int64_t vessel_records = 0;
  for (const Record& record : forecasts) vessel_records += record.key == "700";
  EXPECT_EQ(vessel_records, pipeline.Stats().forecasts_generated);
  EXPECT_GT(vessel_records, 0);

  Consumer event_consumer(&pipeline.broker(), "test", "marlin-events");
  const auto events = event_consumer.Poll(1000);
  ASSERT_FALSE(events.empty());
  EXPECT_NE(events[0].value.find("Proximity"), std::string::npos);
}

TEST(OutputTopicsTest, DisabledByDefault) {
  MaritimePipeline pipeline(std::make_shared<LinearKinematicModel>());
  ASSERT_TRUE(pipeline.Start().ok());
  EXPECT_FALSE(pipeline.broker().HasTopic("marlin-forecasts"));
  EXPECT_FALSE(pipeline.broker().HasTopic("marlin-events"));
}

// ---------------------------------------------------------- Multi-writer

TEST(MultiWriterTest, StateShardsAcrossWritersButStoreIsComplete) {
  PipelineConfig config;
  config.actor_system.num_threads = 2;
  config.num_writer_actors = 4;
  MaritimePipeline pipeline(std::make_shared<LinearKinematicModel>(), config);
  ASSERT_TRUE(pipeline.Start().ok());
  for (Mmsi mmsi = 100; mmsi < 140; ++mmsi) {
    ASSERT_TRUE(pipeline
                    .Ingest(At(mmsi, kMicrosPerSecond, 30.0 + mmsi * 0.1,
                               10.0))
                    .ok());
  }
  pipeline.AwaitQuiescence();
  // Four writer actors spawned.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(pipeline.system().Find("writer-" + std::to_string(i)).ok());
  }
  EXPECT_FALSE(pipeline.system().Find("writer-4").ok());
  // Every vessel's state landed in the shared store regardless of shard.
  EXPECT_EQ(pipeline.store().ScanPrefix("vessel:").size(), 40u);
}

TEST(MultiWriterTest, RecentEventsMergedAcrossShards) {
  PipelineConfig config;
  config.actor_system.num_threads = 2;
  config.num_writer_actors = 3;
  MaritimePipeline pipeline(std::make_shared<LinearKinematicModel>(), config);
  ASSERT_TRUE(pipeline.Start().ok());
  // Proximity pairs with MMSIs landing on different writer shards
  // (mmsi % 3 differs per pair).
  for (int pair = 0; pair < 6; ++pair) {
    const Mmsi a = 300 + static_cast<Mmsi>(pair) * 2;
    const Mmsi b = a + 1;
    const double lat = 30.0 + pair;
    const TimeMicros t =
        kMicrosPerSecond + static_cast<TimeMicros>(pair) * kMicrosPerMinute;
    ASSERT_TRUE(pipeline.Ingest(At(a, t, lat, 10.0)).ok());
    pipeline.AwaitQuiescence();
    ASSERT_TRUE(pipeline.Ingest(At(b, t + kMicrosPerSecond, lat, 10.002)).ok());
    pipeline.AwaitQuiescence();
  }
  const auto events = pipeline.RecentEvents(100);
  EXPECT_EQ(events.size(), 6u);
  // Newest first after the merge.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i - 1].detected_at, events[i].detected_at);
  }
  // Event keys are sharded but all present.
  EXPECT_EQ(pipeline.store().ScanPrefix("event:").size(), 6u);
}

// ---------------------------------------------------- Ports actor wiring

TEST(PortsActorTest, OccupancyAndInboundThroughPipeline) {
  PipelineConfig config;
  config.actor_system.num_threads = 2;
  config.monitored_ports = {{"Alpha", LatLng{38.0, 24.0}},
                            {"Beta", LatLng{44.0, 30.0}}};
  MaritimePipeline pipeline(std::make_shared<LinearKinematicModel>(), config);
  ASSERT_TRUE(pipeline.Start().ok());

  // Vessel 1 sits in port Alpha.
  ASSERT_TRUE(pipeline.Ingest(At(1, kMicrosPerMinute, 38.0, 24.0, 0.5)).ok());
  // Vessel 2 approaches Alpha from 25 km west at 30 knots with a full
  // history window, so its forecast reaches the port radius.
  LatLng position = DestinationPoint(LatLng{38.0, 24.0}, 270.0, 45000.0);
  for (int i = 0; i <= kSvrfInputLength + 1; ++i) {
    ASSERT_TRUE(pipeline
                    .Ingest(At(2, static_cast<TimeMicros>(i) * kMicrosPerMinute,
                               position.lat_deg, position.lon_deg, 30.0, 90.0))
                    .ok());
    position = DestinationPoint(position, 90.0, 30.0 * kKnotsToMps * 60.0);
  }
  pipeline.AwaitQuiescence();

  const auto ports = pipeline.PortTraffic();
  ASSERT_EQ(ports.size(), 2u);
  EXPECT_EQ(ports[0].name, "Alpha");
  EXPECT_EQ(ports[0].occupancy, 1);
  EXPECT_GE(ports[0].inbound_30min, 1);
  EXPECT_EQ(ports[1].occupancy, 0);
}

TEST(PortsActorTest, DisabledWithoutMonitoredPorts) {
  MaritimePipeline pipeline(std::make_shared<LinearKinematicModel>());
  ASSERT_TRUE(pipeline.Start().ok());
  EXPECT_TRUE(pipeline.PortTraffic().empty());
  EXPECT_FALSE(pipeline.system().Find("ports").ok());
}

}  // namespace
}  // namespace marlin
