#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "ais/preprocess.h"
#include "geo/world.h"
#include "vrf/envclus.h"
#include "vrf/linear_model.h"
#include "vrf/metrics.h"
#include "vrf/patterns_of_life.h"
#include "vrf/svrf_model.h"

namespace marlin {
namespace {

/// A straight eastward track at constant speed; returns supervised samples.
std::vector<SvrfSample> StraightSamples(double sog_knots = 12.0,
                                        double lat = 38.0) {
  std::vector<AisPosition> track;
  const double meters_per_min = sog_knots * kKnotsToMps * 60.0;
  LatLng pos{lat, 24.0};
  for (int i = 0; i < 150; ++i) {
    AisPosition p;
    p.mmsi = 1;
    p.timestamp = static_cast<TimeMicros>(i) * kMicrosPerMinute;
    p.position = pos;
    p.sog_knots = sog_knots;
    p.cog_deg = 90.0;
    track.push_back(p);
    pos = DestinationPoint(pos, 90.0, meters_per_min);
  }
  return BuildSvrfSamples(track, SampleBuilderOptions{});
}

// ------------------------------------------------------- LinearKinematic

TEST(LinearKinematicTest, PerfectOnStraightConstantSpeedTrack) {
  const auto samples = StraightSamples();
  ASSERT_FALSE(samples.empty());
  LinearKinematicModel model;
  const HorizonErrors errors = EvaluateForecaster(model, samples);
  EXPECT_EQ(errors.samples, static_cast<int64_t>(samples.size()));
  // Dead reckoning should nearly match ground truth on a straight track
  // (small residual from the spherical interpolation of long tracks).
  for (double e : errors.ade_m) {
    EXPECT_LT(e, 60.0);
  }
}

TEST(LinearKinematicTest, TrajectoryShape) {
  const auto samples = StraightSamples();
  LinearKinematicModel model;
  auto forecast = model.Forecast(samples[0].input);
  ASSERT_TRUE(forecast.ok());
  ASSERT_EQ(forecast->points.size(), static_cast<size_t>(kSvrfOutputSteps + 1));
  EXPECT_EQ(forecast->points[0].time, samples[0].input.anchor_time);
  for (int step = 1; step <= kSvrfOutputSteps; ++step) {
    EXPECT_EQ(forecast->points[step].time - forecast->points[step - 1].time,
              kSvrfStepMicros);
  }
  // Eastward course: longitude grows, latitude ~constant.
  EXPECT_GT(forecast->points[6].position.lon_deg,
            forecast->points[0].position.lon_deg);
  EXPECT_NEAR(forecast->points[6].position.lat_deg,
              forecast->points[0].position.lat_deg, 0.01);
}

TEST(LinearKinematicTest, FallsBackToDisplacementVelocity) {
  const auto samples = StraightSamples();
  SvrfInput input = samples[0].input;
  input.anchor_sog_knots = 102.3;  // "not available"
  input.anchor_cog_deg = 360.0;    // "not available"
  LinearKinematicModel model;
  auto forecast = model.Forecast(input);
  ASSERT_TRUE(forecast.ok());
  // Still roughly eastward at ~12 knots: 5-minute displacement ~1850 m.
  const double d = HaversineMeters(forecast->points[0].position,
                                   forecast->points[1].position);
  EXPECT_NEAR(d, 12.0 * kKnotsToMps * 300.0, 200.0);
}

TEST(LinearKinematicTest, RejectsNonFiniteAnchor) {
  SvrfInput input;
  input.anchor.lat_deg = std::nan("");
  LinearKinematicModel model;
  EXPECT_FALSE(model.Forecast(input).ok());
}

// ---------------------------------------------------------------- S-VRF

TEST(SvrfModelTest, UntrainedModelProducesValidShape) {
  SvrfModel model;
  const auto samples = StraightSamples();
  auto forecast = model.Forecast(samples[0].input);
  ASSERT_TRUE(forecast.ok());
  EXPECT_EQ(forecast->points.size(), static_cast<size_t>(kSvrfOutputSteps + 1));
}

TEST(SvrfModelTest, TrainingLearnsStraightMotion) {
  // Train on straight tracks of several speeds/latitudes; the model must
  // learn to extrapolate far better than the untrained initialisation.
  std::vector<SvrfSample> train;
  for (double sog : {8.0, 12.0, 16.0, 20.0}) {
    for (double lat : {36.0, 40.0, 44.0}) {
      const auto s = StraightSamples(sog, lat);
      train.insert(train.end(), s.begin(), s.end());
    }
  }
  const auto test = StraightSamples(14.0, 38.5);
  SvrfModel::Config config;
  config.hidden_dim = 12;
  config.dense_dim = 12;
  SvrfModel model(config);
  const HorizonErrors before = EvaluateForecaster(model, test);
  Trainer::Options options;
  options.epochs = 25;
  options.batch_size = 64;
  options.learning_rate = 3e-3;
  options.l1_lambda = 1e-6;
  model.Train(train, {}, options);
  const HorizonErrors after = EvaluateForecaster(model, test);
  EXPECT_LT(after.mean_ade_m, before.mean_ade_m * 0.2)
      << "before=" << before.mean_ade_m << " after=" << after.mean_ade_m;
  // Sub-kilometre mean ADE on in-distribution straight tracks.
  EXPECT_LT(after.mean_ade_m, 1000.0);
}

TEST(SvrfModelTest, SerializeRestoresForecasts) {
  SvrfModel::Config config;
  config.hidden_dim = 6;
  config.dense_dim = 6;
  SvrfModel model(config);
  const auto samples = StraightSamples();
  Trainer::Options options;
  options.epochs = 2;
  model.Train(samples, {}, options);
  const std::string blob = model.Serialize();
  SvrfModel restored(config);
  ASSERT_TRUE(restored.Deserialize(blob).ok());
  auto a = model.Forecast(samples[0].input);
  auto b = restored.Forecast(samples[0].input);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int i = 0; i <= kSvrfOutputSteps; ++i) {
    EXPECT_NEAR(a->points[i].position.lat_deg, b->points[i].position.lat_deg,
                1e-12);
    EXPECT_NEAR(a->points[i].position.lon_deg, b->points[i].position.lon_deg,
                1e-12);
  }
}

TEST(SvrfModelTest, DeserializeRejectsGarbage) {
  SvrfModel model;
  EXPECT_FALSE(model.Deserialize("").ok());
  EXPECT_FALSE(model.Deserialize("wrong 1 2 3").ok());
}

TEST(SvrfModelTest, ConcurrentForecastsAreSafe) {
  SvrfModel::Config config;
  config.hidden_dim = 8;
  config.dense_dim = 8;
  SvrfModel model(config);
  const auto samples = StraightSamples();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&model, &samples, &failures, t] {
      for (int i = 0; i < 50; ++i) {
        auto forecast =
            model.Forecast(samples[(t * 50 + i) % samples.size()].input);
        if (!forecast.ok() ||
            forecast->points.size() != kSvrfOutputSteps + 1) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, GroundTruthPositionsAccumulateTransitions) {
  SvrfSample sample;
  sample.input.anchor = LatLng{38.0, 24.0};
  for (int i = 0; i < kSvrfOutputSteps; ++i) {
    sample.targets[i].dlat_deg = 0.01;
    sample.targets[i].dlon_deg = 0.02;
  }
  const auto truth = GroundTruthPositions(sample);
  EXPECT_NEAR(truth[0].lat_deg, 38.01, 1e-12);
  EXPECT_NEAR(truth[5].lat_deg, 38.06, 1e-12);
  EXPECT_NEAR(truth[5].lon_deg, 24.12, 1e-12);
}

TEST(MetricsTest, EvaluateOnEmptySamples) {
  LinearKinematicModel model;
  const HorizonErrors errors = EvaluateForecaster(model, {});
  EXPECT_EQ(errors.samples, 0);
  EXPECT_DOUBLE_EQ(errors.mean_ade_m, 0.0);
}

// ---------------------------------------------------------------- EnvClus

TEST(EnvClusTest, ExtractTripsFindsPortToPortSegments) {
  // Synthetic track: near port 0, sail to port 1, then to port 2.
  const BoundingBox box{36.0, 20.0, 42.0, 28.0};
  const World world = World::RegionalWorld(box, 4, 9);
  std::map<Mmsi, std::vector<AisPosition>> tracks;
  auto& track = tracks[777];
  auto add_leg = [&track](const LatLng& from, const LatLng& to,
                          TimeMicros start) {
    const double total = HaversineMeters(from, to);
    const double bearing = InitialBearingDeg(from, to);
    for (int i = 0; i <= 50; ++i) {
      AisPosition p;
      p.mmsi = 777;
      p.timestamp = start + static_cast<TimeMicros>(i) * kMicrosPerMinute;
      p.position = DestinationPoint(from, bearing, total * i / 50.0);
      p.sog_knots = 12;
      track.push_back(p);
    }
    return start + 51 * kMicrosPerMinute;
  };
  TimeMicros t = 0;
  t = add_leg(world.ports()[0].position, world.ports()[1].position, t);
  t = add_leg(world.ports()[1].position, world.ports()[2].position, t);
  const auto trips = ExtractTrips(tracks, world.ports(), 25000.0);
  ASSERT_GE(trips.size(), 2u);
  EXPECT_EQ(trips[0].origin_port, 0);
  EXPECT_EQ(trips[0].destination_port, 1);
  EXPECT_EQ(trips[1].origin_port, 1);
  EXPECT_EQ(trips[1].destination_port, 2);
}

/// One historical voyage along `lane`, a position per waypoint at
/// 1-minute spacing.
Trip LaneTrip(const Lane& lane, Mmsi mmsi, VesselType type) {
  Trip trip;
  trip.mmsi = mmsi;
  trip.origin_port = lane.from_port;
  trip.destination_port = lane.to_port;
  trip.vessel_type = type;
  TimeMicros t = 0;
  for (const LatLng& waypoint : lane.waypoints) {
    AisPosition p;
    p.mmsi = mmsi;
    p.timestamp = t;
    p.position = waypoint;
    trip.points.push_back(p);
    t += kMicrosPerMinute;
  }
  return trip;
}

TEST(EnvClusTest, ForecastFollowsHistoricalPathway) {
  const BoundingBox box{34.0, 18.0, 44.0, 30.0};
  const World world = World::RegionalWorld(box, 3, 13);
  EnvClusModel model(&world);

  // Feed several trips from port 0 to port 1 along the world's lane.
  const Lane* lane = nullptr;
  for (const Lane& l : world.lanes()) {
    if (l.from_port == 0 && l.to_port == 1) lane = &l;
  }
  ASSERT_NE(lane, nullptr);
  for (int trip_index = 0; trip_index < 5; ++trip_index) {
    model.AddTrip(LaneTrip(*lane, 1000 + static_cast<Mmsi>(trip_index),
                           VesselType::kCargo));
  }
  EXPECT_EQ(model.TotalTrips(), 5);
  EXPECT_EQ(model.KnownOdPairs(), 1);

  auto route = model.ForecastRoute(0, 1, VesselType::kCargo);
  ASSERT_TRUE(route.ok()) << route.status().ToString();
  ASSERT_GE(route->size(), 2u);
  // Route starts near port 0 and ends near port 1 (within a coarse cell).
  EXPECT_LT(HaversineMeters(route->front(), world.ports()[0].position),
            2.5 * HexGrid::CircumradiusMeters(6));
  EXPECT_LT(HaversineMeters(route->back(), world.ports()[1].position),
            2.5 * HexGrid::CircumradiusMeters(6));
  // Every routed cell was historically visited (no cutting across
  // untravelled space).
  const auto visited = model.VisitedCells(0, 1);
  for (const LatLng& p : *route) {
    const CellId cell = HexGrid::LatLngToCell(p, 6);
    EXPECT_TRUE(std::binary_search(visited.begin(), visited.end(), cell));
  }
}

TEST(EnvClusTest, UnknownOdPairIsNotFound) {
  const BoundingBox box{34.0, 18.0, 44.0, 30.0};
  const World world = World::RegionalWorld(box, 3, 13);
  EnvClusModel model(&world);
  auto route = model.ForecastRoute(0, 2, VesselType::kCargo);
  EXPECT_FALSE(route.ok());
  EXPECT_EQ(route.status().code(), StatusCode::kNotFound);
}

TEST(EnvClusTest, JunctionClassifierPrefersTypeConditionedBranch) {
  // Two pathways diverge after a shared prefix: cargo ships take the north
  // branch, tankers the south branch. The forecast for each type must
  // follow its branch.
  const BoundingBox box{34.0, 18.0, 44.0, 30.0};
  const World world = World::RegionalWorld(box, 2, 21);
  EnvClusModel::Config config;
  config.resolution = 6;
  EnvClusModel model(&world, config);

  const LatLng start = world.ports()[0].position;
  const LatLng end = world.ports()[1].position;
  auto make_trip = [&](VesselType type, double detour_bearing, Mmsi mmsi) {
    Trip trip;
    trip.mmsi = mmsi;
    trip.origin_port = 0;
    trip.destination_port = 1;
    trip.vessel_type = type;
    // Path: start -> midpoint detoured perpendicular -> end.
    const double bearing = InitialBearingDeg(start, end);
    const double total = HaversineMeters(start, end);
    TimeMicros t = 0;
    for (int i = 0; i <= 40; ++i) {
      const double f = i / 40.0;
      LatLng p = DestinationPoint(start, bearing, total * f);
      const double detour = 60000.0 * std::sin(kPi * f);
      p = DestinationPoint(p, bearing + detour_bearing, detour);
      AisPosition report;
      report.mmsi = mmsi;
      report.timestamp = t;
      report.position = p;
      trip.points.push_back(report);
      t += kMicrosPerMinute;
    }
    return trip;
  };
  for (int i = 0; i < 4; ++i) {
    model.AddTrip(make_trip(VesselType::kCargo, 90.0, 100 + i));
    model.AddTrip(make_trip(VesselType::kTanker, -90.0, 200 + i));
  }
  auto cargo_route = model.ForecastRoute(0, 1, VesselType::kCargo);
  auto tanker_route = model.ForecastRoute(0, 1, VesselType::kTanker);
  ASSERT_TRUE(cargo_route.ok());
  ASSERT_TRUE(tanker_route.ok());
  // The two routes must differ in their middle sections.
  double max_separation = 0.0;
  const size_t n = std::min(cargo_route->size(), tanker_route->size());
  for (size_t i = 0; i < n; ++i) {
    max_separation = std::max(
        max_separation,
        HaversineMeters((*cargo_route)[i],
                        (*tanker_route)[std::min(i, tanker_route->size() - 1)]));
  }
  EXPECT_GT(max_separation, 50000.0);
}

TEST(EnvClusPersistenceTest, SerializeRestoresForecasts) {
  const BoundingBox box{34.0, 18.0, 44.0, 30.0};
  const World world = World::RegionalWorld(box, 3, 13);
  EnvClusModel model(&world);
  const Lane* lane = nullptr;
  for (const Lane& l : world.lanes()) {
    if (l.from_port == 0 && l.to_port == 1) lane = &l;
  }
  ASSERT_NE(lane, nullptr);
  for (int i = 0; i < 4; ++i) {
    model.AddTrip(
        LaneTrip(*lane, 500 + static_cast<Mmsi>(i), VesselType::kTanker));
  }

  const std::string blob = model.Serialize();
  EnvClusModel restored(&world);
  ASSERT_TRUE(restored.Deserialize(blob).ok());
  EXPECT_EQ(restored.TotalTrips(), model.TotalTrips());
  EXPECT_EQ(restored.KnownOdPairs(), model.KnownOdPairs());

  auto original_route = model.ForecastRoute(0, 1, VesselType::kTanker);
  auto restored_route = restored.ForecastRoute(0, 1, VesselType::kTanker);
  ASSERT_TRUE(original_route.ok());
  ASSERT_TRUE(restored_route.ok());
  ASSERT_EQ(original_route->size(), restored_route->size());
  for (size_t i = 0; i < original_route->size(); ++i) {
    EXPECT_DOUBLE_EQ((*original_route)[i].lat_deg,
                     (*restored_route)[i].lat_deg);
    EXPECT_DOUBLE_EQ((*original_route)[i].lon_deg,
                     (*restored_route)[i].lon_deg);
  }
}

TEST(EnvClusPersistenceTest, RejectsBadBlobs) {
  const BoundingBox box{34.0, 18.0, 44.0, 30.0};
  const World world = World::RegionalWorld(box, 2, 13);
  EnvClusModel model(&world);
  EXPECT_FALSE(model.Deserialize("").ok());
  EXPECT_FALSE(model.Deserialize("wrong-magic 6 0 0\n").ok());
  // Resolution mismatch.
  EnvClusModel::Config other;
  other.resolution = 8;
  EnvClusModel fine(&world, other);
  EXPECT_EQ(fine.Deserialize(model.Serialize()).code(),
            StatusCode::kFailedPrecondition);
  // Truncated edge list.
  EXPECT_FALSE(model.Deserialize("marlin-envclus-v1 6 1 1\nG 0 1 1 5\n").ok());
}

TEST(EnvClusPersistenceTest, EmptyModelRoundTrips) {
  const BoundingBox box{34.0, 18.0, 44.0, 30.0};
  const World world = World::RegionalWorld(box, 2, 13);
  EnvClusModel model(&world);
  EnvClusModel restored(&world);
  ASSERT_TRUE(restored.Deserialize(model.Serialize()).ok());
  EXPECT_EQ(restored.TotalTrips(), 0);
  EXPECT_EQ(restored.KnownOdPairs(), 0);
}

// ---------------------------------------------------------- PatternsOfLife

TEST(PatternsOfLifeTest, AccumulatesPerCellStats) {
  PatternsOfLife pol(7);
  const LatLng spot{37.9, 23.6};
  for (int i = 0; i < 10; ++i) {
    AisPosition p;
    p.mmsi = 100 + static_cast<Mmsi>(i % 3);
    p.position = spot;
    p.sog_knots = 10.0 + i;  // mean 14.5
    p.cog_deg = 90.0;
    pol.AddObservation(p);
  }
  const CellMobilityStats stats = pol.Query(spot);
  EXPECT_EQ(stats.observations, 10);
  EXPECT_EQ(stats.distinct_vessels, 3);
  EXPECT_NEAR(stats.mean_sog_knots, 14.5, 1e-9);
  EXPECT_NEAR(stats.mean_cog_deg, 90.0, 1e-6);
  EXPECT_EQ(pol.TotalObservations(), 10);
  EXPECT_EQ(pol.ActiveCells(), 1u);
}

TEST(PatternsOfLifeTest, CircularMeanCourse) {
  PatternsOfLife pol(7);
  const LatLng spot{37.9, 23.6};
  for (double cog : {350.0, 10.0}) {
    AisPosition p;
    p.mmsi = 1;
    p.position = spot;
    p.cog_deg = cog;
    pol.AddObservation(p);
  }
  // Naive mean would be 180; circular mean is 0/360.
  const double mean = pol.Query(spot).mean_cog_deg;
  EXPECT_TRUE(mean < 1.0 || mean > 359.0) << mean;
}

TEST(PatternsOfLifeTest, TopCellsSortedByTraffic) {
  PatternsOfLife pol(6);
  auto add_at = [&pol](double lon, int count) {
    for (int i = 0; i < count; ++i) {
      AisPosition p;
      p.mmsi = 1;
      p.position = LatLng{38.0, lon};
      pol.AddObservation(p);
    }
  };
  add_at(20.0, 5);
  add_at(22.0, 15);
  add_at(24.0, 10);
  const auto top = pol.TopCells(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].observations, 15);
  EXPECT_EQ(top[1].observations, 10);
  EXPECT_EQ(pol.TopCells(10).size(), 3u);
}

TEST(PatternsOfLifeTest, QueryUnseenCellReturnsZeros) {
  PatternsOfLife pol(6);
  const CellMobilityStats stats = pol.Query(LatLng{0.0, 0.0});
  EXPECT_EQ(stats.observations, 0);
  EXPECT_EQ(stats.distinct_vessels, 0);
}

}  // namespace
}  // namespace marlin
