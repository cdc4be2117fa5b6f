#include <gtest/gtest.h>

#include <cmath>

#include "events/collision.h"
#include "events/collision_avoidance.h"
#include "events/port_congestion.h"
#include "sim/collision_eval.h"
#include "events/proximity.h"
#include "events/switch_off.h"
#include "events/traffic_flow.h"
#include "sim/proximity_dataset.h"
#include "vrf/linear_model.h"

namespace marlin {
namespace {

AisPosition At(Mmsi mmsi, TimeMicros t, double lat, double lon,
               double sog = 10.0, double cog = 0.0) {
  AisPosition p;
  p.mmsi = mmsi;
  p.timestamp = t;
  p.position = LatLng{lat, lon};
  p.sog_knots = sog;
  p.cog_deg = cog;
  return p;
}

/// Straight constant-velocity forecast trajectory starting at (lat, lon).
ForecastTrajectory MakeTrajectory(Mmsi mmsi, TimeMicros start, double lat,
                                  double lon, double cog, double sog_knots) {
  ForecastTrajectory trajectory;
  trajectory.mmsi = mmsi;
  LatLng pos{lat, lon};
  const double step_m = sog_knots * kKnotsToMps * 300.0;
  for (int i = 0; i <= kSvrfOutputSteps; ++i) {
    trajectory.points.push_back(
        ForecastPoint{pos, start + i * kSvrfStepMicros});
    pos = DestinationPoint(pos, cog, step_m);
  }
  return trajectory;
}

// ----------------------------------------------------- ProximityDetector

TEST(ProximityDetectorTest, DetectsClosePair) {
  ProximityDetector detector;
  EXPECT_TRUE(detector.Observe(At(1, 0, 38.0, 24.0)).empty());
  // 200 m east, 30 s later.
  const LatLng near = DestinationPoint(LatLng{38.0, 24.0}, 90.0, 200.0);
  const auto events = detector.Observe(
      At(2, 30 * kMicrosPerSecond, near.lat_deg, near.lon_deg));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kProximity);
  EXPECT_EQ(events[0].vessel_a, 2u);
  EXPECT_EQ(events[0].vessel_b, 1u);
  EXPECT_NEAR(events[0].distance_m, 200.0, 20.0);
}

TEST(ProximityDetectorTest, IgnoresFarPair) {
  ProximityDetector detector;
  detector.Observe(At(1, 0, 38.0, 24.0));
  const LatLng far = DestinationPoint(LatLng{38.0, 24.0}, 90.0, 2000.0);
  EXPECT_TRUE(
      detector.Observe(At(2, 10 * kMicrosPerSecond, far.lat_deg, far.lon_deg))
          .empty());
}

TEST(ProximityDetectorTest, DetectsAcrossCellBoundary) {
  // Place two vessels 300 m apart straddling a cell boundary: find a point
  // whose 300 m-east neighbour is in a different res-9 cell.
  ProximityDetector detector;
  LatLng a{38.0, 24.0};
  LatLng b = a;
  for (double lon = 24.0; lon < 25.0; lon += 0.001) {
    a = LatLng{38.0, lon};
    b = DestinationPoint(a, 90.0, 300.0);
    if (HexGrid::LatLngToCell(a, 9) != HexGrid::LatLngToCell(b, 9)) break;
  }
  ASSERT_NE(HexGrid::LatLngToCell(a, 9), HexGrid::LatLngToCell(b, 9));
  detector.Observe(At(1, 0, a.lat_deg, a.lon_deg));
  const auto events =
      detector.Observe(At(2, kMicrosPerSecond, b.lat_deg, b.lon_deg));
  ASSERT_EQ(events.size(), 1u);
}

TEST(ProximityDetectorTest, TimeWindowExcludesStaleObservations) {
  ProximityDetector detector;
  detector.Observe(At(1, 0, 38.0, 24.0));
  // Same spot, 10 minutes later: not simultaneous.
  EXPECT_TRUE(detector.Observe(At(2, 10 * kMicrosPerMinute, 38.0, 24.0)).empty());
}

TEST(ProximityDetectorTest, PairCooldownSuppressesDuplicates) {
  ProximityDetector detector;
  TimeMicros t = 0;
  detector.Observe(At(1, t, 38.0, 24.0));
  int events = 0;
  for (int i = 1; i <= 6; ++i) {
    t += 60 * kMicrosPerSecond;
    detector.Observe(At(1, t, 38.0, 24.0));
    events +=
        static_cast<int>(detector.Observe(At(2, t + 1000, 38.0, 24.0005)).size());
  }
  EXPECT_EQ(events, 1);  // deduped within the 10-minute cooldown
}

TEST(ProximityDetectorTest, SameVesselNeverSelfMatches) {
  ProximityDetector detector;
  detector.Observe(At(1, 0, 38.0, 24.0));
  EXPECT_TRUE(detector.Observe(At(1, 30 * kMicrosPerSecond, 38.0, 24.0)).empty());
}

TEST(ProximityDetectorTest, PruneDropsOldObservations) {
  ProximityDetector detector;
  for (int i = 0; i < 10; ++i) {
    detector.Observe(At(static_cast<Mmsi>(100 + i), i * kMicrosPerSecond,
                        38.0 + i * 0.1, 24.0));
  }
  EXPECT_EQ(detector.StoredObservations(), 10u);
  detector.Prune(2 * 60 * kMicrosPerMinute);
  EXPECT_EQ(detector.StoredObservations(), 0u);
}

// ----------------------------------------------------- SwitchOffDetector

TEST(SwitchOffDetectorTest, RaisesAfterSilence) {
  SwitchOffDetector detector;
  TimeMicros t = 0;
  for (int i = 0; i < 10; ++i) {
    detector.Observe(At(7, t, 38.0, 24.0));
    t += 60 * kMicrosPerSecond;
  }
  EXPECT_TRUE(detector.Check(t + 5 * kMicrosPerMinute).empty());
  const auto events = detector.Check(t + 45 * kMicrosPerMinute);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kAisSwitchOff);
  EXPECT_EQ(events[0].vessel_a, 7u);
  // One event per episode.
  EXPECT_TRUE(detector.Check(t + 90 * kMicrosPerMinute).empty());
}

TEST(SwitchOffDetectorTest, TransmissionResetsEpisode) {
  SwitchOffDetector detector;
  TimeMicros t = 0;
  for (int i = 0; i < 10; ++i) {
    detector.Observe(At(7, t, 38.0, 24.0));
    t += 60 * kMicrosPerSecond;
  }
  ASSERT_EQ(detector.Check(t + 45 * kMicrosPerMinute).size(), 1u);
  // Vessel transmits again, then goes silent again: a second event.
  t += 60 * kMicrosPerMinute;
  detector.Observe(At(7, t, 38.0, 24.0));
  const auto events = detector.Check(t + 60 * kMicrosPerMinute);
  ASSERT_EQ(events.size(), 1u);
}

TEST(SwitchOffDetectorTest, SparseTransmittersGetAdaptiveThreshold) {
  SwitchOffDetector detector;
  // Vessel with ~10-minute cadence (satellite coverage): 35 minutes of
  // silence is within 8x its typical interval, so no alarm.
  TimeMicros t = 0;
  for (int i = 0; i < 8; ++i) {
    detector.Observe(At(9, t, 38.0, 24.0));
    t += 10 * kMicrosPerMinute;
  }
  EXPECT_TRUE(detector.Check(t + 35 * kMicrosPerMinute).empty());
  EXPECT_FALSE(detector.Check(t + 100 * kMicrosPerMinute).empty());
}

TEST(SwitchOffDetectorTest, RequiresBaselineObservations) {
  SwitchOffDetector detector;
  detector.Observe(At(5, 0, 38.0, 24.0));
  EXPECT_TRUE(detector.Check(5 * 60 * kMicrosPerMinute).empty());
}

// ---------------------------------------------------- CollisionForecaster

TEST(CollisionForecasterTest, HeadOnCoursesCollide) {
  CollisionForecaster forecaster;
  const TimeMicros start = 1000 * kMicrosPerSecond;
  // Two vessels 6 km apart sailing directly at each other at 12 knots:
  // closing speed ~24 knots -> meet after ~8 minutes, inside the window.
  const LatLng a{38.0, 24.0};
  const LatLng b = DestinationPoint(a, 90.0, 6000.0);
  EXPECT_TRUE(forecaster
                  .Observe(MakeTrajectory(1, start, a.lat_deg, a.lon_deg, 90.0,
                                          12.0))
                  .empty());
  const auto events = forecaster.Observe(
      MakeTrajectory(2, start, b.lat_deg, b.lon_deg, 270.0, 12.0));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, EventType::kCollisionForecast);
  EXPECT_GT(events[0].event_time, start);
  EXPECT_LT(events[0].event_time, start + 30 * kMicrosPerMinute);
  EXPECT_LT(events[0].distance_m, 500.0);
}

TEST(CollisionForecasterTest, ParallelCoursesDoNotCollide) {
  CollisionForecaster forecaster;
  const TimeMicros start = 0;
  const LatLng a{38.0, 24.0};
  const LatLng b = DestinationPoint(a, 0.0, 5000.0);  // 5 km north
  forecaster.Observe(MakeTrajectory(1, start, a.lat_deg, a.lon_deg, 90.0, 12.0));
  EXPECT_TRUE(forecaster
                  .Observe(MakeTrajectory(2, start, b.lat_deg, b.lon_deg, 90.0,
                                          12.0))
                  .empty());
}

TEST(CollisionForecasterTest, CrossingAtDifferentTimesRespectsThreshold) {
  // Both vessels pass through the same point, but 4 minutes apart.
  // With a 2-minute temporal threshold: no collision. With 5: collision.
  const TimeMicros start = 0;
  const LatLng cross{38.0, 24.0};
  const double sog = 12.0;
  const double speed_mps = sog * kKnotsToMps;
  // Vessel 1 reaches `cross` after 10 min heading east.
  const LatLng start1 = DestinationPoint(cross, 270.0, speed_mps * 600.0);
  // Vessel 2 reaches `cross` after 14 min heading north.
  const LatLng start2 = DestinationPoint(cross, 180.0, speed_mps * 840.0);

  CollisionForecaster::Config strict;
  strict.temporal_threshold = 2 * kMicrosPerMinute;
  CollisionForecaster strict_forecaster(strict);
  strict_forecaster.Observe(
      MakeTrajectory(1, start, start1.lat_deg, start1.lon_deg, 90.0, sog));
  EXPECT_TRUE(strict_forecaster
                  .Observe(MakeTrajectory(2, start, start2.lat_deg,
                                          start2.lon_deg, 0.0, sog))
                  .empty());

  CollisionForecaster::Config loose;
  loose.temporal_threshold = 5 * kMicrosPerMinute;
  CollisionForecaster loose_forecaster(loose);
  loose_forecaster.Observe(
      MakeTrajectory(1, start, start1.lat_deg, start1.lon_deg, 90.0, sog));
  EXPECT_FALSE(loose_forecaster
                   .Observe(MakeTrajectory(2, start, start2.lat_deg,
                                           start2.lon_deg, 0.0, sog))
                   .empty());
}

TEST(CollisionForecasterTest, NewTrajectoryReplacesOld) {
  CollisionForecaster forecaster;
  const LatLng a{38.0, 24.0};
  const LatLng b = DestinationPoint(a, 90.0, 6000.0);
  // Vessel 1 initially on collision course, then updates to a diverging
  // course before vessel 2 appears.
  forecaster.Observe(MakeTrajectory(1, 0, a.lat_deg, a.lon_deg, 90.0, 12.0));
  forecaster.Observe(
      MakeTrajectory(1, 5 * kMicrosPerMinute, a.lat_deg, a.lon_deg, 270.0, 12.0));
  const auto events = forecaster.Observe(
      MakeTrajectory(2, 5 * kMicrosPerMinute, b.lat_deg, b.lon_deg, 270.0, 12.0));
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(forecaster.TrackedVessels(), 2u);
}

TEST(CollisionForecasterTest, CooldownSuppressesRepeatAlerts) {
  CollisionForecaster forecaster;
  const LatLng a{38.0, 24.0};
  const LatLng b = DestinationPoint(a, 90.0, 6000.0);
  int alerts = 0;
  for (int i = 0; i < 5; ++i) {
    const TimeMicros t = i * kMicrosPerMinute;
    forecaster.Observe(MakeTrajectory(1, t, a.lat_deg, a.lon_deg, 90.0, 12.0));
    alerts += static_cast<int>(
        forecaster
            .Observe(MakeTrajectory(2, t, b.lat_deg, b.lon_deg, 270.0, 12.0))
            .size());
  }
  EXPECT_EQ(alerts, 1);
}

TEST(CollisionForecasterTest, PruneDropsStaleTrajectories) {
  CollisionForecaster forecaster;
  forecaster.Observe(MakeTrajectory(1, 0, 38.0, 24.0, 90.0, 12.0));
  forecaster.Observe(MakeTrajectory(2, 0, 39.0, 25.0, 90.0, 12.0));
  EXPECT_EQ(forecaster.TrackedVessels(), 2u);
  forecaster.Prune(2 * 60 * kMicrosPerMinute);
  EXPECT_EQ(forecaster.TrackedVessels(), 0u);
}

// ------------------------------------------------- MinTrajectoryDistance

TEST(MinTrajectoryDistanceTest, HeadOnPairApproachesZero) {
  const LatLng a{38.0, 24.0};
  const LatLng b = DestinationPoint(a, 90.0, 8000.0);
  const auto ta = MakeTrajectory(1, 0, a.lat_deg, a.lon_deg, 90.0, 12.0);
  const auto tb = MakeTrajectory(2, 0, b.lat_deg, b.lon_deg, 270.0, 12.0);
  TimeMicros when = 0;
  LatLng where;
  const double d =
      MinTrajectoryDistance(ta, tb, 2 * kMicrosPerMinute, &when, &where);
  EXPECT_LT(d, 400.0);
  EXPECT_GT(when, 0);
  EXPECT_NEAR(where.lat_deg, 38.0, 0.05);
}

TEST(MinTrajectoryDistanceTest, ParallelPairKeepsSeparation) {
  const LatLng a{38.0, 24.0};
  const LatLng b = DestinationPoint(a, 0.0, 5000.0);
  const auto ta = MakeTrajectory(1, 0, a.lat_deg, a.lon_deg, 90.0, 12.0);
  const auto tb = MakeTrajectory(2, 0, b.lat_deg, b.lon_deg, 90.0, 12.0);
  const double d = MinTrajectoryDistance(ta, tb, 2 * kMicrosPerMinute);
  EXPECT_NEAR(d, 5000.0, 300.0);
}

TEST(MinTrajectoryDistanceTest, EmptyTrajectoriesAreInfinitelyFar) {
  ForecastTrajectory empty;
  const auto t = MakeTrajectory(1, 0, 38.0, 24.0, 90.0, 12.0);
  EXPECT_GT(MinTrajectoryDistance(empty, t, kMicrosPerMinute), 1e17);
}

// ---------------------------------------------------- CollisionAvoidance

TEST(CollisionAvoidanceTest, ProposesStarboardAlterationOnHeadOn) {
  const LatLng a{38.0, 24.0};
  const LatLng b = DestinationPoint(a, 90.0, 9000.0);
  const auto own = MakeTrajectory(1, 0, a.lat_deg, a.lon_deg, 90.0, 12.0);
  const auto other = MakeTrajectory(2, 0, b.lat_deg, b.lon_deg, 270.0, 12.0);
  CollisionAvoidance avoidance;
  auto maneuver = avoidance.Propose(own, other);
  ASSERT_TRUE(maneuver.ok()) << maneuver.status().ToString();
  EXPECT_EQ(maneuver->vessel, 1u);
  EXPECT_GT(maneuver->course_change_deg, 0.0);  // starboard preferred
  EXPECT_GE(maneuver->clearance_m, 1500.0);
  // The manoeuvre verifies: applying the course clears the other vessel.
  const auto altered =
      CollisionAvoidance::ApplyCourse(own, maneuver->new_course_deg);
  EXPECT_GE(MinTrajectoryDistance(altered, other, 2 * kMicrosPerMinute),
            1500.0);
}

TEST(CollisionAvoidanceTest, AlreadyClearIsFailedPrecondition) {
  const LatLng a{38.0, 24.0};
  const LatLng b = DestinationPoint(a, 0.0, 20000.0);
  const auto own = MakeTrajectory(1, 0, a.lat_deg, a.lon_deg, 90.0, 12.0);
  const auto other = MakeTrajectory(2, 0, b.lat_deg, b.lon_deg, 90.0, 12.0);
  CollisionAvoidance avoidance;
  EXPECT_EQ(avoidance.Propose(own, other).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CollisionAvoidanceTest, PrefersSmallestSufficientAlteration) {
  // Crossing geometry where a modest alteration suffices: the proposal
  // should not jump straight to the maximum.
  const LatLng cross{38.0, 24.0};
  const double sog = 14.0;
  const LatLng own_start =
      DestinationPoint(cross, 270.0, sog * kKnotsToMps * 900.0);
  const LatLng other_start =
      DestinationPoint(cross, 180.0, sog * kKnotsToMps * 900.0);
  const auto own = MakeTrajectory(1, 0, own_start.lat_deg, own_start.lon_deg,
                                  90.0, sog);
  const auto other = MakeTrajectory(2, 0, other_start.lat_deg,
                                    other_start.lon_deg, 0.0, sog);
  CollisionAvoidance avoidance;
  auto maneuver = avoidance.Propose(own, other);
  ASSERT_TRUE(maneuver.ok()) << maneuver.status().ToString();
  EXPECT_LE(std::abs(maneuver->course_change_deg), 60.0);
}

TEST(CollisionAvoidanceTest, ImpossibleClearanceIsNotFound) {
  // Demand an absurd clearance no 60-degree alteration can provide.
  const LatLng a{38.0, 24.0};
  const LatLng b = DestinationPoint(a, 90.0, 9000.0);
  CollisionAvoidance::Config config;
  config.min_clearance_m = 500000.0;
  CollisionAvoidance avoidance(config);
  auto result = avoidance.Propose(
      MakeTrajectory(1, 0, a.lat_deg, a.lon_deg, 90.0, 12.0),
      MakeTrajectory(2, 0, b.lat_deg, b.lon_deg, 270.0, 12.0));
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(CollisionAvoidanceTest, ApplyCoursePreservesTimesAndSpeed) {
  const auto own = MakeTrajectory(7, 1000, 38.0, 24.0, 90.0, 12.0);
  const auto altered = CollisionAvoidance::ApplyCourse(own, 135.0);
  ASSERT_EQ(altered.points.size(), own.points.size());
  EXPECT_EQ(altered.mmsi, own.mmsi);
  for (size_t i = 0; i < own.points.size(); ++i) {
    EXPECT_EQ(altered.points[i].time, own.points[i].time);
  }
  // Per-step distance preserved (same implied speed).
  const double original = ApproxDistanceMeters(own.points[0].position,
                                               own.points[1].position);
  const double rebuilt = ApproxDistanceMeters(altered.points[0].position,
                                              altered.points[1].position);
  EXPECT_NEAR(rebuilt, original, original * 0.02);
  // New heading honoured.
  EXPECT_NEAR(InitialBearingDeg(altered.points[0].position,
                                altered.points[1].position),
              135.0, 1.0);
}

// ------------------------------------------------------------------ VTFF

TEST(TrafficFlowTest, CountsVesselsPerCellAndWindow) {
  TrafficFlowForecaster forecaster;
  // Three vessels forecast through the same area eastward.
  for (Mmsi m = 1; m <= 3; ++m) {
    forecaster.Observe(
        MakeTrajectory(m, 0, 38.0, 24.0 + 0.001 * m, 90.0, 12.0));
  }
  EXPECT_EQ(forecaster.TrackedVessels(), 3u);
  // At every horizon the total count across cells is 3.
  for (int step = 1; step <= kSvrfOutputSteps; ++step) {
    int total = 0;
    for (const FlowCell& cell : forecaster.Flow(step)) total += cell.count;
    EXPECT_EQ(total, 3) << "step " << step;
  }
  // The cell ahead of the fleet has traffic at the right horizon.
  const LatLng probe = DestinationPoint(LatLng{38.0, 24.0}, 90.0,
                                        12.0 * kKnotsToMps * 300.0);
  EXPECT_GT(forecaster.FlowAt(probe, 1), 0);
}

TEST(TrafficFlowTest, ReobservationReplacesContribution) {
  TrafficFlowForecaster forecaster;
  forecaster.Observe(MakeTrajectory(1, 0, 38.0, 24.0, 90.0, 12.0));
  // Updated forecast far away: old cells must be vacated.
  forecaster.Observe(MakeTrajectory(1, kMicrosPerMinute, 45.0, 10.0, 90.0, 12.0));
  for (int step = 1; step <= kSvrfOutputSteps; ++step) {
    int total = 0;
    for (const FlowCell& cell : forecaster.Flow(step)) total += cell.count;
    EXPECT_EQ(total, 1);
  }
  EXPECT_EQ(forecaster.FlowAt(DestinationPoint(LatLng{38.0, 24.0}, 90.0, 1800.0), 1),
            0);
}

TEST(TrafficFlowTest, InvalidStepYieldsEmpty) {
  TrafficFlowForecaster forecaster;
  forecaster.Observe(MakeTrajectory(1, 0, 38.0, 24.0, 90.0, 12.0));
  EXPECT_TRUE(forecaster.Flow(0).empty());
  EXPECT_TRUE(forecaster.Flow(kSvrfOutputSteps + 1).empty());
  EXPECT_EQ(forecaster.FlowAt(LatLng{38.0, 24.0}, 0), 0);
}

TEST(TrafficFlowTest, PruneRemovesStaleVessels) {
  TrafficFlowForecaster forecaster;
  forecaster.Observe(MakeTrajectory(1, 0, 38.0, 24.0, 90.0, 12.0));
  forecaster.Prune(60 * kMicrosPerMinute);
  EXPECT_EQ(forecaster.TrackedVessels(), 0u);
  EXPECT_TRUE(forecaster.Flow(1).empty());
}

TEST(DirectTrafficTest, MovingAverageOverWindows) {
  DirectTrafficForecaster forecaster;
  const LatLng spot{38.0, 24.0};
  // Window 1: 4 vessels. Window 2: 2 vessels.
  for (Mmsi m = 1; m <= 4; ++m) forecaster.Observe(At(m, 0, 38.0, 24.0));
  forecaster.Roll(5 * kMicrosPerMinute);
  for (Mmsi m = 1; m <= 2; ++m) {
    forecaster.Observe(At(m, 6 * kMicrosPerMinute, 38.0, 24.0));
  }
  forecaster.Roll(10 * kMicrosPerMinute);
  EXPECT_NEAR(forecaster.Forecast(spot, 1), 3.0, 1e-9);
}

TEST(DirectTrafficTest, DistinctVesselsCountedOncePerWindow) {
  DirectTrafficForecaster forecaster;
  for (int i = 0; i < 10; ++i) {
    forecaster.Observe(At(1, i * kMicrosPerSecond, 38.0, 24.0));
  }
  forecaster.Roll(5 * kMicrosPerMinute);
  EXPECT_NEAR(forecaster.Forecast(LatLng{38.0, 24.0}, 1), 1.0, 1e-9);
}

TEST(DirectTrafficTest, UnseenCellForecastsZero) {
  DirectTrafficForecaster forecaster;
  EXPECT_DOUBLE_EQ(forecaster.Forecast(LatLng{0.0, 0.0}, 1), 0.0);
}

// -------------------------------------------------------- Collision eval

TEST(CollisionEvalTest, LinearModelScoresWellOnSyntheticDataset) {
  ProximityDatasetConfig config;
  config.events_under_2min = 15;
  config.events_2_to_5min = 20;
  config.events_5_to_12min = 15;
  config.negatives = 20;
  const ProximityDataset dataset = GenerateProximityDataset(config);
  LinearKinematicModel model;
  const CollisionEvalResult result = EvaluateCollisionForecasting(
      model, dataset, ProximitySubset::kAll, 5 * kMicrosPerMinute);
  EXPECT_EQ(result.total_events, 50);
  EXPECT_EQ(result.tp + result.fn, 50);
  // Straight-line encounters: dead reckoning should catch most.
  EXPECT_GT(result.recall, 0.8) << "tp=" << result.tp << " fn=" << result.fn;
  EXPECT_GT(result.precision, 0.8) << "fp=" << result.fp;
  EXPECT_GT(result.accuracy, 0.7);
  EXPECT_LE(result.accuracy, 1.0);
}

TEST(CollisionEvalTest, SubsetsFilterEvents) {
  ProximityDatasetConfig config;
  config.events_under_2min = 10;
  config.events_2_to_5min = 10;
  config.events_5_to_12min = 10;
  config.negatives = 5;
  const ProximityDataset dataset = GenerateProximityDataset(config);
  LinearKinematicModel model;
  const auto all = EvaluateCollisionForecasting(
      model, dataset, ProximitySubset::kAll, 2 * kMicrosPerMinute);
  const auto sub_a = EvaluateCollisionForecasting(
      model, dataset, ProximitySubset::kUnder2, 2 * kMicrosPerMinute);
  const auto sub_b = EvaluateCollisionForecasting(
      model, dataset, ProximitySubset::kUnder5, 5 * kMicrosPerMinute);
  EXPECT_EQ(all.total_events, 30);
  EXPECT_EQ(sub_a.total_events, 10);
  EXPECT_EQ(sub_b.total_events, 20);
}

TEST(CollisionEvalTest, MetricsAreConsistent) {
  ProximityDatasetConfig config;
  config.events_under_2min = 5;
  config.events_2_to_5min = 5;
  config.events_5_to_12min = 5;
  config.negatives = 5;
  const ProximityDataset dataset = GenerateProximityDataset(config);
  LinearKinematicModel model;
  const auto r = EvaluateCollisionForecasting(
      model, dataset, ProximitySubset::kAll, 2 * kMicrosPerMinute);
  if (r.tp + r.fp > 0) {
    EXPECT_NEAR(r.precision,
                static_cast<double>(r.tp) / (r.tp + r.fp), 1e-12);
  }
  EXPECT_NEAR(r.recall, static_cast<double>(r.tp) / (r.tp + r.fn), 1e-12);
  EXPECT_NEAR(r.accuracy,
              static_cast<double>(r.tp) / (r.tp + r.fp + r.fn), 1e-12);
}

// -------------------------------------------------------- PortCongestion

TEST(PortCongestionTest, OccupancyTracksPresence) {
  std::vector<Port> ports = {{"Alpha", LatLng{38.0, 24.0}},
                             {"Beta", LatLng{40.0, 26.0}}};
  PortCongestionMonitor monitor(ports);
  // Two vessels in Alpha, one in Beta.
  monitor.ObservePosition(At(1, kMicrosPerMinute, 38.01, 24.01));
  monitor.ObservePosition(At(2, kMicrosPerMinute, 38.02, 23.99));
  monitor.ObservePosition(At(3, kMicrosPerMinute, 40.01, 26.0));
  auto status = monitor.Status(2 * kMicrosPerMinute);
  EXPECT_EQ(status[0].occupancy, 2);
  EXPECT_EQ(status[1].occupancy, 1);
  EXPECT_FALSE(status[0].congested);
}

TEST(PortCongestionTest, DepartureMovesOccupancy) {
  std::vector<Port> ports = {{"Alpha", LatLng{38.0, 24.0}},
                             {"Beta", LatLng{40.0, 26.0}}};
  PortCongestionMonitor monitor(ports);
  monitor.ObservePosition(At(1, kMicrosPerMinute, 38.0, 24.0));
  EXPECT_EQ(monitor.PortStatus(0, 2 * kMicrosPerMinute).occupancy, 1);
  // Vessel sails away (mid-sea), then shows up at Beta.
  monitor.ObservePosition(At(1, 10 * kMicrosPerMinute, 39.0, 25.0));
  EXPECT_EQ(monitor.PortStatus(0, 11 * kMicrosPerMinute).occupancy, 0);
  monitor.ObservePosition(At(1, 20 * kMicrosPerMinute, 40.0, 26.0));
  EXPECT_EQ(monitor.PortStatus(1, 21 * kMicrosPerMinute).occupancy, 1);
}

TEST(PortCongestionTest, PresenceExpires) {
  std::vector<Port> ports = {{"Alpha", LatLng{38.0, 24.0}}};
  PortCongestionMonitor::Config config;
  config.presence_ttl = 30 * kMicrosPerMinute;
  PortCongestionMonitor monitor(ports, config);
  monitor.ObservePosition(At(1, 0, 38.0, 24.0));
  EXPECT_EQ(monitor.PortStatus(0, 10 * kMicrosPerMinute).occupancy, 1);
  EXPECT_EQ(monitor.PortStatus(0, 60 * kMicrosPerMinute).occupancy, 0);
}

TEST(PortCongestionTest, ForecastArrivalsCountAsInbound) {
  std::vector<Port> ports = {{"Alpha", LatLng{38.0, 24.0}}};
  PortCongestionMonitor monitor(ports);
  // Vessel 25 km west of the port heading east at 30 knots: the forecast
  // enters the 20 km port radius within 30 min.
  const LatLng start = DestinationPoint(LatLng{38.0, 24.0}, 270.0, 25000.0);
  monitor.ObserveForecast(MakeTrajectory(9, kMicrosPerMinute, start.lat_deg,
                                         start.lon_deg, 90.0, 30.0));
  const auto status = monitor.PortStatus(0, 2 * kMicrosPerMinute);
  EXPECT_EQ(status.inbound_30min, 1);
  EXPECT_EQ(status.occupancy, 0);
}

TEST(PortCongestionTest, CongestionFlagThreshold) {
  std::vector<Port> ports = {{"Alpha", LatLng{38.0, 24.0}}};
  PortCongestionMonitor::Config config;
  config.congestion_threshold = 3;
  PortCongestionMonitor monitor(ports, config);
  for (Mmsi mmsi = 1; mmsi <= 4; ++mmsi) {
    monitor.ObservePosition(At(mmsi, kMicrosPerMinute, 38.0, 24.0));
  }
  EXPECT_TRUE(monitor.PortStatus(0, 2 * kMicrosPerMinute).congested);
}

TEST(PortCongestionTest, InPortVesselNotInbound) {
  std::vector<Port> ports = {{"Alpha", LatLng{38.0, 24.0}}};
  PortCongestionMonitor monitor(ports);
  monitor.ObservePosition(At(5, kMicrosPerMinute, 38.0, 24.0));
  monitor.ObserveForecast(
      MakeTrajectory(5, kMicrosPerMinute, 38.0, 24.0, 90.0, 2.0));
  const auto status = monitor.PortStatus(0, 2 * kMicrosPerMinute);
  EXPECT_EQ(status.occupancy, 1);
  EXPECT_EQ(status.inbound_30min, 0);
}

}  // namespace
}  // namespace marlin
