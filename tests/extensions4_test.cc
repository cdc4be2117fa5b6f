#include <gtest/gtest.h>

#include <cstdio>

#include "ais/stream_io.h"
#include "events/collision_avoidance.h"
#include "geo/world.h"
#include "sim/des/event_fleet.h"

namespace marlin {
namespace {

ForecastTrajectory Straight(Mmsi mmsi, TimeMicros start, LatLng from,
                            double cog, double sog_knots) {
  ForecastTrajectory trajectory;
  trajectory.mmsi = mmsi;
  LatLng position = from;
  for (int i = 0; i <= kSvrfOutputSteps; ++i) {
    trajectory.points.push_back(
        ForecastPoint{position, start + i * kSvrfStepMicros});
    position = DestinationPoint(position, cog, sog_knots * kKnotsToMps * 300.0);
  }
  return trajectory;
}

// ------------------------------------------------ MinTrajectoryDistance

TEST(MinTrajectoryDistanceTest, HeadOnPairApproachesZero) {
  const LatLng a{38.0, 24.0};
  const LatLng b = DestinationPoint(a, 90.0, 8000.0);
  const auto ta = Straight(1, 0, a, 90.0, 12.0);
  const auto tb = Straight(2, 0, b, 270.0, 12.0);
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
  const auto ta = Straight(1, 0, a, 90.0, 12.0);
  const auto tb = Straight(2, 0, b, 90.0, 12.0);
  const double d = MinTrajectoryDistance(ta, tb, 2 * kMicrosPerMinute);
  EXPECT_NEAR(d, 5000.0, 300.0);
}

TEST(MinTrajectoryDistanceTest, EmptyTrajectoriesAreInfinitelyFar) {
  ForecastTrajectory empty;
  const auto t = Straight(1, 0, LatLng{38.0, 24.0}, 90.0, 12.0);
  EXPECT_GT(MinTrajectoryDistance(empty, t, kMicrosPerMinute), 1e17);
}

// -------------------------------------------------- CollisionAvoidance

TEST(CollisionAvoidanceTest, ProposesStarboardAlterationOnHeadOn) {
  const LatLng a{38.0, 24.0};
  const LatLng b = DestinationPoint(a, 90.0, 9000.0);
  const auto own = Straight(1, 0, a, 90.0, 12.0);
  const auto other = Straight(2, 0, b, 270.0, 12.0);
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
  const auto own = Straight(1, 0, a, 90.0, 12.0);
  const auto other = Straight(2, 0, b, 90.0, 12.0);
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
  const auto own = Straight(1, 0, own_start, 90.0, sog);
  const auto other = Straight(2, 0, other_start, 0.0, sog);
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
  auto result = avoidance.Propose(Straight(1, 0, a, 90.0, 12.0),
                                  Straight(2, 0, b, 270.0, 12.0));
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(CollisionAvoidanceTest, ApplyCoursePreservesTimesAndSpeed) {
  const auto own = Straight(7, 1000, LatLng{38.0, 24.0}, 90.0, 12.0);
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

// ---------------------------------------------------------- Stream I/O

TEST(StreamIoTest, LogRoundTripPreservesStream) {
  const World world = World::GlobalWorld(7);
  des::EventFleetConfig config;
  config.num_vessels = 10;
  config.seed = 3;
  const auto messages = des::RunFleet(world, config, 1800.0);
  ASSERT_GT(messages.size(), 20u);

  const std::string log = EncodeAivdmLog(messages);
  int dropped = -1;
  const auto decoded = DecodeAivdmLog(log, &dropped);
  EXPECT_EQ(dropped, 0);
  ASSERT_EQ(decoded.size(), messages.size());
  for (size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(decoded[i].mmsi, messages[i].mmsi);
    // AIS carries only the UTC second; the fleet's timestamps are not
    // whole seconds.
    EXPECT_EQ(decoded[i].timestamp,
              messages[i].timestamp / kMicrosPerSecond * kMicrosPerSecond);
    EXPECT_NEAR(decoded[i].position.lat_deg, messages[i].position.lat_deg,
                2e-6);
    EXPECT_NEAR(decoded[i].position.lon_deg, messages[i].position.lon_deg,
                2e-6);
    EXPECT_NEAR(decoded[i].sog_knots, messages[i].sog_knots, 0.06);
  }
}

TEST(StreamIoTest, FileRoundTrip) {
  std::vector<AisPosition> messages;
  AisPosition p;
  p.mmsi = 237000005;
  p.timestamp = TimeMicros{1700000000} * kMicrosPerSecond;
  p.position = LatLng{37.9, 23.6};
  p.sog_knots = 11.0;
  p.cog_deg = 255.0;
  messages.push_back(p);
  const std::string path = "/tmp/marlin_stream_test.log";
  ASSERT_TRUE(WriteAivdmLog(messages, path).ok());
  auto restored = ReadAivdmLog(path);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->size(), 1u);
  EXPECT_EQ((*restored)[0].mmsi, 237000005u);
  std::remove(path.c_str());
}

TEST(StreamIoTest, SkipsCorruptLinesAndComments) {
  const std::string log =
      "# receiver dump\n"
      "notatimestamp !AIVDM,...\n"
      "12345\n"
      "1000000 !AIVDM,1,1,,A,garbage,0*00\n";
  int dropped = 0;
  const auto decoded = DecodeAivdmLog(log, &dropped);
  EXPECT_TRUE(decoded.empty());
  EXPECT_EQ(dropped, 3);
}

}  // namespace
}  // namespace marlin
