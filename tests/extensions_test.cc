#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <unordered_set>

#include "ais/codec.h"
#include "core/pipeline.h"
#include "events/port_congestion.h"
#include "events/route_deviation.h"
#include "sim/weather.h"
#include "stream/broker.h"
#include "vrf/envclus.h"
#include "vrf/linear_model.h"

namespace marlin {
namespace {

AisPosition At(Mmsi mmsi, TimeMicros t, LatLng where, double sog = 12.0,
               double cog = 90.0) {
  AisPosition p;
  p.mmsi = mmsi;
  p.timestamp = t;
  p.position = where;
  p.sog_knots = sog;
  p.cog_deg = cog;
  p.heading_deg = static_cast<int>(cog);
  return p;
}

ForecastTrajectory StraightForecast(Mmsi mmsi, TimeMicros start, LatLng from,
                                    double cog, double sog) {
  ForecastTrajectory trajectory;
  trajectory.mmsi = mmsi;
  LatLng position = from;
  for (int i = 0; i <= kSvrfOutputSteps; ++i) {
    trajectory.points.push_back(
        ForecastPoint{position, start + i * kSvrfStepMicros});
    position = DestinationPoint(position, cog, sog * kKnotsToMps * 300.0);
  }
  return trajectory;
}

// ------------------------------------------------------- Class B + codec

TEST(ClassBCodecTest, RoundTrip) {
  AisPosition original = At(339000123, TimeMicros{1700000000} * kMicrosPerSecond + 14 * kMicrosPerSecond,
                            LatLng{36.5, 25.4}, 8.7, 301.2);
  const std::string sentence = AisCodec::EncodePositionClassB(original);
  StatusOr<AisPosition> decoded =
      AisCodec::DecodePosition(sentence, original.timestamp);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->mmsi, original.mmsi);
  EXPECT_NEAR(decoded->position.lat_deg, original.position.lat_deg, 1e-5);
  EXPECT_NEAR(decoded->position.lon_deg, original.position.lon_deg, 1e-5);
  EXPECT_NEAR(decoded->sog_knots, original.sog_knots, 0.06);
  EXPECT_NEAR(decoded->cog_deg, original.cog_deg, 0.06);
  EXPECT_EQ(decoded->nav_status, NavStatus::kUndefined);
}

TEST(FragmentInfoTest, ParsesSingleAndMulti) {
  AisPosition p = At(237000001, 0, LatLng{38.0, 24.0});
  auto single = AisCodec::ParseFragmentInfo(AisCodec::EncodePosition(p));
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->fragment_count, 1);
  EXPECT_EQ(single->sequence_id, -1);

  AisStatic s;
  s.mmsi = 237000001;
  s.name = "TEST";
  const auto pair = AisCodec::EncodeStatic(s);
  auto first = AisCodec::ParseFragmentInfo(pair[0]);
  auto second = AisCodec::ParseFragmentInfo(pair[1]);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->fragment_count, 2);
  EXPECT_EQ(first->fragment_number, 1);
  EXPECT_EQ(second->fragment_number, 2);
  EXPECT_EQ(first->sequence_id, second->sequence_id);
  EXPECT_FALSE(AisCodec::ParseFragmentInfo("garbage").ok());
}

TEST(AivdmAssemblerTest, SingleFragmentPassesThrough) {
  AivdmAssembler assembler;
  const std::string sentence =
      AisCodec::EncodePosition(At(237000001, 0, LatLng{38.0, 24.0}));
  auto result = assembler.Feed(sentence);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0], sentence);
  EXPECT_EQ(assembler.PendingGroups(), 0u);
}

TEST(AivdmAssemblerTest, ReassemblesInterleavedGroups) {
  AisStatic a;
  a.mmsi = 237000001;
  a.name = "ALPHA";
  AisStatic b;
  b.mmsi = 237000002;
  b.name = "BRAVO";
  auto group_a = AisCodec::EncodeStatic(a);
  auto group_b = AisCodec::EncodeStatic(b);
  // Give group B a different sequence id so the groups are distinct.
  for (std::string& sentence : group_b) {
    const size_t pos = sentence.find(",1,A,");
    // EncodeStatic always uses seq id 1; rewrite to 2 and fix checksum.
    if (pos == std::string::npos) continue;
    std::string body = sentence.substr(1, sentence.rfind('*') - 1);
    body[body.find(",1,A,") + 1] = '2';
    char buf[8];
    std::snprintf(buf, sizeof(buf), "*%02X", AisCodec::Checksum(body));
    sentence = "!" + body + buf;
  }
  AivdmAssembler assembler;
  // Interleave: A1, B1, B2 (completes B), A2 (completes A).
  auto r1 = assembler.Feed(group_a[0]);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->empty());
  auto r2 = assembler.Feed(group_b[0]);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->empty());
  EXPECT_EQ(assembler.PendingGroups(), 2u);
  auto r3 = assembler.Feed(group_b[1]);
  ASSERT_TRUE(r3.ok());
  ASSERT_EQ(r3->size(), 2u);
  auto decoded_b = AisCodec::DecodeStatic(*r3);
  ASSERT_TRUE(decoded_b.ok());
  EXPECT_EQ(decoded_b->name, "BRAVO");
  auto r4 = assembler.Feed(group_a[1]);
  ASSERT_TRUE(r4.ok());
  ASSERT_EQ(r4->size(), 2u);
  auto decoded_a = AisCodec::DecodeStatic(*r4);
  ASSERT_TRUE(decoded_a.ok());
  EXPECT_EQ(decoded_a->name, "ALPHA");
  EXPECT_EQ(assembler.PendingGroups(), 0u);
}

TEST(AivdmAssemblerTest, EvictsStaleGroups) {
  AivdmAssembler assembler(2);
  AisStatic s;
  s.name = "X";
  // Feed only first fragments of many groups with distinct mmsi/seq —
  // EncodeStatic always emits seq 1, so rewrite the channel letter to vary
  // the key instead.
  for (char channel : {'A', 'B', 'C', 'D'}) {
    s.mmsi = 237000000 + channel;
    auto pair = AisCodec::EncodeStatic(s);
    std::string body = pair[0].substr(1, pair[0].rfind('*') - 1);
    body[body.find(",1,A,") + 3] = channel;
    char buf[8];
    std::snprintf(buf, sizeof(buf), "*%02X", AisCodec::Checksum(body));
    ASSERT_TRUE(assembler.Feed("!" + body + buf).ok());
  }
  EXPECT_LE(assembler.PendingGroups(), 2u);
}

// -------------------------------------------------------- Output topics

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
                    .Ingest(At(700, static_cast<TimeMicros>(i) * kMicrosPerMinute,
                               position))
                    .ok());
    pipeline.AwaitQuiescence();
    position = DestinationPoint(position, 90.0, 12.0 * kKnotsToMps * 60.0);
  }
  ASSERT_TRUE(
      pipeline
          .Ingest(At(701,
                     static_cast<TimeMicros>(kSvrfInputLength + 2) *
                             kMicrosPerMinute +
                         kMicrosPerSecond,
                     DestinationPoint(position, 270.0,
                                      12.0 * kKnotsToMps * 60.0 + 100.0)))
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

// ------------------------------------------------------- PortCongestion

TEST(PortCongestionTest, OccupancyTracksPresence) {
  std::vector<Port> ports = {{"Alpha", LatLng{38.0, 24.0}},
                             {"Beta", LatLng{40.0, 26.0}}};
  PortCongestionMonitor monitor(ports);
  // Two vessels in Alpha, one in Beta.
  monitor.ObservePosition(At(1, kMicrosPerMinute, LatLng{38.01, 24.01}));
  monitor.ObservePosition(At(2, kMicrosPerMinute, LatLng{38.02, 23.99}));
  monitor.ObservePosition(At(3, kMicrosPerMinute, LatLng{40.01, 26.0}));
  auto status = monitor.Status(2 * kMicrosPerMinute);
  EXPECT_EQ(status[0].occupancy, 2);
  EXPECT_EQ(status[1].occupancy, 1);
  EXPECT_FALSE(status[0].congested);
}

TEST(PortCongestionTest, DepartureMovesOccupancy) {
  std::vector<Port> ports = {{"Alpha", LatLng{38.0, 24.0}},
                             {"Beta", LatLng{40.0, 26.0}}};
  PortCongestionMonitor monitor(ports);
  monitor.ObservePosition(At(1, kMicrosPerMinute, LatLng{38.0, 24.0}));
  EXPECT_EQ(monitor.PortStatus(0, 2 * kMicrosPerMinute).occupancy, 1);
  // Vessel sails away (mid-sea), then shows up at Beta.
  monitor.ObservePosition(At(1, 10 * kMicrosPerMinute, LatLng{39.0, 25.0}));
  EXPECT_EQ(monitor.PortStatus(0, 11 * kMicrosPerMinute).occupancy, 0);
  monitor.ObservePosition(At(1, 20 * kMicrosPerMinute, LatLng{40.0, 26.0}));
  EXPECT_EQ(monitor.PortStatus(1, 21 * kMicrosPerMinute).occupancy, 1);
}

TEST(PortCongestionTest, PresenceExpires) {
  std::vector<Port> ports = {{"Alpha", LatLng{38.0, 24.0}}};
  PortCongestionMonitor::Config config;
  config.presence_ttl = 30 * kMicrosPerMinute;
  PortCongestionMonitor monitor(ports, config);
  monitor.ObservePosition(At(1, 0, LatLng{38.0, 24.0}));
  EXPECT_EQ(monitor.PortStatus(0, 10 * kMicrosPerMinute).occupancy, 1);
  EXPECT_EQ(monitor.PortStatus(0, 60 * kMicrosPerMinute).occupancy, 0);
}

TEST(PortCongestionTest, ForecastArrivalsCountAsInbound) {
  std::vector<Port> ports = {{"Alpha", LatLng{38.0, 24.0}}};
  PortCongestionMonitor monitor(ports);
  // Vessel 25 km west of the port heading east at 30 knots: the forecast
  // enters the 20 km port radius within 30 min.
  const LatLng start = DestinationPoint(LatLng{38.0, 24.0}, 270.0, 25000.0);
  monitor.ObserveForecast(StraightForecast(9, kMicrosPerMinute, start, 90.0, 30.0));
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
    monitor.ObservePosition(At(mmsi, kMicrosPerMinute, LatLng{38.0, 24.0}));
  }
  EXPECT_TRUE(monitor.PortStatus(0, 2 * kMicrosPerMinute).congested);
}

TEST(PortCongestionTest, InPortVesselNotInbound) {
  std::vector<Port> ports = {{"Alpha", LatLng{38.0, 24.0}}};
  PortCongestionMonitor monitor(ports);
  monitor.ObservePosition(At(5, kMicrosPerMinute, LatLng{38.0, 24.0}));
  monitor.ObserveForecast(
      StraightForecast(5, kMicrosPerMinute, LatLng{38.0, 24.0}, 90.0, 2.0));
  const auto status = monitor.PortStatus(0, 2 * kMicrosPerMinute);
  EXPECT_EQ(status.occupancy, 1);
  EXPECT_EQ(status.inbound_30min, 0);
}

// ------------------------------------------------------- RouteDeviation

class RouteDeviationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const BoundingBox box{34.0, 18.0, 44.0, 30.0};
    world_ = std::make_unique<World>(World::RegionalWorld(box, 3, 13));
    model_ = std::make_unique<EnvClusModel>(world_.get());
    // Historical pathway: port 0 -> port 1 along the direct lane.
    const Lane* lane = nullptr;
    for (const Lane& l : world_->lanes()) {
      if (l.from_port == 0 && l.to_port == 1) lane = &l;
    }
    ASSERT_NE(lane, nullptr);
    Trip trip;
    trip.mmsi = 42;
    trip.origin_port = 0;
    trip.destination_port = 1;
    trip.vessel_type = VesselType::kCargo;
    TimeMicros t = 0;
    for (const LatLng& waypoint : lane->waypoints) {
      trip.points.push_back(At(42, t, waypoint));
      t += kMicrosPerMinute;
    }
    model_->AddTrip(trip);
    lane_ = lane;
  }

  std::unique_ptr<World> world_;
  std::unique_ptr<EnvClusModel> model_;
  const Lane* lane_ = nullptr;
};

TEST_F(RouteDeviationTest, OnCorridorPositionsAreQuiet) {
  RouteDeviationDetector detector(model_.get());
  ASSERT_TRUE(detector.StartVoyage(77, 0, 1).ok());
  TimeMicros t = 0;
  for (const LatLng& waypoint : lane_->waypoints) {
    EXPECT_FALSE(detector.Observe(At(77, t, waypoint)).has_value());
    t += kMicrosPerMinute;
  }
}

TEST_F(RouteDeviationTest, OffCorridorRaisesAfterConfirmation) {
  RouteDeviationDetector::Config config;
  config.confirmation_count = 3;
  RouteDeviationDetector detector(model_.get(), config);
  ASSERT_TRUE(detector.StartVoyage(77, 0, 1).ok());
  // ~150 km perpendicular off the lane midpoint: far outside the corridor.
  const LatLng mid = lane_->waypoints[lane_->waypoints.size() / 2];
  const double lane_bearing =
      InitialBearingDeg(lane_->waypoints.front(), lane_->waypoints.back());
  const LatLng off = DestinationPoint(mid, lane_bearing + 90.0, 150000.0);
  EXPECT_FALSE(detector.Observe(At(77, 0, off)).has_value());
  EXPECT_FALSE(detector.Observe(At(77, kMicrosPerMinute, off)).has_value());
  auto event = detector.Observe(At(77, 2 * kMicrosPerMinute, off));
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->type, EventType::kRouteDeviation);
  EXPECT_EQ(event->vessel_a, 77u);
  // Cooldown suppresses immediate re-alerts.
  EXPECT_FALSE(detector.Observe(At(77, 3 * kMicrosPerMinute, off)).has_value());
}

TEST_F(RouteDeviationTest, ReturnToCorridorsResetsConfirmation) {
  RouteDeviationDetector::Config config;
  config.confirmation_count = 2;
  RouteDeviationDetector detector(model_.get(), config);
  ASSERT_TRUE(detector.StartVoyage(77, 0, 1).ok());
  const LatLng mid = lane_->waypoints[lane_->waypoints.size() / 2];
  const LatLng off = DestinationPoint(mid, 90.0, 150000.0);
  EXPECT_FALSE(detector.Observe(At(77, 0, off)).has_value());
  // Back on the lane: counter resets.
  EXPECT_FALSE(detector.Observe(At(77, kMicrosPerMinute, mid)).has_value());
  EXPECT_FALSE(detector.Observe(At(77, 2 * kMicrosPerMinute, off)).has_value());
}

TEST_F(RouteDeviationTest, UnknownOdPairAndUntrackedVessel) {
  RouteDeviationDetector detector(model_.get());
  EXPECT_EQ(detector.StartVoyage(1, 0, 2).code(), StatusCode::kNotFound);
  EXPECT_FALSE(detector.Observe(At(123, 0, LatLng{0, 0})).has_value());
  detector.EndVoyage(123);  // no-op
}

// ------------------------------------------------------------- Weather

TEST(WeatherTest, DeterministicAndSmooth) {
  const WeatherField field(7);
  const WeatherField same(7);
  const LatLng p{45.0, -30.0};
  const TimeMicros t = TimeMicros{1700000000} * kMicrosPerSecond;
  const WeatherSample a = field.At(p, t);
  const WeatherSample b = same.At(p, t);
  EXPECT_DOUBLE_EQ(a.wind_speed_mps, b.wind_speed_mps);
  EXPECT_DOUBLE_EQ(a.wave_height_m, b.wave_height_m);
  // Smooth in space: 1 km apart differs by little.
  const WeatherSample c = field.At(DestinationPoint(p, 90.0, 1000.0), t);
  EXPECT_LT(std::abs(a.wind_speed_mps - c.wind_speed_mps), 1.0);
}

TEST(WeatherTest, FieldVariesAcrossSpaceAndTime) {
  const WeatherField field(7);
  const TimeMicros t = TimeMicros{1700000000} * kMicrosPerSecond;
  const WeatherSample here = field.At(LatLng{40.0, -30.0}, t);
  const WeatherSample there = field.At(LatLng{-10.0, 100.0}, t);
  const WeatherSample later =
      field.At(LatLng{40.0, -30.0}, t + 3 * 24 * 3600 * kMicrosPerSecond);
  EXPECT_NE(here.wind_speed_mps, there.wind_speed_mps);
  EXPECT_NE(here.wind_speed_mps, later.wind_speed_mps);
  EXPECT_GT(here.wave_height_m, 0.0);
}

TEST(WeatherTest, PenaltyBounded) {
  const WeatherField field(3);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const LatLng p{rng.Uniform(-80, 80), rng.Uniform(-179, 179)};
    const double penalty =
        field.RoutePenalty(p, static_cast<TimeMicros>(rng.Uniform(0, 1e15)));
    EXPECT_GE(penalty, 0.0);
    EXPECT_LE(penalty, 1.0);
  }
}

TEST(WeatherTest, WeatherAwareRoutingAvoidsPenalisedCells) {
  // Two equally travelled pathways diverge; penalising one's cells must
  // flip the forecast to the other.
  const BoundingBox box{34.0, 18.0, 44.0, 30.0};
  const World world = World::RegionalWorld(box, 2, 21);
  EnvClusModel model(&world);
  const LatLng start = world.ports()[0].position;
  const LatLng end = world.ports()[1].position;
  auto make_trip = [&](double detour_bearing, Mmsi mmsi) {
    Trip trip;
    trip.mmsi = mmsi;
    trip.origin_port = 0;
    trip.destination_port = 1;
    trip.vessel_type = VesselType::kCargo;
    const double bearing = InitialBearingDeg(start, end);
    const double total = HaversineMeters(start, end);
    TimeMicros t = 0;
    for (int i = 0; i <= 40; ++i) {
      const double f = i / 40.0;
      LatLng p = DestinationPoint(start, bearing, total * f);
      p = DestinationPoint(p, bearing + detour_bearing,
                           60000.0 * std::sin(kPi * f));
      trip.points.push_back(At(mmsi, t, p));
      t += kMicrosPerMinute;
    }
    return trip;
  };
  for (int i = 0; i < 3; ++i) {
    model.AddTrip(make_trip(90.0, 100 + i));   // south branch
    model.AddTrip(make_trip(-90.0, 200 + i));  // north branch
  }
  auto neutral = model.ForecastRoute(0, 1, VesselType::kCargo);
  ASSERT_TRUE(neutral.ok());
  // Penalise every cell of the neutral route heavily; the alternative
  // branch must be chosen.
  std::unordered_set<CellId> penalised;
  for (const LatLng& p : *neutral) {
    penalised.insert(HexGrid::LatLngToCell(p, model.config().resolution));
  }
  auto avoided = model.ForecastRoute(
      0, 1, VesselType::kCargo, [&penalised](CellId cell) {
        return penalised.count(cell) > 0 ? 50.0 : 0.0;
      });
  ASSERT_TRUE(avoided.ok());
  int overlap = 0;
  for (const LatLng& p : *avoided) {
    if (penalised.count(HexGrid::LatLngToCell(p, model.config().resolution)) >
        0) {
      ++overlap;
    }
  }
  // Endpoints necessarily overlap (same ports); the middle must not.
  EXPECT_LE(overlap, static_cast<int>(avoided->size() / 3));
}

}  // namespace
}  // namespace marlin
