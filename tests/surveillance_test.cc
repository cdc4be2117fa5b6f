#include <gtest/gtest.h>

#include <memory>

#include "core/pipeline.h"
#include "geo/world.h"
#include "sim/des/event_fleet.h"
#include "vrf/linear_model.h"

namespace marlin {
namespace {

AisPosition At(Mmsi mmsi, TimeMicros t, LatLng where) {
  AisPosition p;
  p.mmsi = mmsi;
  p.timestamp = t;
  p.position = where;
  p.sog_knots = 12.0;
  p.cog_deg = 90.0;
  return p;
}

TEST(SurveillanceTest, SwitchOffDetectedEndToEnd) {
  PipelineConfig config;
  config.actor_system.num_threads = 2;
  config.switch_off.silence_threshold = 20 * kMicrosPerMinute;
  config.switch_off.min_observations = 5;
  MaritimePipeline pipeline(std::make_shared<LinearKinematicModel>(), config);
  ASSERT_TRUE(pipeline.Start().ok());

  // Vessel 1 transmits regularly for 30 minutes, then goes dark; vessel 2
  // keeps transmitting, driving stream time forward so the periodic check
  // fires (the surveillance actor scans every 256 observations).
  LatLng a{38.0, 24.0};
  LatLng b{40.0, 28.0};
  TimeMicros t = 0;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(pipeline.Ingest(At(1, t, a)).ok());
    ASSERT_TRUE(pipeline.Ingest(At(2, t + kMicrosPerSecond, b)).ok());
    a = DestinationPoint(a, 90.0, 300.0);
    b = DestinationPoint(b, 90.0, 300.0);
    t += kMicrosPerMinute;
  }
  // Vessel 1 silent for 2 hours while vessel 2 keeps talking.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(pipeline.Ingest(At(2, t, b)).ok());
    b = DestinationPoint(b, 90.0, 150.0);
    t += 24 * kMicrosPerSecond;
  }
  pipeline.AwaitQuiescence();

  bool found = false;
  for (const MaritimeEvent& event : pipeline.RecentEvents(100)) {
    if (event.type == EventType::kAisSwitchOff && event.vessel_a == 1) {
      found = true;
      // The event carries the last known position/time of the dark vessel.
      EXPECT_GT(event.event_time, 0);
      EXPECT_NEAR(event.location.lat_deg, 38.0, 0.2);
    }
    // Vessel 2 never qualifies.
    if (event.type == EventType::kAisSwitchOff) {
      EXPECT_NE(event.vessel_a, 2u);
    }
  }
  EXPECT_TRUE(found);
  // The vessel actor of the dark vessel was notified (state feedback).
  auto events = pipeline.VesselEvents(1);
  ASSERT_TRUE(events.ok());
  bool vessel_notified = false;
  for (const MaritimeEvent& event : *events) {
    if (event.type == EventType::kAisSwitchOff) vessel_notified = true;
  }
  EXPECT_TRUE(vessel_notified);
}

TEST(SurveillanceTest, SimulatedTransmitterSwitchOffCaughtInFleetStream) {
  // End-to-end on the simulated fleet: one vessel of a small fleet
  // switches its transmitter off after a 40-minute baseline, i.e. its
  // reports stop reaching the pipeline.
  const World world = World::GlobalWorld(7);
  des::EventFleetConfig fleet_config;
  fleet_config.num_vessels = 12;
  fleet_config.seed = 99;
  const Mmsi dark_vessel = fleet_config.mmsi_base;
  const TimeMicros switch_off = fleet_config.start_time + 40 * kMicrosPerMinute;
  std::vector<AisPosition> messages;
  for (const AisPosition& report :
       des::RunFleet(world, fleet_config, (40.0 + 120.0) * 60.0)) {
    if (report.mmsi == dark_vessel && report.timestamp >= switch_off) continue;
    messages.push_back(report);
  }

  PipelineConfig config;
  config.actor_system.num_threads = 2;
  config.switch_off.silence_threshold = 30 * kMicrosPerMinute;
  MaritimePipeline pipeline(std::make_shared<LinearKinematicModel>(), config);
  ASSERT_TRUE(pipeline.Start().ok());
  for (const AisPosition& report : messages) {
    ASSERT_TRUE(pipeline.Ingest(report).ok());
  }
  pipeline.AwaitQuiescence();

  bool found = false;
  for (const MaritimeEvent& event : pipeline.RecentEvents(1000)) {
    if (event.type == EventType::kAisSwitchOff &&
        event.vessel_a == dark_vessel) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace marlin
