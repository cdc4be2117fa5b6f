#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "ais/preprocess.h"
#include "geo/world.h"
#include "sim/des/event_fleet.h"
#include "sim/des/scheduler.h"
#include "sim/proximity_dataset.h"
#include "sim/vessel.h"

namespace marlin {
namespace {

// ---------------------------------------------------------------- World

TEST(WorldTest, GlobalWorldHasPortsAndLanes) {
  const World world = World::GlobalWorld();
  EXPECT_EQ(world.ports().size(), 40u);
  EXPECT_GT(world.lanes().size(), 80u);
  for (const Lane& lane : world.lanes()) {
    EXPECT_GE(lane.waypoints.size(), 2u);
    EXPECT_GT(lane.length_m, 0.0);
    EXPECT_NE(lane.from_port, lane.to_port);
    // Endpoints coincide with the ports.
    EXPECT_LT(HaversineMeters(lane.waypoints.front(),
                              world.ports()[lane.from_port].position),
              1.0);
    EXPECT_LT(HaversineMeters(lane.waypoints.back(),
                              world.ports()[lane.to_port].position),
              1.0);
  }
}

TEST(WorldTest, EveryPortHasOutgoingLanes) {
  const World world = World::GlobalWorld();
  for (size_t p = 0; p < world.ports().size(); ++p) {
    EXPECT_FALSE(world.LanesFrom(static_cast<int>(p)).empty())
        << world.ports()[p].name;
  }
}

TEST(WorldTest, WaypointsFollowLaneWithoutHugeJumps) {
  const World world = World::GlobalWorld();
  for (const Lane& lane : world.lanes()) {
    for (size_t i = 1; i < lane.waypoints.size(); ++i) {
      const double d =
          HaversineMeters(lane.waypoints[i - 1], lane.waypoints[i]);
      EXPECT_LT(d, 200000.0);  // < 200 km between consecutive waypoints
    }
  }
}

TEST(WorldTest, RegionalWorldRespectsBounds) {
  const BoundingBox aegean{35.0, 23.0, 40.0, 27.0};
  const World world = World::RegionalWorld(aegean, 12, 5);
  EXPECT_EQ(world.ports().size(), 12u);
  for (const Port& port : world.ports()) {
    EXPECT_TRUE(aegean.Contains(port.position));
  }
  for (size_t p = 0; p < world.ports().size(); ++p) {
    EXPECT_FALSE(world.LanesFrom(static_cast<int>(p)).empty());
  }
}

TEST(WorldTest, DeterministicForSeed) {
  const World a = World::GlobalWorld(3);
  const World b = World::GlobalWorld(3);
  ASSERT_EQ(a.lanes().size(), b.lanes().size());
  for (size_t i = 0; i < a.lanes().size(); ++i) {
    ASSERT_EQ(a.lanes()[i].waypoints.size(), b.lanes()[i].waypoints.size());
    EXPECT_EQ(a.lanes()[i].waypoints[1].lat_deg,
              b.lanes()[i].waypoints[1].lat_deg);
  }
}

TEST(WorldTest, LanesFromEmptyForUnknownPort) {
  const World world = World::GlobalWorld(7);
  EXPECT_TRUE(world.LanesFrom(10000).empty());
}

// ------------------------------------------------------------ Emission

TEST(EmissionModelTest, IntervalMixtureHasExpectedMean) {
  EmissionModel model;
  Rng rng(5);
  double sum = 0.0;
  const int n = 200000;
  double max_interval = 0.0;
  for (int i = 0; i < n; ++i) {
    const double interval = model.SampleIntervalSec(&rng);
    EXPECT_GT(interval, 0.0);
    sum += interval;
    max_interval = std::max(max_interval, interval);
  }
  const double expected = model.p_nominal *
                              (model.nominal_min_sec + model.nominal_max_sec) /
                              2.0 +
                          model.p_degraded * model.degraded_mean_sec +
                          (1.0 - model.p_nominal - model.p_degraded) *
                              model.gap_mean_sec;
  EXPECT_NEAR(sum / n, expected, expected * 0.05);
  // The heavy tail exists: some intervals are vastly above the mean.
  EXPECT_GT(max_interval, 10.0 * expected);
}

// ---------------------------------------------------------------- Fleet

TEST(EventFleetTest, EveryVesselTransmits) {
  const World world = World::GlobalWorld();
  des::EventFleetConfig config;
  config.num_vessels = 50;
  config.seed = 23;
  const auto messages = des::RunFleet(world, config, 3600.0);
  std::set<Mmsi> seen;
  for (const auto& m : messages) seen.insert(m.mmsi);
  EXPECT_GT(messages.size(), 500u);
  EXPECT_GE(seen.size(), 45u);  // nearly every vessel transmits in an hour
  for (size_t i = 0; i < messages.size(); ++i) {
    const AisPosition& m = messages[i];
    EXPECT_GE(m.mmsi, config.mmsi_base);
    EXPECT_LT(m.mmsi, config.mmsi_base + 50);
    EXPECT_GT(m.sog_knots, 0.0);
    EXPECT_GE(m.position.lat_deg, -90.0);
    EXPECT_LE(m.position.lat_deg, 90.0);
    EXPECT_GE(m.position.lon_deg, -180.0);
    EXPECT_LE(m.position.lon_deg, 180.0);
    // One global stream, in virtual-time order.
    if (i > 0) {
      EXPECT_GE(m.timestamp, messages[i - 1].timestamp);
    }
  }
}

TEST(EventFleetTest, StreamStatisticsMatchPaperRegime) {
  // §6.1: after 30 s downsampling, mean sampling interval 78.6 s with a
  // standard deviation of 418.3 s. Require the same regime: mean within
  // [55, 110] s and a heavy tail (stddev > 150 s, i.e. far above the mean
  // spacing — the signature of satellite gaps).
  const World world = World::GlobalWorld();
  des::EventFleetConfig config;
  config.num_vessels = 150;
  config.seed = 29;
  const auto tracks = des::RunFleetTracks(world, config, 6.0 * 3600.0);
  double sum = 0.0, sum_sq = 0.0;
  int64_t n = 0;
  for (const auto& [mmsi, track] : tracks) {
    Downsampler ds;
    TimeMicros last = -1;
    for (const auto& report : track) {
      if (!ds.Accept(report.timestamp)) continue;
      if (last >= 0) {
        const double dt =
            static_cast<double>(report.timestamp - last) / kMicrosPerSecond;
        sum += dt;
        sum_sq += dt * dt;
        ++n;
      }
      last = report.timestamp;
    }
  }
  ASSERT_GT(n, 1000);
  const double mean = sum / static_cast<double>(n);
  const double var = sum_sq / static_cast<double>(n) - mean * mean;
  const double stddev = std::sqrt(std::max(0.0, var));
  EXPECT_GT(mean, 55.0) << "mean=" << mean;
  EXPECT_LT(mean, 110.0) << "mean=" << mean;
  EXPECT_GT(stddev, 150.0) << "stddev=" << stddev;
}

/// Number of vessels whose first report falls within `window_sec` of the
/// stream start.
int VesselsHeardWithin(const std::vector<AisPosition>& stream,
                       TimeMicros start, double window_sec) {
  std::set<Mmsi> heard;
  for (const AisPosition& report : stream) {
    if (report.timestamp - start > window_sec * kMicrosPerSecond) break;
    heard.insert(report.mmsi);
  }
  return static_cast<int>(heard.size());
}

TEST(EventFleetTest, ArrivalSpanIntroducesVesselsGradually) {
  const World world = World::GlobalWorld();
  des::EventFleetConfig config;
  config.num_vessels = 100;
  config.seed = 31;
  const auto at_once = des::RunFleet(world, config, 60.0);
  config.arrival_span_sec = 3000.0;
  const auto arriving = des::RunFleet(world, config, 6000.0);
  // Without a span nearly the whole fleet is heard within a minute; with
  // one, only the front of the arrival ramp is, and everyone by the end.
  EXPECT_GT(VesselsHeardWithin(at_once, config.start_time, 60.0), 80);
  EXPECT_LT(VesselsHeardWithin(arriving, config.start_time, 60.0), 30);
  EXPECT_GE(VesselsHeardWithin(arriving, config.start_time, 6000.0), 95);
}

TEST(EventFleetTest, TracksLongEnoughForSvrfSamples) {
  const World world = World::GlobalWorld();
  des::EventFleetConfig config;
  config.num_vessels = 30;
  config.seed = 41;
  const auto tracks = des::RunFleetTracks(world, config, 5.0 * 3600.0);
  int with_samples = 0;
  SampleBuilderOptions options;
  options.stride = 3;
  for (const auto& [mmsi, track] : tracks) {
    if (!BuildSvrfSamples(track, options).empty()) ++with_samples;
  }
  // Most vessels yield usable supervised windows within 5 hours.
  EXPECT_GT(with_samples, 15);
}

TEST(EventFleetTest, StaticInfoIsPlausible) {
  const World world = World::GlobalWorld(7);
  des::EventFleetConfig config;
  config.num_vessels = 20;
  config.seed = 17;
  const double seconds = 1800.0;
  des::EventScheduler scheduler({config.seed, config.start_time});
  std::vector<AisPosition> stream;
  des::EventFleet fleet(&world, config, &scheduler,
                        [&stream](const AisPosition& report) {
                          stream.push_back(report);
                        });
  for (int i = 0; i < fleet.num_vessels(); ++i) {
    const AisStatic info = fleet.StaticInfo(i);
    EXPECT_EQ(info.mmsi, config.mmsi_base + static_cast<Mmsi>(i));
    EXPECT_NE(info.type, VesselType::kUnknown);
    EXPECT_GT(info.length_m, 10.0);
    EXPECT_LT(info.length_m, 400.0);
    EXPECT_GT(info.beam_m, 1.0);
    EXPECT_LT(info.beam_m, info.length_m);
    EXPECT_GT(info.draught_m, 0.0);
    EXPECT_GT(info.dwt, 0.0);
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.destination.empty());
    // Asking again gives the same record.
    EXPECT_EQ(fleet.StaticInfo(i).length_m, info.length_m);
  }
  scheduler.RunUntil(config.start_time +
                     static_cast<TimeMicros>(seconds * kMicrosPerSecond));
  // Asking never perturbs the stream.
  const auto untouched = des::RunFleet(world, config, seconds);
  ASSERT_EQ(stream.size(), untouched.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(stream[i] == untouched[i]) << "diverged at " << i;
  }
}

TEST(EventFleetTest, MovesConsistentlyWithReportedSpeed) {
  // Between two transmissions a vessel sails its lane at the speed it
  // reports at the second one (up to the SOG noise). The straight-line
  // displacement never exceeds that path (plus GNSS noise) and, summed over
  // the fleet, stays comparable to it: no teleporting, no standstill.
  const World world = World::GlobalWorld();
  des::EventFleetConfig config;
  config.num_vessels = 40;
  config.seed = 11;
  const double sog_noise_knots = 0.5;
  const double position_noise_m = 100.0;
  const auto tracks = des::RunFleetTracks(world, config, 2.0 * 3600.0);
  double travelled_m = 0.0;
  double path_m = 0.0;
  int64_t legs = 0;
  for (const auto& [mmsi, track] : tracks) {
    for (size_t i = 1; i < track.size(); ++i) {
      const double dt_sec =
          static_cast<double>(track[i].timestamp - track[i - 1].timestamp) /
          kMicrosPerSecond;
      const double leg_m = HaversineMeters(track[i - 1].position,
                                           track[i].position);
      const double max_m =
          (track[i].sog_knots + sog_noise_knots) * kKnotsToMps * dt_sec;
      EXPECT_LT(leg_m, max_m + position_noise_m) << mmsi << " report " << i;
      travelled_m += leg_m;
      path_m += track[i].sog_knots * kKnotsToMps * dt_sec;
      ++legs;
    }
  }
  ASSERT_GT(legs, 1000);
  EXPECT_GT(travelled_m, 0.8 * path_m);
  EXPECT_LT(travelled_m, 1.05 * path_m);
}

// -------------------------------------------------------- ProximityDataset

TEST(ProximityDatasetTest, ReproducesPaperComposition) {
  ProximityDatasetConfig config;
  const ProximityDataset dataset = GenerateProximityDataset(config);
  EXPECT_EQ(dataset.TotalEvents(), 237);
  EXPECT_EQ(dataset.EventsWithin(120.0), 61);   // Sub dataset A
  EXPECT_EQ(dataset.EventsWithin(300.0), 152);  // Sub dataset B
  EXPECT_EQ(static_cast<int>(dataset.scenarios.size()),
            237 + config.negatives);
  EXPECT_GT(dataset.TotalMessages(), 3000);
}

TEST(ProximityDatasetTest, TruthConsistentWithTracks) {
  ProximityDatasetConfig config;
  config.events_under_2min = 10;
  config.events_2_to_5min = 10;
  config.events_5_to_12min = 10;
  config.negatives = 10;
  const ProximityDataset dataset = GenerateProximityDataset(config);
  for (const auto& scenario : dataset.scenarios) {
    // Empirical minimum distance between the two tracks around the CPA
    // (sampled by interpolating both tracks on a common time grid).
    double min_d = 1e18;
    for (TimeMicros t = scenario.truth.cpa_time - 3 * kMicrosPerMinute;
         t <= scenario.truth.cpa_time + 3 * kMicrosPerMinute;
         t += 5 * kMicrosPerSecond) {
      auto pa = InterpolatePosition(scenario.track_a, t);
      auto pb = InterpolatePosition(scenario.track_b, t);
      if (!pa.ok() || !pb.ok()) continue;
      min_d = std::min(min_d, ApproxDistanceMeters(*pa, *pb));
    }
    ASSERT_LT(min_d, 1e18);
    if (scenario.truth.is_event) {
      EXPECT_LT(min_d, config.proximity_threshold_m + 150.0)
          << "event pair " << scenario.truth.vessel_a;
    } else {
      // Negatives include hard near-misses, but never below the proximity
      // threshold itself (truth CPA >= 1.6x threshold; empirical sampling
      // and track noise can shave a little off).
      EXPECT_GT(min_d, config.proximity_threshold_m)
          << "negative pair " << scenario.truth.vessel_a;
    }
  }
}

TEST(ProximityDatasetTest, HistoriesLongEnoughForModelInput) {
  ProximityDatasetConfig config;
  config.events_under_2min = 5;
  config.events_2_to_5min = 5;
  config.events_5_to_12min = 5;
  config.negatives = 5;
  const ProximityDataset dataset = GenerateProximityDataset(config);
  for (const auto& scenario : dataset.scenarios) {
    int before_eval_a = 0, before_eval_b = 0;
    for (const auto& m : scenario.track_a) {
      if (m.timestamp <= scenario.eval_time) ++before_eval_a;
    }
    for (const auto& m : scenario.track_b) {
      if (m.timestamp <= scenario.eval_time) ++before_eval_b;
    }
    EXPECT_GE(before_eval_a, kSvrfInputLength + 1);
    EXPECT_GE(before_eval_b, kSvrfInputLength + 1);
  }
}

TEST(ProximityDatasetTest, DeterministicForSeed) {
  ProximityDatasetConfig config;
  config.events_under_2min = 3;
  config.events_2_to_5min = 3;
  config.events_5_to_12min = 3;
  config.negatives = 3;
  const ProximityDataset a = GenerateProximityDataset(config);
  const ProximityDataset b = GenerateProximityDataset(config);
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  for (size_t i = 0; i < a.scenarios.size(); ++i) {
    EXPECT_EQ(a.scenarios[i].truth.cpa_time, b.scenarios[i].truth.cpa_time);
    EXPECT_DOUBLE_EQ(a.scenarios[i].truth.cpa_distance_m,
                     b.scenarios[i].truth.cpa_distance_m);
  }
}

// ------------------------------------------------------ Encounter tracks

TEST(EncounterTrackTest, YieldsTrainableSamples) {
  Rng rng(33);
  const BoundingBox aegean{35.0, 23.0, 40.0, 27.0};
  const auto track = GenerateEncounterStyleTrack(900000001, aegean,
                                                 2.5 * 3600.0, 60.0, &rng);
  ASSERT_GT(track.size(), 60u);
  // Timestamps strictly increase; positions stay in/near the region.
  for (size_t i = 1; i < track.size(); ++i) {
    EXPECT_GT(track[i].timestamp, track[i - 1].timestamp);
  }
  SampleBuilderOptions options;
  const auto samples = BuildSvrfSamples(track, options);
  EXPECT_GT(samples.size(), 10u);
}

TEST(EncounterTrackTest, CurvedTracksTurnAtTheConfiguredRate) {
  // Generate many tracks; at least some must show sustained course change
  // (the manoeuvre distribution the Table-2 difficulty relies on).
  Rng rng(77);
  const BoundingBox aegean{35.0, 23.0, 40.0, 27.0};
  int curved = 0;
  for (int i = 0; i < 10; ++i) {
    const auto track = GenerateEncounterStyleTrack(
        900000100 + static_cast<Mmsi>(i), aegean, 3600.0, 60.0, &rng);
    if (track.size() < 10) continue;
    const double first = track.front().cog_deg;
    const double last = track.back().cog_deg;
    const double change =
        std::abs(std::fmod(last - first + 540.0, 360.0) - 180.0);
    if (change > 20.0) ++curved;
  }
  EXPECT_GE(curved, 2);
}

}  // namespace
}  // namespace marlin
