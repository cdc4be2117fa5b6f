#include "workload.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "ais/codec.h"
#include "sim/des/event_fleet.h"
#include "sim/des/scheduler.h"
#include "util/hash.h"

namespace perfbench {
namespace {

using marlin::BoundingBox;
using marlin::des::EventFleet;
using marlin::des::EventFleetConfig;
using marlin::des::EventScheduler;

// Saronic Gulf approach to Piraeus: 0.7 deg x 1.2 deg.
constexpr BoundingBox kHarbourBox{37.55, 23.00, 38.25, 24.20};
// A global viewport over the Singapore Strait.
constexpr BoundingBox kStraitBox{0.0, 100.0, 4.0, 106.0};

marlin::des::EventSchedulerConfig SchedulerConfig(uint64_t seed) {
  marlin::des::EventSchedulerConfig config;
  config.seed = seed;
  config.start_time = EventFleetConfig().start_time;
  return config;
}

WorkloadSpec OceanSteady() {
  WorkloadSpec spec;
  spec.vessels = 1500;
  spec.warmup_virtual_sec = 40 * 60.0;
  spec.burst_size = 2048;
  spec.burst_rate_hint = 34000.0;
  spec.offered_rate = 11600.0;
  spec.viewport = kStraitBox;
  return spec;
}

WorkloadSpec FleetArrival() {
  WorkloadSpec spec;
  spec.vessels = 20000;
  spec.arrival_span_sec = 3 * 3600.0;
  spec.warmup_virtual_sec = 5 * 60.0;
  spec.burst_size = 4096;
  spec.burst_rate_hint = 60000.0;
  spec.offered_rate = 11600.0;
  spec.viewport = kStraitBox;
  return spec;
}

WorkloadSpec HarbourWatch() {
  WorkloadSpec spec;
  spec.regional = true;
  spec.box = kHarbourBox;
  spec.ports = 6;
  spec.vessels = 300;
  spec.warmup_virtual_sec = 40 * 60.0;
  spec.burst_size = 512;
  spec.burst_rate_hint = 2000.0;
  spec.offered_rate = 1000.0;
  spec.ui_client = true;
  spec.ui_think_ms = 20;
  spec.viewport = kHarbourBox;
  return spec;
}

}  // namespace

bool LookupWorkload(const std::string& name, bool smoke, WorkloadSpec* spec) {
  if (name == "ocean_steady") {
    *spec = OceanSteady();
  } else if (name == "fleet_arrival") {
    *spec = FleetArrival();
  } else if (name == "harbour_watch") {
    *spec = HarbourWatch();
  } else {
    return false;
  }
  if (smoke) {
    spec->vessels = std::max(50, spec->vessels / 20);
    spec->warmup_virtual_sec = std::min(spec->warmup_virtual_sec, 15 * 60.0);
    spec->arrival_span_sec /= 4.0;
    spec->burst_size = std::max(64, spec->burst_size / 8);
    spec->burst_rate_hint /= 10.0;
    spec->offered_rate /= 10.0;
  }
  return true;
}

marlin::World BuildWorld(const WorkloadSpec& spec) {
  if (spec.regional) {
    return marlin::World::RegionalWorld(spec.box, spec.ports, /*seed=*/11);
  }
  return marlin::World::GlobalWorld(7);
}

Stream GenerateStream(const WorkloadSpec& spec, const marlin::World& world,
                      uint64_t seed, size_t after_warmup, size_t* warmup,
                      size_t limit) {
  Stream stream;
  EventFleetConfig config;
  config.num_vessels = spec.vessels;
  config.seed = seed;
  config.arrival_span_sec = spec.arrival_span_sec;
  stream.mmsi_base = config.mmsi_base;
  const TimeMicros warmup_end =
      config.start_time + static_cast<TimeMicros>(spec.warmup_virtual_sec *
                                                  marlin::kMicrosPerSecond);
  size_t warmup_size = SIZE_MAX;

  EventScheduler scheduler(SchedulerConfig(seed));
  EventFleet fleet(&world, config, &scheduler, [&](const AisPosition& report) {
    if (warmup_size == SIZE_MAX && report.timestamp >= warmup_end) {
      warmup_size = stream.size();
    }
    std::string sentence = marlin::AisCodec::EncodePosition(report);
    auto decoded = marlin::AisCodec::DecodePosition(sentence, report.timestamp);
    if (!decoded.ok()) {
      ++stream.decode_errors;
      return;
    }
    stream.sentences.push_back(std::move(sentence));
    stream.received_at.push_back(report.timestamp);
    stream.decoded.push_back(*decoded);
  });
  while ((warmup_size == SIZE_MAX ||
          stream.size() < warmup_size + after_warmup) &&
         stream.size() < limit && scheduler.Step()) {
  }
  *warmup = std::min(warmup_size, stream.size());
  return stream;
}

uint64_t StreamHash(const Stream& stream, size_t prefix) {
  std::string bytes;
  const size_t n = std::min(prefix, stream.size());
  for (size_t i = 0; i < n; ++i) {
    bytes += stream.sentences[i];
    bytes += '\n';
  }
  return marlin::Fnv1a(bytes);
}

std::vector<marlin::SvrfSample> GenerateTrainingSamples(
    const marlin::World& world, uint64_t seed, bool smoke) {
  EventFleetConfig config;
  config.num_vessels = smoke ? 20 : 60;
  config.seed = seed ^ 0x5EEDF00DULL;
  config.mmsi_base = 900000000;
  std::map<Mmsi, std::vector<AisPosition>> tracks;
  EventScheduler scheduler(SchedulerConfig(config.seed));
  EventFleet fleet(&world, config, &scheduler, [&](const AisPosition& report) {
    tracks[report.mmsi].push_back(report);
  });
  const double hours = smoke ? 2.0 : 6.0;
  scheduler.RunUntil(config.start_time +
                     static_cast<TimeMicros>(hours * 3600.0 *
                                             marlin::kMicrosPerSecond));
  marlin::SampleBuilderOptions options;
  options.stride = 6;
  std::vector<marlin::SvrfSample> samples;
  for (const auto& [mmsi, track] : tracks) {
    const auto built = marlin::BuildSvrfSamples(track, options);
    samples.insert(samples.end(), built.begin(), built.end());
  }
  return samples;
}

}  // namespace perfbench
