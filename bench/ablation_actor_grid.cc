// Ablation for the §3 architecture knobs: the cell-actor grid size
// ("a class for proximity event detection with variable size M") and the
// collision-actor partition size ("a class for collision forecasting with
// variable size K").
//
// Sweeps the proximity cell resolution and the collision region resolution
// on a fixed replayed fleet, reporting throughput, actor counts, and events
// found. Finer cells mean more (smaller) actors and cheaper per-cell scans;
// coarser collision regions mean fewer cross-boundary misses but more
// vessels per actor. The paper notes hot cells "do not slow down the
// system" — the throughput column quantifies that here.
//
// Scale knobs: MARLIN_AG_VESSELS, MARLIN_AG_MINUTES.

#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "core/pipeline.h"
#include "util/clock.h"
#include "vrf/linear_model.h"

namespace marlin {
namespace {

struct SweepRow {
  int cell_resolution;
  int collision_resolution;
  double wall_sec = 0.0;
  double throughput_msg_s = 0.0;
  size_t actors = 0;
  int64_t proximity_events = 0;
  int64_t collision_events = 0;
  double mean_us = 0.0;
};

SweepRow RunOnce(const std::vector<AisPosition>& messages, int cell_resolution,
                 int collision_resolution) {
  SweepRow row;
  row.cell_resolution = cell_resolution;
  row.collision_resolution = collision_resolution;
  PipelineConfig config;
  config.actor_system.num_threads = 2;
  config.cell_actor_resolution = cell_resolution;
  config.proximity.resolution = cell_resolution;
  config.collision_actor_resolution = collision_resolution;
  MaritimePipeline pipeline(std::make_shared<LinearKinematicModel>(), config);
  if (!pipeline.Start().ok()) return row;
  row.wall_sec = bench::ReplayMessages(
      messages,
      [&](const AisPosition& report) { (void)pipeline.Ingest(report); },
      [&] { pipeline.AwaitQuiescence(); });
  row.throughput_msg_s =
      static_cast<double>(messages.size()) / std::max(1e-9, row.wall_sec);
  const PipelineStats stats = pipeline.Stats();
  row.actors = stats.actor_count;
  row.mean_us = stats.mean_processing_nanos / 1000.0;
  // Count every event the writer persisted: RecentEvents() only keeps the
  // writer's newest 1024, which switch-off events crowd out.
  const KvStore& store = pipeline.store();
  for (const std::string& key : store.ScanPrefix("event:")) {
    const StatusOr<std::string> type = store.HGet(key, "type");
    if (!type.ok()) continue;
    if (*type == EventTypeName(EventType::kProximity)) ++row.proximity_events;
    if (*type == EventTypeName(EventType::kCollisionForecast)) {
      ++row.collision_events;
    }
  }
  return row;
}

int Run() {
  const int vessels =
      static_cast<int>(bench::EnvInt("MARLIN_AG_VESSELS", 1500));
  const double minutes =
      static_cast<double>(bench::EnvInt("MARLIN_AG_MINUTES", 60));

  std::printf("=== Ablation: cell-actor size M and collision-actor size K "
              "(§3) ===\n");
  std::printf("workload: %d vessels, %.0f min replay, linear VRF\n\n",
              vessels, minutes);

  const World world = World::GlobalWorld(7);
  des::EventFleetConfig fleet_config;
  fleet_config.num_vessels = vessels;
  fleet_config.seed = 4711;
  const std::vector<AisPosition> messages =
      des::RunFleet(world, fleet_config, minutes * 60.0);
  std::printf("replaying %zu messages per configuration\n\n", messages.size());

  std::printf("| cell res (M) | coll res (K) | actors | prox events | coll "
              "events | msg/s    | mean us |\n");
  std::printf("|--------------|--------------|--------|-------------|------"
              "------|----------|---------|\n");
  // Sweep M at fixed K, then K at fixed M.
  for (int cell_resolution : {8, 9, 10}) {
    const SweepRow row = RunOnce(messages, cell_resolution, 4);
    std::printf("| %12d | %12d | %6zu | %11lld | %11lld | %8.0f | %7.1f |\n",
                row.cell_resolution, row.collision_resolution, row.actors,
                static_cast<long long>(row.proximity_events),
                static_cast<long long>(row.collision_events),
                row.throughput_msg_s, row.mean_us);
  }
  for (int collision_resolution : {3, 4, 5}) {
    const SweepRow row = RunOnce(messages, 9, collision_resolution);
    std::printf("| %12d | %12d | %6zu | %11lld | %11lld | %8.0f | %7.1f |\n",
                row.cell_resolution, row.collision_resolution, row.actors,
                static_cast<long long>(row.proximity_events),
                static_cast<long long>(row.collision_events),
                row.throughput_msg_s, row.mean_us);
  }
  std::printf("\nreading: actor count rises with finer cell grids while "
              "throughput stays of the same order — hot cells do not stall "
              "the system (§3); coarser collision regions catch more "
              "cross-boundary pairs at the cost of larger per-actor state.\n");
  return 0;
}

}  // namespace
}  // namespace marlin

int main() { return marlin::Run(); }
