// Collision watch: the Figure-4f scenario — a trained S-VRF mounted on the
// pipeline forecasts vessel routes in the Aegean; converging vessel pairs
// raise collision-forecast events that appear in the event list with the
// involved MMSIs and the estimated time of the collision.
//
// Run: ./build/examples/collision_watch

#include <cstdio>
#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "sim/des/event_fleet.h"
#include "sim/proximity_dataset.h"
#include "vrf/svrf_model.h"

using namespace marlin;

int main() {
  // 1. Train a compact S-VRF on simulated global traffic (in production the
  //    model is trained offline on archived streams and loaded here via
  //    SvrfModel::Deserialize).
  std::printf("training S-VRF...\n");
  SvrfModel::Config model_config;
  model_config.hidden_dim = 16;
  model_config.dense_dim = 16;
  auto svrf = std::make_shared<SvrfModel>(model_config);
  {
    const World world = World::GlobalWorld(7);
    des::EventFleetConfig fleet_config;
    fleet_config.num_vessels = 60;
    fleet_config.seed = 11;
    const auto tracks =
        des::RunFleetTracks(world, fleet_config, 6.0 * 3600.0);
    std::vector<SvrfSample> train;
    SampleBuilderOptions options;
    options.stride = 4;
    for (const auto& [mmsi, track] : tracks) {
      const auto samples = BuildSvrfSamples(track, options);
      train.insert(train.end(), samples.begin(), samples.end());
    }
    Trainer::Options train_options;
    train_options.epochs = 8;
    train_options.learning_rate = 3e-3;
    svrf->Train(train, {}, train_options);
    std::printf("trained on %zu segments\n", train.size());
  }

  // 2. Start the pipeline with the S-VRF mounted once, shared by all
  //    vessel actors.
  MaritimePipeline pipeline(svrf);
  if (Status status = pipeline.Start(); !status.ok()) {
    std::printf("failed to start: %s\n", status.ToString().c_str());
    return 1;
  }

  // 3. Generate a handful of Aegean encounters (the synthetic
  //    proximity-event scenario family of §6.2) and replay both vessels'
  //    AIS histories through the pipeline in timestamp order.
  ProximityDatasetConfig dataset_config;
  dataset_config.events_under_2min = 3;
  dataset_config.events_2_to_5min = 4;
  dataset_config.events_5_to_12min = 3;
  dataset_config.negatives = 4;
  const ProximityDataset dataset = GenerateProximityDataset(dataset_config);
  std::printf("replaying %zu encounters (%d true proximity events)...\n",
              dataset.scenarios.size(), dataset.TotalEvents());
  for (const ProximityScenario& scenario : dataset.scenarios) {
    std::vector<AisPosition> merged;
    merged.insert(merged.end(), scenario.track_a.begin(),
                  scenario.track_a.end());
    merged.insert(merged.end(), scenario.track_b.begin(),
                  scenario.track_b.end());
    std::sort(merged.begin(), merged.end(),
              [](const AisPosition& a, const AisPosition& b) {
                return a.timestamp < b.timestamp;
              });
    for (const AisPosition& report : merged) {
      if (report.timestamp > scenario.eval_time) break;  // live boundary
      (void)pipeline.Ingest(report);
    }
  }
  pipeline.AwaitQuiescence();

  // 4. The event list (the UI's quick-navigation list of Figure 4f).
  std::printf("\n%-20s %-11s %-11s %-14s %s\n", "event", "vessel A",
              "vessel B", "separation (m)", "ETA (min from detection)");
  int collisions = 0;
  for (const MaritimeEvent& event : pipeline.RecentEvents(100)) {
    if (event.type != EventType::kCollisionForecast) continue;
    ++collisions;
    std::printf("%-20s %-11u %-11u %-14.0f %.1f\n",
                std::string(EventTypeName(event.type)).c_str(),
                event.vessel_a, event.vessel_b, event.distance_m,
                static_cast<double>(event.event_time - event.detected_at) /
                    kMicrosPerMinute);
  }
  std::printf("\n%d collision forecasts raised; ground truth: %d proximity "
              "events in the replayed window\n",
              collisions, dataset.TotalEvents());

  const PipelineStats stats = pipeline.Stats();
  std::printf("pipeline: %lld messages, %lld forecasts, %zu actors\n",
              static_cast<long long>(stats.positions_ingested),
              static_cast<long long>(stats.forecasts_generated),
              stats.actor_count);
  return 0;
}
