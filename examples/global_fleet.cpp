// Global fleet soak: a condensed Figure-6-style run — thousands of vessels
// arriving on the pipeline, S-VRF-equipped vessel actors, and live
// processing statistics (actor count, mean per-message time) every 10 min.
//
// Run: ./build/examples/global_fleet   (about a minute on a laptop core)

#include <cstdio>
#include <memory>

#include "core/pipeline.h"
#include "sim/des/event_fleet.h"
#include "vrf/svrf_model.h"

using namespace marlin;

int main() {
  // Compact S-VRF; untrained weights are fine for a soak (inference cost
  // and routing are what this example exercises).
  SvrfModel::Config model_config;
  model_config.hidden_dim = 12;
  model_config.dense_dim = 12;
  MaritimePipeline pipeline(std::make_shared<SvrfModel>(model_config));
  if (Status status = pipeline.Start(); !status.ok()) {
    std::printf("failed to start: %s\n", status.ToString().c_str());
    return 1;
  }

  const World world = World::GlobalWorld(7);
  des::EventFleetConfig fleet_config;
  fleet_config.num_vessels = 5000;
  fleet_config.seed = 1;
  fleet_config.arrival_span_sec = 15.0 * 60.0;
  des::EventScheduler scheduler({fleet_config.seed, fleet_config.start_time});
  des::EventFleet fleet(&world, fleet_config, &scheduler,
                        [&pipeline](const AisPosition& report) {
                          (void)pipeline.Ingest(report);
                        });

  std::printf("streaming 45 min of a %d-vessel global fleet...\n",
              fleet_config.num_vessels);
  // Replay in 10 s steps, quiescing after each to bound mailbox backlog.
  constexpr TimeMicros kStep = 10 * kMicrosPerSecond;
  for (int step = 1; step <= 270; ++step) {
    scheduler.RunUntil(fleet_config.start_time + step * kStep);
    pipeline.AwaitQuiescence();
    if (step % 60 == 0) {
      const PipelineStats stats = pipeline.Stats();
      std::printf("  +%2d min: %7lld msgs, %6lld forecasts, %5lld events, "
                  "%6zu actors, mean %6.1f us\n",
                  step / 6,
                  static_cast<long long>(stats.positions_ingested),
                  static_cast<long long>(stats.forecasts_generated),
                  static_cast<long long>(stats.events_detected),
                  stats.actor_count, stats.mean_processing_nanos / 1000.0);
    }
  }

  const PipelineStats stats = pipeline.Stats();
  std::printf("final: %lld messages, %lld forecasts, %lld events, %zu "
              "actors, store holds %zu keys\n",
              static_cast<long long>(stats.positions_ingested),
              static_cast<long long>(stats.forecasts_generated),
              static_cast<long long>(stats.events_detected),
              stats.actor_count, pipeline.store().Size());
  return 0;
}
