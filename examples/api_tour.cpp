// Middleware API tour: the §3 middleware component — the writer actor
// publishes actor states into the store, and the API serves the frontend.
// This example stands a pipeline up with a static vessel registry, streams
// a small fleet, and walks the REST-style routes the UI would call.
//
// Run: ./build/examples/api_tour

#include <cstdio>
#include <memory>

#include "core/pipeline.h"
#include "core/static_registry.h"
#include "middleware/api_service.h"
#include "sim/des/event_fleet.h"
#include "vrf/linear_model.h"

using namespace marlin;

namespace {

void Show(ApiService* api, const std::string& route) {
  const ApiResponse response = api->Handle("GET", route);
  std::string body = response.body;
  if (body.size() > 400) body = body.substr(0, 400) + "...";
  std::printf("GET %-55s -> %d\n  %s\n\n", route.c_str(), response.status,
              body.c_str());
}

}  // namespace

int main() {
  const World world = World::GlobalWorld(7);
  PipelineConfig config;
  // Monitor the five busiest world ports for berth congestion.
  for (int i = 0; i < 5; ++i) config.monitored_ports.push_back(world.ports()[i]);
  MaritimePipeline pipeline(std::make_shared<LinearKinematicModel>(), config);

  des::EventFleetConfig fleet_config;
  fleet_config.num_vessels = 80;
  fleet_config.seed = 2718;
  des::EventScheduler scheduler({fleet_config.seed, fleet_config.start_time});
  des::EventFleet fleet(&world, fleet_config, &scheduler,
                        [&pipeline](const AisPosition& report) {
                          (void)pipeline.Ingest(report);
                        });

  // Static registry: the §3 initialisation-phase data fusion. In
  // production this is loaded from the vessel database; here it is filled
  // from the simulator's own fleet metadata.
  StaticRegistry registry;
  for (int i = 0; i < fleet.num_vessels(); ++i) {
    registry.Put(fleet.StaticInfo(i));
  }
  registry.Freeze();
  std::printf("registry: %zu vessels cached in memory\n", registry.size());

  pipeline.SetStaticRegistry(&registry);
  if (Status status = pipeline.Start(); !status.ok()) {
    std::printf("failed to start: %s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("streaming 45 minutes of traffic...\n\n");
  scheduler.RunUntil(fleet_config.start_time + 45 * kMicrosPerMinute);
  pipeline.AwaitQuiescence();

  ApiService api(&pipeline);
  Show(&api, "/stats");
  // Pick a concrete vessel for the per-vessel routes.
  const auto keys = pipeline.store().ScanPrefix("vessel:");
  if (!keys.empty()) {
    const std::string mmsi = keys.front().substr(7);
    Show(&api, "/vessels/" + mmsi);
    Show(&api, "/vessels/" + mmsi + "/forecast");
  }
  Show(&api, "/events?limit=3");
  Show(&api, "/traffic/6");
  Show(&api, "/ports");
  Show(&api, "/viewport?min_lat=30&min_lon=-10&max_lat=60&max_lon=30");
  Show(&api, "/metrics");  // Prometheus text exposition of every substrate
  Show(&api, "/nonexistent");
  return 0;
}
