// Traffic flow forecasting: the Figure-4d view — forecast trajectories of a
// regional fleet rasterised into the hexagonal grid, giving the predicted
// vessel count per cell for each 5-minute window up to 30 minutes. Cells
// are classed low/medium/high like the UI's green/red shading.
//
// Run: ./build/examples/traffic_flow

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/pipeline.h"
#include "sim/des/event_fleet.h"
#include "vrf/linear_model.h"

using namespace marlin;

int main() {
  MaritimePipeline pipeline(std::make_shared<LinearKinematicModel>());
  if (Status status = pipeline.Start(); !status.ok()) {
    std::printf("failed to start: %s\n", status.ToString().c_str());
    return 1;
  }

  // Stream ~90 minutes of a 300-vessel fleet so most vessels have full
  // input windows and live forecasts.
  const World world = World::GlobalWorld(7);
  des::EventFleetConfig fleet_config;
  fleet_config.num_vessels = 300;
  fleet_config.seed = 5;
  std::printf("streaming 90 minutes of a %d-vessel fleet...\n",
              fleet_config.num_vessels);
  for (const AisPosition& report :
       des::RunFleet(world, fleet_config, 90.0 * 60.0)) {
    (void)pipeline.Ingest(report);
  }
  pipeline.AwaitQuiescence();

  // Query the predicted raster per horizon window.
  std::printf("\npredicted traffic flow (active cells per horizon):\n");
  std::printf("| horizon   | active cells | vessels | low | med | high |\n");
  std::printf("|-----------|--------------|---------|-----|-----|------|\n");
  for (int step = 1; step <= kSvrfOutputSteps; ++step) {
    const std::vector<FlowCell> flow = pipeline.TrafficFlow(step);
    int total = 0, low = 0, medium = 0, high = 0;
    for (const FlowCell& cell : flow) {
      total += cell.count;
      if (cell.count <= 1) {
        ++low;
      } else if (cell.count <= 3) {
        ++medium;
      } else {
        ++high;
      }
    }
    std::printf("| t + %2d min | %12zu | %7d | %3d | %3d | %4d |\n", step * 5,
                flow.size(), total, low, medium, high);
  }

  // The busiest predicted cells at the 30-minute horizon — the red cells of
  // the UI heat view.
  std::vector<FlowCell> flow = pipeline.TrafficFlow(kSvrfOutputSteps);
  std::sort(flow.begin(), flow.end(), [](const FlowCell& a, const FlowCell& b) {
    return a.count > b.count;
  });
  std::printf("\nbusiest cells at t+30min:\n");
  for (size_t i = 0; i < std::min<size_t>(5, flow.size()); ++i) {
    const LatLng center = HexGrid::CellToLatLng(flow[i].cell);
    std::printf("  cell %016llx  (lat %.3f, lon %.3f)  %d vessels\n",
                static_cast<unsigned long long>(flow[i].cell), center.lat_deg,
                center.lon_deg, flow[i].count);
  }
  return 0;
}
