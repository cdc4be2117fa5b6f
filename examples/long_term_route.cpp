// Long-term route forecasting: the Figure-4a/4b view — EnvClus*-style
// pathway extraction from historical trips, per-OD-pair route forecasts
// conditioned on vessel type, and the aggregated "Patterns of Life"
// mobility statistics of the traversed area.
//
// Run: ./build/examples/long_term_route

#include <cstdio>
#include <map>
#include <vector>

#include "sim/des/event_fleet.h"
#include "vrf/envclus.h"
#include "vrf/patterns_of_life.h"

using namespace marlin;

int main() {
  // 1. Historical data: a simulated global fleet over a day of stream time.
  const World world = World::GlobalWorld(7);
  des::EventFleetConfig fleet_config;
  fleet_config.num_vessels = 250;
  fleet_config.seed = 99;
  std::printf("simulating 24 h of history for %d vessels...\n",
              fleet_config.num_vessels);
  std::map<Mmsi, std::vector<AisPosition>> tracks;
  des::EventScheduler scheduler({fleet_config.seed, fleet_config.start_time});
  des::EventFleet fleet(&world, fleet_config, &scheduler,
                        [&tracks](const AisPosition& report) {
                          tracks[report.mmsi].push_back(report);
                        });
  scheduler.RunUntil(fleet_config.start_time + 24 * 60 * kMicrosPerMinute);

  // Vessel-type registry (the static-data join of §3).
  std::map<Mmsi, VesselType> types;
  for (int i = 0; i < fleet.num_vessels(); ++i) {
    const AisStatic info = fleet.StaticInfo(i);
    types[info.mmsi] = info.type;
  }

  // 2. Build the EnvClus* transition graphs and the Patterns-of-Life
  //    aggregates from the same history.
  EnvClusModel envclus(&world);
  const int trips = envclus.BuildFromTracks(tracks, types);
  std::printf("extracted %d port-to-port trips covering %d OD pairs\n", trips,
              envclus.KnownOdPairs());

  PatternsOfLife pol(6);
  for (const auto& [mmsi, track] : tracks) {
    for (const AisPosition& report : track) pol.AddObservation(report);
  }
  std::printf("patterns of life: %lld observations over %zu active cells\n",
              static_cast<long long>(pol.TotalObservations()),
              pol.ActiveCells());

  // 3. Forecast a route for the first OD pair with data, for two vessel
  //    types, and show the aggregated mobility stats along the route.
  bool printed = false;
  for (size_t origin = 0; origin < world.ports().size(); ++origin) {
    for (size_t dest = 0; dest < world.ports().size(); ++dest) {
      if (origin == dest) continue;
      auto route = envclus.ForecastRoute(static_cast<int>(origin),
                                         static_cast<int>(dest),
                                         VesselType::kCargo);
      if (!route.ok()) continue;
      std::printf("\nroute forecast %s -> %s (%zu cells):\n",
                  world.ports()[origin].name.c_str(),
                  world.ports()[dest].name.c_str(), route->size());
      double distance = 0.0;
      for (size_t i = 0; i + 1 < route->size(); ++i) {
        distance += HaversineMeters((*route)[i], (*route)[i + 1]);
      }
      std::printf("  along-route distance: %.0f km\n", distance / 1000.0);
      std::printf("  waypoints (every 4th cell) with patterns-of-life:\n");
      for (size_t i = 0; i < route->size(); i += 4) {
        const CellMobilityStats stats = pol.Query((*route)[i]);
        std::printf("    lat %8.3f lon %8.3f | %5lld obs, %3lld vessels, "
                    "mean %4.1f kn\n",
                    (*route)[i].lat_deg, (*route)[i].lon_deg,
                    static_cast<long long>(stats.observations),
                    static_cast<long long>(stats.distinct_vessels),
                    stats.mean_sog_knots);
      }
      printed = true;
      break;
    }
    if (printed) break;
  }
  if (!printed) {
    std::printf("\nno route forecast yet: no OD pair's trips connect its two "
                "port cells (a longer history fills the pathways in)\n");
  }

  // 4. The global hotspots — the densest patterns-of-life cells.
  std::printf("\nglobal traffic hotspots:\n");
  for (const CellMobilityStats& stats : pol.TopCells(5)) {
    const LatLng center = HexGrid::CellToLatLng(stats.cell);
    std::printf("  lat %8.3f lon %8.3f | %6lld obs, %3lld vessels, mean "
                "%4.1f kn, mean course %5.1f deg\n",
                center.lat_deg, center.lon_deg,
                static_cast<long long>(stats.observations),
                static_cast<long long>(stats.distinct_vessels),
                stats.mean_sog_knots, stats.mean_cog_deg);
  }
  return 0;
}
