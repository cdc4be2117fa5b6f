#include "vrf/envclus.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>

#include "geo/geodesy.h"

namespace marlin {
namespace {

/// Index of the nearest port within `radius_m`, or -1.
int NearestPort(const std::vector<Port>& ports, const LatLng& position,
                double radius_m) {
  int best = -1;
  double best_d = radius_m;
  for (size_t i = 0; i < ports.size(); ++i) {
    const double d = ApproxDistanceMeters(ports[i].position, position);
    if (d < best_d) {
      best_d = d;
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace

std::vector<Trip> ExtractTrips(
    const std::map<Mmsi, std::vector<AisPosition>>& tracks,
    const std::vector<Port>& ports, double port_radius_m,
    const std::map<Mmsi, VesselType>& vessel_types) {
  std::vector<Trip> trips;
  for (const auto& [mmsi, track] : tracks) {
    VesselType type = VesselType::kUnknown;
    if (auto it = vessel_types.find(mmsi); it != vessel_types.end()) {
      type = it->second;
    }
    int current_port = -1;
    size_t trip_start = 0;
    for (size_t i = 0; i < track.size(); ++i) {
      const int port = NearestPort(ports, track[i].position, port_radius_m);
      if (port < 0) continue;
      if (current_port < 0) {
        current_port = port;
        trip_start = i;
        continue;
      }
      if (port != current_port) {
        Trip trip;
        trip.mmsi = mmsi;
        trip.origin_port = current_port;
        trip.destination_port = port;
        trip.vessel_type = type;
        trip.points.assign(track.begin() + static_cast<long>(trip_start),
                           track.begin() + static_cast<long>(i) + 1);
        if (trip.points.size() >= 3) trips.push_back(std::move(trip));
        current_port = port;
        trip_start = i;
      } else {
        // Still at (or back at) the same port: restart the trip window so
        // loitering does not accumulate into the next trip.
        trip_start = i;
      }
    }
  }
  return trips;
}

EnvClusModel::EnvClusModel(const World* world)
    : EnvClusModel(world, Config()) {}

EnvClusModel::EnvClusModel(const World* world, const Config& config)
    : world_(world), config_(config) {}

std::vector<CellId> EnvClusModel::CellSequence(
    const std::vector<AisPosition>& points) const {
  std::vector<CellId> cells;
  for (const AisPosition& p : points) {
    const CellId cell = HexGrid::LatLngToCell(p.position, config_.resolution);
    if (cell == kInvalidCellId) continue;
    if (cells.empty() || cells.back() != cell) cells.push_back(cell);
  }
  return cells;
}

void EnvClusModel::AddTrip(const Trip& trip) {
  if (trip.origin_port < 0 || trip.destination_port < 0 ||
      trip.origin_port == trip.destination_port) {
    return;
  }
  const std::vector<CellId> cells = CellSequence(trip.points);
  if (cells.size() < 2) return;
  OdGraph& graph = graphs_[{trip.origin_port, trip.destination_port}];
  const int type_index = static_cast<int>(trip.vessel_type);
  for (size_t i = 0; i + 1 < cells.size(); ++i) {
    EdgeStats& edge = graph.edges[cells[i]][cells[i + 1]];
    ++edge.total;
    if (type_index >= 0 && type_index < kNumTypes) {
      ++edge.by_type[static_cast<size_t>(type_index)];
    }
  }
  ++graph.trips;
  ++total_trips_;
}

int EnvClusModel::BuildFromTracks(
    const std::map<Mmsi, std::vector<AisPosition>>& tracks,
    const std::map<Mmsi, VesselType>& vessel_types) {
  const std::vector<Trip> trips = ExtractTrips(
      tracks, world_->ports(), config_.port_radius_m, vessel_types);
  for (const Trip& trip : trips) AddTrip(trip);
  return static_cast<int>(trips.size());
}

StatusOr<std::vector<LatLng>> EnvClusModel::ForecastRoute(
    int origin_port, int destination_port, VesselType type) const {
  auto graph_it = graphs_.find({origin_port, destination_port});
  if (graph_it == graphs_.end()) {
    return Status::NotFound("no historical pathway for this OD pair");
  }
  const OdGraph& graph = graph_it->second;
  const CellId origin_cell = HexGrid::LatLngToCell(
      world_->ports()[static_cast<size_t>(origin_port)].position,
      config_.resolution);
  const CellId dest_cell = HexGrid::LatLngToCell(
      world_->ports()[static_cast<size_t>(destination_port)].position,
      config_.resolution);
  const int type_index = static_cast<int>(type);

  // Dijkstra over -log(transition probability). At junctions the
  // probability is conditioned on the vessel type when that type has been
  // observed there (the junction-classifier role), otherwise on the total
  // traffic.
  std::unordered_map<CellId, double> distance;
  std::unordered_map<CellId, CellId> parent;
  using QueueEntry = std::pair<double, CellId>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue;
  distance[origin_cell] = 0.0;
  queue.emplace(0.0, origin_cell);
  while (!queue.empty()) {
    const auto [d, cell] = queue.top();
    queue.pop();
    if (d > distance[cell] + 1e-12) continue;
    if (cell == dest_cell) break;
    auto edges_it = graph.edges.find(cell);
    if (edges_it == graph.edges.end()) continue;
    // Node totals for normalisation.
    double node_total = 0.0, node_type_total = 0.0;
    for (const auto& [next, stats] : edges_it->second) {
      node_total += stats.total;
      node_type_total += stats.by_type[static_cast<size_t>(type_index)];
    }
    const bool use_type = node_type_total > 0.0;
    const double fanout = static_cast<double>(edges_it->second.size());
    for (const auto& [next, stats] : edges_it->second) {
      const double count =
          use_type
              ? static_cast<double>(stats.by_type[static_cast<size_t>(type_index)])
              : static_cast<double>(stats.total);
      const double total = use_type ? node_type_total : node_total;
      const double p = (count + config_.smoothing) /
                       (total + config_.smoothing * fanout);
      const double w = -std::log(p);
      auto next_it = distance.find(next);
      const double candidate = d + w;
      if (next_it == distance.end() || candidate < next_it->second - 1e-12) {
        distance[next] = candidate;
        parent[next] = cell;
        queue.emplace(candidate, next);
      }
    }
  }
  if (distance.find(dest_cell) == distance.end()) {
    return Status::NotFound("destination not reachable through pathways");
  }
  std::vector<CellId> cells;
  for (CellId cell = dest_cell;;) {
    cells.push_back(cell);
    if (cell == origin_cell) break;
    cell = parent.at(cell);
  }
  std::reverse(cells.begin(), cells.end());
  std::vector<LatLng> route;
  route.reserve(cells.size());
  for (CellId cell : cells) route.push_back(HexGrid::CellToLatLng(cell));
  return route;
}

std::string EnvClusModel::Serialize() const {
  std::string out = "marlin-envclus-v1 " +
                    std::to_string(config_.resolution) + " " +
                    std::to_string(graphs_.size()) + " " +
                    std::to_string(total_trips_) + "\n";
  for (const auto& [od, graph] : graphs_) {
    size_t edges = 0;
    for (const auto& [cell, successors] : graph.edges) {
      edges += successors.size();
    }
    out += "G " + std::to_string(od.first) + " " + std::to_string(od.second) +
           " " + std::to_string(graph.trips) + " " + std::to_string(edges) +
           "\n";
    for (const auto& [cell, successors] : graph.edges) {
      for (const auto& [next, stats] : successors) {
        out += std::to_string(cell) + " " + std::to_string(next) + " " +
               std::to_string(stats.total);
        for (int count : stats.by_type) {
          out += " " + std::to_string(count);
        }
        out += "\n";
      }
    }
  }
  return out;
}

Status EnvClusModel::Deserialize(const std::string& blob) {
  std::istringstream in(blob);
  std::string magic;
  int resolution = -1;
  size_t num_graphs = 0;
  int total_trips = 0;
  if (!(in >> magic >> resolution >> num_graphs >> total_trips)) {
    return Status::InvalidArgument("malformed EnvClus header");
  }
  if (magic != "marlin-envclus-v1") {
    return Status::InvalidArgument("unknown EnvClus format: " + magic);
  }
  if (resolution != config_.resolution) {
    return Status::FailedPrecondition("grid resolution mismatch");
  }
  std::map<std::pair<int, int>, OdGraph> graphs;
  for (size_t g = 0; g < num_graphs; ++g) {
    std::string tag;
    int origin, destination, trips;
    size_t edges;
    if (!(in >> tag >> origin >> destination >> trips >> edges) ||
        tag != "G") {
      return Status::InvalidArgument("malformed OD-graph header");
    }
    OdGraph graph;
    graph.trips = trips;
    for (size_t e = 0; e < edges; ++e) {
      CellId from, to;
      EdgeStats stats;
      if (!(in >> from >> to >> stats.total)) {
        return Status::InvalidArgument("truncated edge list");
      }
      for (int& count : stats.by_type) {
        if (!(in >> count)) {
          return Status::InvalidArgument("truncated type counts");
        }
      }
      graph.edges[from][to] = stats;
    }
    graphs[{origin, destination}] = std::move(graph);
  }
  graphs_ = std::move(graphs);
  total_trips_ = total_trips;
  return Status::Ok();
}

std::vector<CellId> EnvClusModel::VisitedCells(int origin_port,
                                               int destination_port) const {
  std::vector<CellId> out;
  auto it = graphs_.find({origin_port, destination_port});
  if (it == graphs_.end()) return out;
  for (const auto& [cell, successors] : it->second.edges) {
    out.push_back(cell);
    for (const auto& [next, stats] : successors) out.push_back(next);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace marlin
