#ifndef MARLIN_VRF_ENVCLUS_H_
#define MARLIN_VRF_ENVCLUS_H_

#include <array>
#include <map>
#include <unordered_map>
#include <vector>

#include "ais/types.h"
#include "hexgrid/hexgrid.h"
#include "geo/world.h"
#include "util/status.h"

namespace marlin {

/// One historical port-to-port trip extracted from a vessel track.
struct Trip {
  Mmsi mmsi = 0;
  int origin_port = -1;
  int destination_port = -1;
  VesselType vessel_type = VesselType::kUnknown;
  std::vector<AisPosition> points;
};

/// Extracts port-to-port trips from per-vessel tracks: a trip spans the
/// track between consecutive visits to two distinct ports (a visit is any
/// position within `port_radius_m` of the port).
std::vector<Trip> ExtractTrips(
    const std::map<Mmsi, std::vector<AisPosition>>& tracks,
    const std::vector<Port>& ports, double port_radius_m,
    const std::map<Mmsi, VesselType>& vessel_types = {});

/// Marlin's implementation of the EnvClus* long-term route forecasting
/// method (§4.1, [34, 35]): historical AIS positions are clustered onto the
/// hexagonal grid to extract common pathways; the pathways become a weighted
/// transition graph per origin-destination port pair; at significant graph
/// nodes (route junctions) transition choice is conditioned on vessel
/// features (here: vessel type). A forecast is the most probable graph path
/// from the origin to the destination, which by construction follows
/// historically travelled cells (realistic paths that avoid land).
class EnvClusModel {
 public:
  struct Config {
    /// Grid resolution for pathway clustering (res 6 ≈ 17 km cells).
    int resolution = 6;
    /// Port visit radius.
    double port_radius_m = 25000.0;
    /// Additive smoothing for transition probabilities.
    double smoothing = 0.5;
  };

  explicit EnvClusModel(const World* world);
  EnvClusModel(const World* world, const Config& config);

  /// Ingests one historical trip into the OD-pair transition graph.
  void AddTrip(const Trip& trip);

  /// Convenience: extract trips from tracks and ingest them all. Returns
  /// the number of trips ingested.
  int BuildFromTracks(const std::map<Mmsi, std::vector<AisPosition>>& tracks,
                      const std::map<Mmsi, VesselType>& vessel_types = {});

  /// Forecasts the route (sequence of cell-center positions, origin first)
  /// from `origin_port` to `destination_port` for a vessel of `type`.
  /// NotFound when no historical pathway connects the pair.
  StatusOr<std::vector<LatLng>> ForecastRoute(int origin_port,
                                              int destination_port,
                                              VesselType type) const;

  /// Number of distinct OD pairs with at least one trip.
  int KnownOdPairs() const { return static_cast<int>(graphs_.size()); }

  /// Total trips ingested.
  int TotalTrips() const { return total_trips_; }

  /// All cells ever visited on the given OD pair (for tests/inspection).
  std::vector<CellId> VisitedCells(int origin_port,
                                   int destination_port) const;

  const Config& config() const { return config_; }

  /// Serialises the per-OD-pair transition graphs (production models are
  /// trained offline on archived AIS and loaded at initialisation).
  std::string Serialize() const;
  /// Restores Serialize() output, replacing any ingested trips. The grid
  /// resolution in the blob must match this model's configuration.
  Status Deserialize(const std::string& blob);

 private:
  static constexpr int kNumTypes = 9;  // VesselType cardinality

  struct EdgeStats {
    int total = 0;
    std::array<int, kNumTypes> by_type{};
  };
  struct OdGraph {
    // cell -> successor cell -> stats
    std::unordered_map<CellId, std::unordered_map<CellId, EdgeStats>> edges;
    int trips = 0;
  };

  /// Maps a trip's points to its deduplicated cell sequence.
  std::vector<CellId> CellSequence(const std::vector<AisPosition>& points) const;

  const World* world_;
  Config config_;
  std::map<std::pair<int, int>, OdGraph> graphs_;
  int total_trips_ = 0;
};

}  // namespace marlin

#endif  // MARLIN_VRF_ENVCLUS_H_
