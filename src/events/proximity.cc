#include "events/proximity.h"

#include "geo/geodesy.h"

namespace marlin {

std::string_view EventTypeName(EventType type) {
  switch (type) {
    case EventType::kProximity:
      return "Proximity";
    case EventType::kAisSwitchOff:
      return "AisSwitchOff";
    case EventType::kCollisionForecast:
      return "CollisionForecast";
  }
  return "Unknown";
}

ProximityDetector::ProximityDetector() : ProximityDetector(Config()) {}

ProximityDetector::ProximityDetector(const Config& config) : config_(config) {}

std::vector<MaritimeEvent> ProximityDetector::Observe(
    const AisPosition& report) {
  std::vector<MaritimeEvent> events;
  const CellId cell =
      HexGrid::LatLngToCell(report.position, config_.resolution);
  if (cell == kInvalidCellId) return events;
  // Candidate partners: this cell and its 6 neighbours.
  for (CellId candidate_cell : HexGrid::KRing(cell, 1)) {
    auto it = cells_.find(candidate_cell);
    if (it == cells_.end()) continue;
    for (const StoredPosition& other : it->second) {
      if (other.mmsi == report.mmsi) continue;
      const TimeMicros dt = report.timestamp >= other.timestamp
                                ? report.timestamp - other.timestamp
                                : other.timestamp - report.timestamp;
      if (dt > config_.time_window) continue;
      const double d = ApproxDistanceMeters(report.position, other.position);
      if (d > config_.threshold_m) continue;
      const uint64_t key = PairKey(report.mmsi, other.mmsi);
      auto last_it = last_event_.find(key);
      if (last_it != last_event_.end() &&
          report.timestamp - last_it->second < config_.pair_cooldown) {
        continue;
      }
      last_event_[key] = report.timestamp;
      MaritimeEvent event;
      event.type = EventType::kProximity;
      event.vessel_a = report.mmsi;
      event.vessel_b = other.mmsi;
      event.detected_at = report.timestamp;
      event.event_time = report.timestamp;
      event.location = report.position;
      event.distance_m = d;
      events.push_back(event);
    }
  }
  // Store after matching so a vessel does not match itself.
  StoredPosition stored;
  stored.mmsi = report.mmsi;
  stored.timestamp = report.timestamp;
  stored.position = report.position;
  cells_[cell].push_back(stored);
  return events;
}

void ProximityDetector::Prune(TimeMicros now) {
  const TimeMicros cutoff = now - config_.retention;
  for (auto it = cells_.begin(); it != cells_.end();) {
    std::deque<StoredPosition>& bucket = it->second;
    while (!bucket.empty() && bucket.front().timestamp < cutoff) {
      bucket.pop_front();
    }
    if (bucket.empty()) {
      it = cells_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t ProximityDetector::StoredObservations() const {
  size_t total = 0;
  for (const auto& [cell, bucket] : cells_) total += bucket.size();
  return total;
}

}  // namespace marlin
