#ifndef MARLIN_EVENTS_EVENT_TYPES_H_
#define MARLIN_EVENTS_EVENT_TYPES_H_

#include <string>

#include "ais/types.h"
#include "geo/geodesy.h"

namespace marlin {

/// Kinds of maritime events the platform detects or forecasts (§5).
enum class EventType {
  /// Two vessels observed in close proximity (detected, present-time).
  kProximity,
  /// A vessel's AIS transmitter went silent (detected).
  kAisSwitchOff,
  /// Two vessels' forecast trajectories intersect in space and time
  /// (forecast, future-time).
  kCollisionForecast,
};

std::string_view EventTypeName(EventType type);

/// One detected or forecast maritime event, as published to the event list
/// of the UI.
struct MaritimeEvent {
  EventType type = EventType::kProximity;
  Mmsi vessel_a = 0;
  /// Second vessel for pairwise events; 0 otherwise.
  Mmsi vessel_b = 0;
  /// When the system raised the event.
  TimeMicros detected_at = 0;
  /// When the event occurs (= detected_at for detections; the predicted
  /// collision time for forecasts).
  TimeMicros event_time = 0;
  LatLng location;
  /// Vessel separation for pairwise events, meters.
  double distance_m = 0.0;
};

/// Canonical unordered pair key for pairwise event deduplication.
inline uint64_t PairKey(Mmsi a, Mmsi b) {
  const uint64_t lo = a < b ? a : b;
  const uint64_t hi = a < b ? b : a;
  return (hi << 32) | lo;
}

}  // namespace marlin

#endif  // MARLIN_EVENTS_EVENT_TYPES_H_
