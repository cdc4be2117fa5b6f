#ifndef MARLIN_PERFBENCH_LEDGER_H_
#define MARLIN_PERFBENCH_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "trace.h"
#include "vrf/route_forecaster.h"
#include "workload.h"

namespace perfbench {

/// Cost of one layer operation replayed in isolation over a workload's own
/// inputs, timed separately over the first and second half of the replay so
/// that a cost that grows with replay length (a non-stationary replay)
/// shows up as drift.
struct IsolatedCost {
  const char* name = "";
  int64_t ops = 0;
  double first_half_ns = 0.0;   // mean ns per op, first half
  double second_half_ns = 0.0;  // mean ns per op, second half

  double ns_per_op() const { return (first_half_ns + second_half_ns) / 2.0; }
  /// second half / first half; 1 = stationary.
  double drift() const {
    return first_half_ns > 0.0 ? second_half_ns / first_half_ns : 1.0;
  }
};

struct IsolatedResults {
  IsolatedCost decode;          // AisCodec::DecodePosition
  IsolatedCost append;          // Broker::Append (Produce's key/value)
  IsolatedCost poll;            // Consumer::Poll, per record
  IsolatedCost tell;            // ActorSystem::Tell + delivery (one hop)
  IsolatedCost get_or_spawn;    // ActorSystem::GetOrSpawn, vessel+cell names
  IsolatedCost forecast_batch;  // RouteForecaster::ForecastBatch of 32
  IsolatedCost proximity;       // ProximityDetector::Observe, per cell
  IsolatedCost collision;       // CollisionForecaster::Observe, per region
  IsolatedCost latlng_to_cell;  // HexGrid::LatLngToCell
  IsolatedCost hset;            // KvStore::HSet, writer key/field pattern
  IsolatedCost scan_prefix;     // KvStore::ScanPrefix("vessel:")
  int64_t decode_errors = 0;
  /// Mean StoredObservations() of the observed detector at observe time.
  double proximity_stored_mean = 0.0;

  std::vector<const IsolatedCost*> all() const {
    return {&decode, &append, &poll, &tell, &get_or_spawn, &forecast_batch,
            &proximity, &collision, &latlng_to_cell, &hset, &scan_prefix};
  }
};

/// Replays sentences [begin, end) of `stream` through each layer in
/// isolation, with the pipeline's own partitioning (`config` resolutions)
/// and pruning cadence. Stateful layers (vessel windows, detectors, actor
/// names, kv keys) are first brought to their steady state by an untimed
/// pass over [lead, begin), with vessel windows primed from the stream's
/// start. Each replay is recorded as one span. Actor operations run on a
/// cooperative dispatcher, so the actor costs are the enqueue and lookup
/// paths alone; cross-thread wake-ups stay in the ledger's residual.
IsolatedResults RunIsolatedReplays(const Stream& stream, size_t lead,
                                   size_t begin, size_t end,
                                   const marlin::RouteForecaster& model,
                                   const marlin::PipelineConfig& config,
                                   Tracer* tracer);

}  // namespace perfbench

#endif  // MARLIN_PERFBENCH_LEDGER_H_
