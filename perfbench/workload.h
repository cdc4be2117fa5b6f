#ifndef MARLIN_PERFBENCH_WORKLOAD_H_
#define MARLIN_PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ais/preprocess.h"
#include "ais/types.h"
#include "geo/world.h"

namespace perfbench {

using marlin::AisPosition;
using marlin::Mmsi;
using marlin::TimeMicros;

/// One benchmark workload: the fleet the generator simulates and the load
/// shape it offers. Everything here is frozen; only the seed varies.
struct WorkloadSpec {
  /// RegionalWorld over `box` with `ports` ports when true, else GlobalWorld.
  bool regional = false;
  marlin::BoundingBox box;
  int ports = 0;
  int vessels = 0;
  /// Front-loaded exponential arrival span in virtual seconds (0 = every
  /// vessel present from t=0).
  double arrival_span_sec = 0.0;
  /// Warm-up slice in virtual seconds of stream, replayed during set-up.
  double warmup_virtual_sec = 0.0;
  /// Sentences per closed-loop burst.
  int burst_size = 0;
  /// Expected burst capacity on the reference host (msg/s). Sizes the
  /// burst slice so the burst phase lasts about its share of --seconds.
  double burst_rate_hint = 0.0;
  /// Open-loop offered rate of the tick phase (msg/s).
  double offered_rate = 0.0;
  /// Runs a closed-loop UI client beside the tick phase.
  bool ui_client = false;
  int ui_think_ms = 0;
  /// The viewport the UI page requests.
  marlin::BoundingBox viewport;
};

/// Looks up a workload by name; false when unknown. `smoke` shrinks the
/// fleet and rates so that a run takes seconds.
bool LookupWorkload(const std::string& name, bool smoke, WorkloadSpec* spec);

marlin::World BuildWorld(const WorkloadSpec& spec);

/// The pre-generated input: AIVDM sentences in stream order, the receive
/// time each is produced with, and the reference decode of each (what the
/// pipeline must end up reporting).
struct Stream {
  std::vector<std::string> sentences;
  std::vector<TimeMicros> received_at;
  std::vector<AisPosition> decoded;
  /// Sentences the generator emitted that did not decode (dropped).
  int64_t decode_errors = 0;
  Mmsi mmsi_base = 0;

  size_t size() const { return sentences.size(); }
  /// Dense vessel index of sentence i (MMSIs are mmsi_base + index).
  size_t vessel(size_t i) const { return decoded[i].mmsi - mmsi_base; }
};

/// Generates the workload's stream with des::EventFleet: every sentence of
/// the first `spec.warmup_virtual_sec` of stream time (the warm-up slice,
/// whose length is returned in `warmup`), then `after_warmup` more. Each
/// report is encoded with AisCodec::EncodePosition and decoded once for
/// reference. The stream is a pure function of (spec, seed); the sizes only
/// choose how much of it is drawn, and `limit` caps the total.
Stream GenerateStream(const WorkloadSpec& spec, const marlin::World& world,
                      uint64_t seed, size_t after_warmup, size_t* warmup,
                      size_t limit = SIZE_MAX);

/// FNV-1a over the first `prefix` sentences (newline-terminated).
uint64_t StreamHash(const Stream& stream, size_t prefix);

/// S-VRF supervised samples from a separate EventFleet over the same world
/// (its own seed stream, so training never sees the replayed inputs).
std::vector<marlin::SvrfSample> GenerateTrainingSamples(
    const marlin::World& world, uint64_t seed, bool smoke);

}  // namespace perfbench

#endif  // MARLIN_PERFBENCH_WORKLOAD_H_
