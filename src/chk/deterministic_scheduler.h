#ifndef MARLIN_CHK_DETERMINISTIC_SCHEDULER_H_
#define MARLIN_CHK_DETERMINISTIC_SCHEDULER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "actor/dispatcher.h"
#include "chk/fingerprint.h"
#include "util/rng.h"

namespace marlin {
namespace chk {

/// One scheduling decision: with `ready` tasks runnable, the task at index
/// `chosen` (labelled `label`) was picked to run next.
struct SchedDecision {
  uint32_t chosen = 0;
  uint32_t ready = 0;
  std::string label;
};

/// The full schedule of a run: the sequence of decisions, reproducible from
/// the seed and replayable verbatim.
using ScheduleTrace = std::vector<SchedDecision>;

/// A single-threaded, seed-driven model-checking dispatcher in the spirit
/// of CHESS/loom: a drop-in Dispatcher for ActorSystem that serialises all
/// mailbox drains onto the caller's thread and, at every step, picks the
/// next runnable task uniformly at random from the seeded PRNG. Distinct
/// seeds explore distinct message interleavings; the same seed always
/// yields the identical schedule, and a recorded trace can be replayed
/// decision-for-decision to reproduce a failing run.
///
/// Usage:
///   auto sched = std::make_shared<chk::DeterministicScheduler>(seed);
///   ActorSystemConfig cfg;
///   cfg.dispatcher = sched;
///   cfg.throughput = 1;  // one message per drain → message-level schedules
///   ActorSystem system(cfg);
///   ... Tell(...) from the test thread ...
///   system.AwaitQuiescence();  // drains deterministically on this thread
///   uint64_t fingerprint = sched->TraceHash();
///
/// Tasks only run inside Quiesce()/Shutdown() on the calling thread, so a
/// blocking Ask().get() before AwaitQuiescence() would deadlock — resolve
/// futures after quiescence instead.
class DeterministicScheduler : public Dispatcher {
 public:
  explicit DeterministicScheduler(uint64_t seed);

  /// Replay constructor: decisions follow `replay` while it lasts, then
  /// fall back to the seeded PRNG (for schedules that run longer than the
  /// recording, e.g. after a partial fix).
  DeterministicScheduler(uint64_t seed, ScheduleTrace replay);

  bool Submit(DispatchTask task) override;
  void Quiesce() override;
  bool cooperative() const override { return true; }
  void Shutdown() override;
  size_t QueueDepth() const override;

  uint64_t seed() const { return seed_; }

  /// The schedule executed so far (copy; safe to keep after destruction).
  /// Empty when recording is off.
  ScheduleTrace Trace() const;

  /// Order-sensitive FNV-1a fingerprint of the schedule — two runs made
  /// the same decisions iff their hashes match. Maintained incrementally,
  /// so it stays available with recording off.
  uint64_t TraceHash() const;

  /// Decisions taken so far.
  size_t StepCount() const;

  /// Stops storing per-decision SchedDecision entries (each carries the
  /// chosen task's label string). Long runs — thousands to millions of
  /// mailbox drains, e.g. full-pipeline fleet replays — only need the
  /// fingerprint; the stored schedule is for replay debugging at test
  /// scale. Call before the first Quiesce(); already-recorded decisions
  /// are dropped.
  void DisableTraceRecording();

 private:
  // Runs queued tasks on the calling thread until none remain. The
  // executing task may Submit more; those join the ready set.
  void DrainLoop();

  const uint64_t seed_;
  Rng rng_;

  mutable std::mutex mu_;
  std::vector<DispatchTask> ready_;
  ScheduleTrace trace_;
  Fingerprint trace_fp_;
  size_t steps_ = 0;
  bool record_trace_ = true;
  ScheduleTrace replay_;
  size_t replay_pos_ = 0;
  bool shutdown_ = false;
  bool draining_ = false;
  std::thread::id draining_thread_;
};

}  // namespace chk
}  // namespace marlin

#endif  // MARLIN_CHK_DETERMINISTIC_SCHEDULER_H_
