#ifndef MARLIN_VRF_INFERENCE_BATCHER_H_
#define MARLIN_VRF_INFERENCE_BATCHER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "vrf/route_forecaster.h"

namespace marlin {

/// Coalesces forecast requests from many vessel actors into column-batched
/// RouteForecaster::ForecastBatch calls, amortising the per-inference
/// network overhead that dominates the per-message cost at saturation
/// (the Figure 6 plateau).
///
/// Serving policy: with `background_flusher` on, one serving thread runs
/// every batch. Submit only enqueues and wakes it when a batch fills; the
/// thread runs full batches as they form and a partial batch once its
/// oldest request has waited `flush_deadline_micros`. The forward therefore
/// never holds a submitter's (actor dispatcher's) thread. With the thread
/// off, a full batch runs inline on the Submit that completed it.
///
/// Ordering: every batch runs under one run lock, and each runner (the
/// serving thread, an inline Submit, Flush, Stop) takes that lock *before*
/// dequeuing its batch, so batches complete in submission order and one
/// submitter's callbacks fire in its submission order. Callbacks run under
/// the run lock on whichever thread runs the batch: they must be
/// thread-safe and must not call back into the batcher. Actor callers
/// satisfy this by Tell-ing the result back to themselves.
///
/// Determinism: with `background_flusher=false` nothing runs until Submit
/// fills a batch or the caller invokes Flush(), which makes the batcher
/// schedulable under the chk deterministic scheduler. Batching itself never
/// changes results — forecast columns are arithmetically independent, so a
/// batched forecast is bitwise identical to the single-input call.
class InferenceBatcher {
 public:
  struct Options {
    /// Requests per batch.
    int max_batch = 32;
    /// Pending-queue cap; Submit returns ResourceExhausted beyond it and
    /// the caller falls back to a synchronous forecast (backpressure
    /// instead of unbounded buffering).
    int max_queue = 4096;
    /// Age of the oldest pending request at which a partial batch runs.
    int64_t flush_deadline_micros = 2000;
    /// Start the serving thread, which then runs every batch (full ones as
    /// they form, partial ones at the deadline). Off = no thread: full
    /// batches run inline on the submitter and partial ones only via
    /// Flush(); use this under the deterministic scheduler.
    bool background_flusher = true;
    /// Metrics sink; null = process-global registry.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Receives the result plus this request's share of the batched forward
  /// cost (batch wall nanos / batch size), for callers that account
  /// per-message processing time.
  using Callback =
      std::function<void(StatusOr<ForecastTrajectory>, int64_t per_item_nanos)>;

  /// `forecaster` must outlive the batcher.
  InferenceBatcher(const RouteForecaster* forecaster, const Options& options);
  ~InferenceBatcher();

  InferenceBatcher(const InferenceBatcher&) = delete;
  InferenceBatcher& operator=(const InferenceBatcher&) = delete;

  /// Enqueues one request; `callback` fires exactly once with the result
  /// (from the thread that runs its batch). Fails with ResourceExhausted
  /// when the queue is full and with FailedPrecondition after Stop(); on
  /// failure the callback is NOT invoked and the caller owns the fallback.
  Status Submit(const SvrfInput& input, Callback callback);

  /// Drains every pending request on the calling thread (possibly several
  /// batches, each under the run lock). Returns the number of requests
  /// flushed.
  int Flush();

  /// Stops the serving thread and flushes the remainder. Idempotent;
  /// implied by the destructor. After Stop, Submit fails.
  void Stop();

  /// True when no requests are pending AND no taken batch is still running
  /// its callbacks. Once the producers have stopped submitting, Quiescent()
  /// means every callback has fired.
  bool Quiescent() const;

  /// Callbacks fired so far (monotonic). A caller that snapshots it before
  /// waiting for the callbacks' downstream work and finds it unchanged
  /// afterwards knows no callback fired in between.
  uint64_t Delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }

  struct Stats {
    uint64_t submitted = 0;
    uint64_t rejected = 0;
    uint64_t batches = 0;
    uint64_t size_flushes = 0;      // batches run because they were full
    uint64_t deadline_flushes = 0;  // partial batches (deadline or Flush())
  };
  Stats stats() const;

  const Options& options() const { return options_; }

 private:
  using SteadyTime = std::chrono::steady_clock::time_point;

  struct Request {
    SvrfInput input;
    Callback callback;
    SteadyTime enqueued;
  };

  /// Takes the run lock, dequeues up to `max_batch` requests from the front
  /// of the queue (none when fewer than `min_size` are pending), and runs
  /// them. Returns the number of requests run.
  int RunNextBatch(int min_size);

  /// Runs batch_ through the forecaster and fires its callbacks. Called
  /// with run_mu_ held and mu_ released.
  void RunBatch();

  void ServeLoop();

  const RouteForecaster* forecaster_;
  const Options options_;

  mutable std::mutex mu_;
  std::deque<Request> pending_;  // guarded by mu_
  bool stopped_ = false;         // guarded by mu_
  /// Requests removed from pending_ whose callbacks have not fired yet.
  /// Incremented under mu_ when a batch is taken (so there is no window
  /// where a request is in neither count), decremented after its callback.
  std::atomic<int> in_flight_{0};
  std::atomic<uint64_t> delivered_{0};
  std::condition_variable serve_cv_;

  /// Serialises batches: held from dequeue until the last callback fired.
  /// Lock order: run_mu_ before mu_.
  std::mutex run_mu_;
  // Scratch reused by every batch; guarded by run_mu_.
  std::vector<Request> batch_;
  std::vector<SvrfInput> inputs_;
  std::vector<StatusOr<ForecastTrajectory>> results_;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> size_flushes_{0};
  std::atomic<uint64_t> deadline_flushes_{0};

  // Cached metric handles (stable pointers; see MetricsRegistry docs).
  obs::Histogram* batch_size_hist_;
  obs::Histogram* per_item_nanos_hist_;
  obs::Histogram* queue_wait_hist_;

  /// Serving thread, declared after every member it uses. A raw thread
  /// rather than a Dispatcher task because it must run while the actor
  /// system is busy (that is its whole job), and it is disabled under the
  /// deterministic scheduler (background_flusher=false).
  std::thread server_;  // chk-lint: allow(no-raw-thread)
};

}  // namespace marlin

#endif  // MARLIN_VRF_INFERENCE_BATCHER_H_
