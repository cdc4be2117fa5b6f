#include "vrf/inference_batcher.h"

#include <algorithm>
#include <utility>

namespace marlin {
namespace {

int64_t NanosBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

}  // namespace

InferenceBatcher::InferenceBatcher(const RouteForecaster* forecaster,
                                   const Options& options)
    : forecaster_(forecaster), options_(options) {
  obs::MetricsRegistry* registry =
      obs::MetricsRegistry::OrGlobal(options_.metrics);
  // Batch sizes are small integers; give the histogram fine buckets so the
  // coalescing behaviour (1 vs 8 vs 32) is visible, not smeared.
  obs::Histogram::Options size_buckets;
  size_buckets.lowest = 1.0;
  size_buckets.growth = 2.0;
  size_buckets.buckets = 10;
  batch_size_hist_ = registry->GetHistogram(
      "marlin_nn_inference_batch_size",
      "Requests coalesced per batched NN forward", {}, size_buckets);
  per_item_nanos_hist_ = registry->GetHistogram(
      "marlin_nn_inference_nanos",
      "SequenceRegressor inference latency in nanoseconds per sample",
      {{"mode", "batched"}});
  queue_wait_hist_ = registry->GetHistogram(
      "marlin_nn_inference_queue_wait_nanos",
      "Time from Submit to the start of the request's batched forward");
  if (options_.background_flusher) {
    // See the server_ member note.
    server_ = std::thread([this] {  // chk-lint: allow(no-raw-thread)
      ServeLoop();
    });
  }
}

InferenceBatcher::~InferenceBatcher() { Stop(); }

Status InferenceBatcher::Submit(const SvrfInput& input, Callback callback) {
  const SteadyTime now = std::chrono::steady_clock::now();
  bool wake_server = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::FailedPrecondition("inference batcher stopped");
    }
    if (static_cast<int>(pending_.size()) >= options_.max_queue) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted("inference batch queue full");
    }
    pending_.push_back(Request{input, std::move(callback), now});
    submitted_.fetch_add(1, std::memory_order_relaxed);
    const int size = static_cast<int>(pending_.size());
    if (options_.background_flusher) {
      // The first request starts the server's deadline wait; a full batch
      // ends it.
      wake_server = size == 1 || size == options_.max_batch;
    } else if (size < options_.max_batch) {
      return Status::Ok();
    }
  }
  if (options_.background_flusher) {
    if (wake_server) serve_cv_.notify_one();
  } else {
    // No serving thread: this submit completed a batch, so run it here.
    RunNextBatch(options_.max_batch);
  }
  return Status::Ok();
}

int InferenceBatcher::Flush() {
  int flushed = 0;
  for (;;) {
    const int n = RunNextBatch(1);
    if (n == 0) return flushed;
    flushed += n;
  }
}

void InferenceBatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      // Already stopped; the first Stop flushed and joined.
      return;
    }
    stopped_ = true;
  }
  serve_cv_.notify_all();
  if (server_.joinable()) server_.join();
  Flush();
}

bool InferenceBatcher::Quiescent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.empty() && in_flight_.load(std::memory_order_acquire) == 0;
}

InferenceBatcher::Stats InferenceBatcher::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.size_flushes = size_flushes_.load(std::memory_order_relaxed);
  s.deadline_flushes = deadline_flushes_.load(std::memory_order_relaxed);
  return s;
}

int InferenceBatcher::RunNextBatch(int min_size) {
  // The run lock is taken before dequeuing: whoever dequeues first also
  // finishes first, so batches complete in submission order.
  std::lock_guard<std::mutex> run_lock(run_mu_);
  int n = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    n = std::min(static_cast<int>(pending_.size()), options_.max_batch);
    if (n == 0 || n < min_size) return 0;
    for (int i = 0; i < n; ++i) {
      batch_.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    in_flight_.fetch_add(n, std::memory_order_relaxed);
  }
  RunBatch();
  return n;
}

void InferenceBatcher::RunBatch() {
  const int n = static_cast<int>(batch_.size());
  inputs_.clear();
  for (const Request& r : batch_) inputs_.push_back(r.input);

  // Batches run one at a time under run_mu_, so these observations never
  // contend with each other.
  const SteadyTime start = std::chrono::steady_clock::now();
  for (const Request& r : batch_) {
    queue_wait_hist_->Observe(NanosBetween(r.enqueued, start));
  }
  forecaster_->ForecastBatch(inputs_, &results_);
  const int64_t total_nanos =
      NanosBetween(start, std::chrono::steady_clock::now());

  batches_.fetch_add(1, std::memory_order_relaxed);
  (n == options_.max_batch ? size_flushes_ : deadline_flushes_)
      .fetch_add(1, std::memory_order_relaxed);
  batch_size_hist_->Observe(n);
  const int64_t per_item_nanos = total_nanos / n;
  per_item_nanos_hist_->Observe(per_item_nanos);

  for (int i = 0; i < n; ++i) {
    const size_t k = static_cast<size_t>(i);
    if (k < results_.size()) {
      batch_[k].callback(std::move(results_[k]), per_item_nanos);
    } else {
      // A forecaster that under-fills `results` violates the contract;
      // surface it per-item rather than dropping the callback.
      batch_[k].callback(Status::Internal("forecaster returned short batch"),
                         per_item_nanos);
    }
    // Count the delivery before leaving in-flight, so a caller that sees
    // Quiescent() also sees every delivery (see Delivered()).
    delivered_.fetch_add(1, std::memory_order_release);
    in_flight_.fetch_sub(1, std::memory_order_release);
  }
  batch_.clear();
}

void InferenceBatcher::ServeLoop() {
  const auto deadline =
      std::chrono::microseconds(options_.flush_deadline_micros);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    serve_cv_.wait(lock, [this] { return stopped_ || !pending_.empty(); });
    if (stopped_) return;
    if (static_cast<int>(pending_.size()) < options_.max_batch) {
      const SteadyTime due = pending_.front().enqueued + deadline;
      if (std::chrono::steady_clock::now() < due) {
        // Woken by a full batch, Stop() or the deadline: decide again, as
        // a Flush() may have taken the oldest request meanwhile.
        serve_cv_.wait_until(lock, due);
        continue;
      }
    }
    lock.unlock();
    RunNextBatch(1);
    lock.lock();
  }
}

}  // namespace marlin
