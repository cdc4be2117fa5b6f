#ifndef MARLIN_PERFBENCH_TRACE_H_
#define MARLIN_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded span: a call the benchmark made into a layer of the
/// program. `tick` groups the spans of one tick or burst (-1 = none).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int64_t tick = -1;
  int thread = 0;
};

/// In-memory span recorder for the traced run. Spans are only recorded
/// while `enabled()`; they are written out once, at exit, as Chrome
/// trace-event JSON. Recording takes a mutex: the benchmark's threads
/// record at most a few thousand spans per second.
class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a finished span. A span without an id gets a fresh one;
  /// returns the id.
  uint64_t Record(Span span);

  size_t size() const;
  /// Writes {"traceEvents": [...]} to `path`; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Scoped span: records [construction, destruction) when the tracer is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent, int64_t tick,
             int thread)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        name_(name),
        parent_(parent),
        tick_(tick),
        thread_(thread),
        id_(tracer_ != nullptr ? tracer_->NextId() : 0),
        start_(tracer_ != nullptr ? NowNanos() : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Record(
          Span{name_, start_, NowNanos(), id_, parent_, tick_, thread_});
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Id children pass as their parent (0 when not recording).
  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t parent_;
  int64_t tick_;
  int thread_;
  uint64_t id_;
  int64_t start_;
};

/// Quantile of `values` (nearest rank on a sorted copy); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // MARLIN_PERFBENCH_TRACE_H_
