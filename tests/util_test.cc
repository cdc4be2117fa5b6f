#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/clock.h"
#include "util/format.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace marlin {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad lat");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad lat");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad lat");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v = std::string("hello");
  std::string taken = std::move(v).value();
  EXPECT_EQ(taken, "hello");
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseMacros(int x, int* out) {
  MARLIN_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  MARLIN_RETURN_IF_ERROR(Status::Ok());
  *out = v * 2;
  return Status::Ok();
}

TEST(StatusOrTest, MacrosPropagate) {
  int out = 0;
  EXPECT_TRUE(UseMacros(21, &out).ok());
  EXPECT_EQ(out, 42);
  Status bad = UseMacros(-1, &out);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Clock

TEST(ClockTest, SimulatedClockAdvances) {
  SimulatedClock clock(1000);
  EXPECT_EQ(clock.Now(), 1000);
  clock.Advance(500);
  EXPECT_EQ(clock.Now(), 1500);
  clock.Set(42);
  EXPECT_EQ(clock.Now(), 42);
}

TEST(ClockTest, WallClockMonotonicallyReasonable) {
  WallClock clock;
  const TimeMicros a = clock.Now();
  const TimeMicros b = clock.Now();
  EXPECT_GE(b, a);
  // After 2020-01-01 in microseconds.
  EXPECT_GT(a, int64_t{1577836800} * 1000000);
}

TEST(ClockTest, StopwatchMeasuresElapsed) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GT(sw.ElapsedNanos(), 0);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-5.0, 5.0);
    EXPECT_GE(x, -5.0);
    EXPECT_LT(x, 5.0);
    const int64_t n = rng.UniformInt(int64_t{3}, int64_t{9});
    EXPECT_GE(n, 3);
    EXPECT_LE(n, 9);
  }
}

TEST(RngTest, NormalHasApproximatelyUnitMoments) {
  Rng rng(42);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, ExponentialHasExpectedMean) {
  Rng rng(9);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.Fork();
  // The child stream must not simply mirror the parent.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextUint64() == child.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&] {
      const int now = running.fetch_add(1) + 1;
      int prev = peak.load();
      while (prev < now && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      running.fetch_sub(1);
    });
  }
  pool.WaitIdle();
  EXPECT_GE(peak.load(), 2);
}

TEST(ThreadPoolTest, MinimumOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.WaitIdle();
  EXPECT_TRUE(ran.load());
}

// Regression: a second concurrent Shutdown() caller used to race the first
// one's worker.join()/workers_.clear() (joining already-joined threads,
// clearing a vector mid-iteration). Every caller must block until the
// workers are down, and the pool must stay usable for queries afterwards.
TEST(ThreadPoolTest, ConcurrentShutdownIsIdempotent) {
  for (int round = 0; round < 25; ++round) {
    ThreadPool pool(4);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([] {});
    }
    std::vector<std::thread> callers;
    for (int t = 0; t < 4; ++t) {
      callers.emplace_back([&pool] { pool.Shutdown(); });
    }
    for (auto& th : callers) th.join();
    EXPECT_FALSE(pool.Submit([] {}));
    EXPECT_EQ(pool.num_threads(), 4);
  }
}

TEST(ThreadPoolTest, QueueDepthDrainsToZero) {
  ThreadPool pool(2);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([] {});
  }
  pool.WaitIdle();
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

// ---------------------------------------------------------------- Logging

TEST(LoggingTest, LevelsFilter) {
  Logger::Instance().set_min_level(LogLevel::kError);
  EXPECT_FALSE(Logger::Instance().Enabled(LogLevel::kInfo));
  EXPECT_TRUE(Logger::Instance().Enabled(LogLevel::kError));
  Logger::Instance().set_min_level(LogLevel::kInfo);
  EXPECT_TRUE(Logger::Instance().Enabled(LogLevel::kInfo));
}

// ---------------------------------------------------------------- Format

/// The reference AppendFixed must reproduce byte for byte.
std::string PrintfFixed(double value, int precision) {
  char buf[400];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

/// AppendFixed's rendering alone; the prefix checks that it appends.
std::string Fixed(double value, int precision) {
  std::string out = "prefix:";
  AppendFixed(&out, value, precision);
  return out.substr(7);
}

TEST(FormatTest, AppendFixedMatchesPrintfOnEdgeCases) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double value :
       {0.0, -0.0, 5e-7, -5e-7, 0.05, 0.25, 2.5, 179.9999995, -179.9999995,
        1e308, -1e308, DBL_MAX, -DBL_MAX, DBL_TRUE_MIN, 1e-300, inf, -inf,
        nan, -nan}) {
    for (int precision : {0, 1, 6, kMaxFixedPrecision}) {
      EXPECT_EQ(Fixed(value, precision), PrintfFixed(value, precision))
          << "value " << value << " precision " << precision;
    }
  }
}

TEST(FormatTest, AppendFixedMatchesPrintfOnSeededCorpus) {
  // A million doubles in ±1e7: uniform draws, the nearest doubles to
  // 6-decimal and 1-decimal rounding ties, and exact binary ties (k/128,
  // which has seven decimals, and .25/.75).
  Rng rng(20261017);
  int mismatches = 0;
  for (int i = 0; i < 1000000; ++i) {
    const double x = rng.Uniform(-1e7, 1e7);
    double value = x;
    switch (i % 4) {
      case 1:
        value = std::round(x * 1e6) / 1e6 + 5e-7;
        break;
      case 2:
        value = std::round(x * 10.0) / 10.0 + 0.05;
        break;
      case 3:
        value = std::floor(x) +
                static_cast<double>(rng.NextUint64() % 128) / 128.0;
        break;
    }
    for (int precision : {1, 6}) {
      const std::string expected = PrintfFixed(value, precision);
      const std::string actual = Fixed(value, precision);
      if (actual != expected && ++mismatches <= 5) {
        char repr[32];
        std::snprintf(repr, sizeof(repr), "%.17g", value);
        ADD_FAILURE() << repr << " at precision " << precision << ": printf "
                      << expected << ", AppendFixed " << actual;
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(FormatTest, AppendIntMatchesPrintf) {
  for (int64_t value : {int64_t{0}, int64_t{-1}, int64_t{237000042},
                        std::numeric_limits<int64_t>::max(),
                        std::numeric_limits<int64_t>::min()}) {
    std::string out;
    AppendInt(&out, value);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    EXPECT_EQ(out, buf);
  }
}

}  // namespace
}  // namespace marlin
