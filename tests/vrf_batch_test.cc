// Batched S-VRF inference tests (DESIGN.md §10): ForecastBatch bitwise
// equality with single-input Forecast, the InferenceBatcher flush policy,
// exactly-once callback contract (including concurrent submits) and
// submission-order batch completion, the thread-local replica eviction
// regression, the FeatureScaler empty-fit guard, and the batched pipeline
// under the chk deterministic scheduler.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ais/preprocess.h"
#include "chk/deterministic_scheduler.h"
#include "core/pipeline.h"
#include "geo/geodesy.h"
#include "obs/metrics.h"
#include "geo/world.h"
#include "util/clock.h"
#include "vrf/inference_batcher.h"
#include "vrf/svrf_model.h"

namespace marlin {
namespace {

/// A straight eastward track at constant speed; returns supervised samples.
std::vector<SvrfSample> StraightSamples(double sog_knots = 12.0,
                                        double lat = 38.0) {
  std::vector<AisPosition> track;
  const double meters_per_min = sog_knots * kKnotsToMps * 60.0;
  LatLng pos{lat, 24.0};
  for (int i = 0; i < 150; ++i) {
    AisPosition p;
    p.mmsi = 1;
    p.timestamp = static_cast<TimeMicros>(i) * kMicrosPerMinute;
    p.position = pos;
    p.sog_knots = sog_knots;
    p.cog_deg = 90.0;
    track.push_back(p);
    pos = DestinationPoint(pos, 90.0, meters_per_min);
  }
  return BuildSvrfSamples(track, SampleBuilderOptions{});
}

void ExpectTrajectoriesBitwiseEqual(const ForecastTrajectory& a,
                                    const ForecastTrajectory& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].position.lat_deg, b.points[i].position.lat_deg)
        << "point " << i;
    EXPECT_EQ(a.points[i].position.lon_deg, b.points[i].position.lon_deg)
        << "point " << i;
    EXPECT_EQ(a.points[i].time, b.points[i].time) << "point " << i;
  }
}

// --------------------------------------------------------- FeatureScaler

TEST(FeatureScalerTest, FitOnEmptySampleSetKeepsFiniteDefaults) {
  // Regression: the RMS divisor is the sample count; fitting on an empty
  // set must not divide by zero and poison every later forecast with NaNs.
  const FeatureScaler fitted = FeatureScaler::Fit({});
  const FeatureScaler defaults;
  EXPECT_TRUE(std::isfinite(fitted.dlat_scale));
  EXPECT_TRUE(std::isfinite(fitted.dlon_scale));
  EXPECT_TRUE(std::isfinite(fitted.dt_scale));
  EXPECT_EQ(fitted.dlat_scale, defaults.dlat_scale);
  EXPECT_EQ(fitted.dlon_scale, defaults.dlon_scale);
  EXPECT_EQ(fitted.dt_scale, defaults.dt_scale);
}

TEST(FeatureScalerTest, FitOnRealSamplesProducesPositiveFiniteScales) {
  const FeatureScaler fitted = FeatureScaler::Fit(StraightSamples());
  EXPECT_TRUE(std::isfinite(fitted.dlat_scale));
  EXPECT_TRUE(std::isfinite(fitted.dlon_scale));
  EXPECT_TRUE(std::isfinite(fitted.dt_scale));
  EXPECT_GT(fitted.dlat_scale, 0.0);
  EXPECT_GT(fitted.dlon_scale, 0.0);
  EXPECT_GT(fitted.dt_scale, 0.0);
}

// ------------------------------------------------ thread-local replicas

TEST(SvrfReplicaTest, ReplicasOfDestroyedModelsAreEvicted) {
  // Regression for the thread-local replica cache: entries used to be
  // keyed by the owning model's address and never evicted, so a thread
  // serving a churn of short-lived models leaked one network per model —
  // and a freed address reused by a new model aliased its stale replica.
  const auto samples = StraightSamples();
  const SvrfInput& input = samples[0].input;
  for (int i = 0; i < 16; ++i) {
    SvrfModel::Config config;
    // Vary the architecture so an aliased stale replica would be
    // shape-incompatible, not silently wrong.
    config.hidden_dim = 8 + (i % 3) * 4;
    config.dense_dim = 8 + (i % 2) * 8;
    SvrfModel model(config);
    const auto forecast = model.Forecast(input);
    ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
    ASSERT_EQ(forecast->points.size(),
              static_cast<size_t>(kSvrfOutputSteps + 1));
    // Dead-model replicas are pruned on the cache miss that created this
    // model's replica, so the live count never exceeds the live models
    // this thread has touched (1 here, +1 slack for the fixture).
    EXPECT_LE(SvrfModel::ThreadLocalReplicaCountForTesting(), 2u)
        << "replica cache leaked after " << i + 1 << " model cycles";
  }
}

TEST(SvrfReplicaTest, ReplicaFollowsWeightUpdates) {
  // A replica cloned before training must refresh when the master's
  // version bumps — and stay bitwise in sync with a fresh Forecast.
  const auto samples = StraightSamples();
  SvrfModel::Config config;
  config.hidden_dim = 8;
  config.dense_dim = 8;
  SvrfModel model(config);
  const auto before = model.Forecast(samples[0].input);
  ASSERT_TRUE(before.ok());
  Trainer::Options options;
  options.epochs = 2;
  options.batch_size = 32;
  std::vector<SvrfSample> train(samples.begin(),
                                samples.begin() + samples.size() / 2);
  model.Train(train, {}, options);
  const auto after = model.Forecast(samples[0].input);
  ASSERT_TRUE(after.ok());
  // Training must actually have changed the replica's output.
  bool any_diff = false;
  for (size_t i = 1; i < after->points.size(); ++i) {
    if (after->points[i].position.lat_deg !=
            before->points[i].position.lat_deg ||
        after->points[i].position.lon_deg !=
            before->points[i].position.lon_deg) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

// ---------------------------------------------------------- ForecastBatch

TEST(SvrfBatchTest, BatchBitwiseMatchesSingleForecast) {
  const auto samples = StraightSamples();
  ASSERT_GE(samples.size(), 21u);
  SvrfModel model;
  std::vector<SvrfInput> inputs;
  for (int i = 0; i < 7; ++i) {  // ragged vs the SIMD lane width on purpose
    inputs.push_back(samples[static_cast<size_t>(i * 3)].input);
  }
  std::vector<StatusOr<ForecastTrajectory>> results;
  model.ForecastBatch(inputs, &results);
  ASSERT_EQ(results.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "item " << i;
    const auto single = model.Forecast(inputs[i]);
    ASSERT_TRUE(single.ok());
    ExpectTrajectoriesBitwiseEqual(*results[i], *single);
  }
}

TEST(SvrfBatchTest, BatchOfOneBitwiseMatchesSingleForecast) {
  const auto samples = StraightSamples();
  SvrfModel model;
  std::vector<StatusOr<ForecastTrajectory>> results;
  model.ForecastBatch({samples[5].input}, &results);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok());
  const auto single = model.Forecast(samples[5].input);
  ASSERT_TRUE(single.ok());
  ExpectTrajectoriesBitwiseEqual(*results[0], *single);
}

TEST(SvrfBatchTest, MidBatchInvalidInputFailsAloneWithoutPoisoningBatch) {
  const auto samples = StraightSamples();
  SvrfModel model;
  std::vector<SvrfInput> inputs;
  for (int i = 0; i < 5; ++i) {
    inputs.push_back(samples[static_cast<size_t>(i)].input);
  }
  inputs[2].anchor.lat_deg = std::nan("");
  std::vector<StatusOr<ForecastTrajectory>> results;
  model.ForecastBatch(inputs, &results);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_FALSE(results[2].ok());
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (i == 2) continue;
    ASSERT_TRUE(results[i].ok()) << "item " << i;
    const auto single = model.Forecast(inputs[i]);
    ASSERT_TRUE(single.ok());
    ExpectTrajectoriesBitwiseEqual(*results[i], *single);
  }
}

// ------------------------------------------------------- InferenceBatcher

class InferenceBatcherTest : public ::testing::Test {
 protected:
  InferenceBatcherTest() : samples_(StraightSamples()) {}

  InferenceBatcher::Options ManualOptions(int max_batch, int max_queue = 4096) {
    InferenceBatcher::Options options;
    options.max_batch = max_batch;
    options.max_queue = max_queue;
    options.background_flusher = false;  // deterministic: flush manually
    options.metrics = &registry_;
    return options;
  }

  InferenceBatcher::Callback CountInto(std::atomic<int>* fired,
                                       std::atomic<int>* failed = nullptr) {
    return [fired, failed](StatusOr<ForecastTrajectory> result, int64_t) {
      fired->fetch_add(1, std::memory_order_relaxed);
      if (failed != nullptr && !result.ok()) {
        failed->fetch_add(1, std::memory_order_relaxed);
      }
    };
  }

  obs::MetricsRegistry registry_;
  SvrfModel model_;
  std::vector<SvrfSample> samples_;
};

TEST_F(InferenceBatcherTest, PartialBatchDefersUntilFlush) {
  InferenceBatcher batcher(&model_, ManualOptions(/*max_batch=*/8));
  std::atomic<int> fired{0};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(batcher.Submit(samples_[0].input, CountInto(&fired)).ok());
  }
  EXPECT_EQ(fired.load(), 0);  // below max_batch, no ticker: nothing ran
  EXPECT_FALSE(batcher.Quiescent());
  EXPECT_EQ(batcher.Flush(), 3);
  EXPECT_EQ(fired.load(), 3);
  EXPECT_TRUE(batcher.Quiescent());
  // Each request's queue wait is observed once, when its batch starts.
  EXPECT_EQ(registry_
                .GetHistogram("marlin_nn_inference_queue_wait_nanos",
                              "Time from Submit to the start of the "
                              "request's batched forward")
                ->Count(),
            3u);
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.deadline_flushes, 1u);
  EXPECT_EQ(stats.size_flushes, 0u);
}

TEST_F(InferenceBatcherTest, FullBatchFlushesInlineOnSubmitter) {
  InferenceBatcher batcher(&model_, ManualOptions(/*max_batch=*/4));
  std::atomic<int> fired{0};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(batcher.Submit(samples_[0].input, CountInto(&fired)).ok());
    EXPECT_EQ(fired.load(), 0);
  }
  // The 4th submit completes the batch and runs it before returning.
  ASSERT_TRUE(batcher.Submit(samples_[0].input, CountInto(&fired)).ok());
  EXPECT_EQ(fired.load(), 4);
  EXPECT_TRUE(batcher.Quiescent());
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.size_flushes, 1u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
}

TEST_F(InferenceBatcherTest, FullQueueRejectsWithoutInvokingCallback) {
  InferenceBatcher batcher(&model_,
                           ManualOptions(/*max_batch=*/100, /*max_queue=*/2));
  std::atomic<int> fired{0};
  ASSERT_TRUE(batcher.Submit(samples_[0].input, CountInto(&fired)).ok());
  ASSERT_TRUE(batcher.Submit(samples_[0].input, CountInto(&fired)).ok());
  const Status overflow = batcher.Submit(samples_[0].input, CountInto(&fired));
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(batcher.stats().rejected, 1u);
  EXPECT_EQ(batcher.Flush(), 2);
  EXPECT_EQ(fired.load(), 2);  // the rejected submit's callback never fires
}

TEST_F(InferenceBatcherTest, StopFlushesPendingAndRejectsLaterSubmits) {
  InferenceBatcher batcher(&model_, ManualOptions(/*max_batch=*/8));
  std::atomic<int> fired{0};
  ASSERT_TRUE(batcher.Submit(samples_[0].input, CountInto(&fired)).ok());
  batcher.Stop();
  EXPECT_EQ(fired.load(), 1);  // Stop drains the remainder
  EXPECT_TRUE(batcher.Quiescent());
  const Status late = batcher.Submit(samples_[0].input, CountInto(&fired));
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(fired.load(), 1);
  batcher.Stop();  // idempotent
}

TEST_F(InferenceBatcherTest, FlushDrainsBacklogInMaxBatchChunks) {
  InferenceBatcher batcher(&model_,
                           ManualOptions(/*max_batch=*/4, /*max_queue=*/64));
  std::atomic<int> fired{0};
  for (int i = 0; i < 10; ++i) {
    // Interleave valid and invalid inputs: the per-item errors must land on
    // exactly the invalid submissions.
    SvrfInput input = samples_[0].input;
    if (i % 3 == 2) input.anchor.lat_deg = std::nan("");
    ASSERT_TRUE(batcher
                    .Submit(input,
                            [&fired, i](StatusOr<ForecastTrajectory> result,
                                        int64_t per_item_nanos) {
                              fired.fetch_add(1, std::memory_order_relaxed);
                              EXPECT_EQ(result.ok(), i % 3 != 2) << i;
                              EXPECT_GT(per_item_nanos, 0);
                            })
                    .ok());
  }
  // Two size-flushes happened inline at submits 4 and 8...
  EXPECT_EQ(fired.load(), 8);
  // ...and Flush drains the ragged remainder.
  EXPECT_EQ(batcher.Flush(), 2);
  EXPECT_EQ(fired.load(), 10);
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.size_flushes, 2u);
  EXPECT_EQ(stats.deadline_flushes, 1u);
}

TEST_F(InferenceBatcherTest, ConcurrentSubmitsFireEveryCallbackExactlyOnce) {
  // TSan target: submitting threads race each other and the serving
  // thread's dequeues; every callback must fire exactly once.
  InferenceBatcher::Options options;
  options.max_batch = 4;
  options.flush_deadline_micros = 200;
  options.background_flusher = true;
  options.metrics = &registry_;
  InferenceBatcher batcher(&model_, options);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> fired{0};
  std::atomic<int> failed{0};
  std::atomic<int> accepted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (batcher.Submit(samples_[0].input, CountInto(&fired, &failed))
                .ok()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  batcher.Stop();  // flushes the tail
  EXPECT_EQ(accepted.load(), kThreads * kPerThread);  // queue never filled
  EXPECT_EQ(fired.load(), accepted.load());
  EXPECT_EQ(failed.load(), 0);
  EXPECT_TRUE(batcher.Quiescent());
  EXPECT_EQ(batcher.stats().submitted,
            static_cast<uint64_t>(kThreads * kPerThread));
}

/// Forecaster whose first ForecastBatch waits up to 200 ms for a later
/// batch's callbacks to have fired (reported through LaterBatchDone()).
/// When batches run concurrently the later batch completes first; when
/// they are serialised the wait times out.
class FirstBatchWaitsForecaster : public RouteForecaster {
 public:
  StatusOr<ForecastTrajectory> Forecast(const SvrfInput& input) const override {
    ForecastTrajectory trajectory;
    trajectory.points.push_back(ForecastPoint{input.anchor, input.anchor_time});
    return trajectory;
  }

  void ForecastBatch(
      const std::vector<SvrfInput>& inputs,
      std::vector<StatusOr<ForecastTrajectory>>* results) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (calls_++ == 0) {
        cv_.notify_all();
        cv_.wait_for(lock, std::chrono::milliseconds(200),
                     [this] { return later_done_; });
      }
    }
    RouteForecaster::ForecastBatch(inputs, results);
  }

  void LaterBatchDone() {
    std::lock_guard<std::mutex> lock(mu_);
    later_done_ = true;
    cv_.notify_all();
  }

  /// Blocks until the first ForecastBatch call has started.
  bool AwaitFirstBatch() const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return calls_ > 0; });
  }

  std::string_view name() const override { return "first-batch-waits"; }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int calls_ = 0;
  bool later_done_ = false;
};

TEST_F(InferenceBatcherTest, BatchesCompleteInSubmissionOrder) {
  // Regression: a full batch used to run on the thread whose Submit filled
  // it, so a later batch could overtake an earlier one and a vessel's
  // results reached its mailbox out of order (observed: 2 2 2 2 1 1 1 1).
  FirstBatchWaitsForecaster forecaster;
  InferenceBatcher::Options options;
  options.max_batch = 4;
  // Only full batches run, so each thread's four requests form one batch.
  options.flush_deadline_micros = 60'000'000;
  options.background_flusher = true;
  options.metrics = &registry_;
  InferenceBatcher batcher(&forecaster, options);
  std::mutex order_mu;
  std::vector<int> order;
  int second_fired = 0;
  const auto fill_batch = [&](int tag) {
    for (int i = 0; i < 4; ++i) {
      const Status status = batcher.Submit(
          samples_[0].input, [&, tag](StatusOr<ForecastTrajectory>, int64_t) {
            std::lock_guard<std::mutex> lock(order_mu);
            order.push_back(tag);
            if (tag == 2 && ++second_fired == 4) forecaster.LaterBatchDone();
          });
      EXPECT_TRUE(status.ok()) << status.ToString();
    }
  };
  std::thread first([&] { fill_batch(1); });
  EXPECT_TRUE(forecaster.AwaitFirstBatch());
  std::thread second([&] { fill_batch(2); });
  first.join();
  second.join();
  batcher.Stop();
  EXPECT_EQ(order, (std::vector<int>{1, 1, 1, 1, 2, 2, 2, 2}));
}

// ------------------------------------------- pipeline under chk scheduler

AisPosition At(Mmsi mmsi, TimeMicros t, double lat, double lon) {
  AisPosition p;
  p.mmsi = mmsi;
  p.timestamp = t;
  p.position = LatLng{lat, lon};
  p.sog_knots = 12.0;
  p.cog_deg = 90.0;
  p.heading_deg = 90;
  return p;
}

void FeedStraightTrack(MaritimePipeline* pipeline, Mmsi mmsi, int points) {
  LatLng pos{38.0, 24.0};
  for (int i = 0; i < points; ++i) {
    ASSERT_TRUE(pipeline
                    ->Ingest(At(mmsi,
                                static_cast<TimeMicros>(i) * kMicrosPerMinute,
                                pos.lat_deg, pos.lon_deg))
                    .ok());
    pos = DestinationPoint(pos, 90.0, 12.0 * kKnotsToMps * 60.0);
  }
}

/// One deterministic batched-pipeline run; returns the schedule hash.
uint64_t RunBatchedPipelineDeterministically(
    uint64_t seed, std::shared_ptr<const RouteForecaster> forecaster,
    int64_t* forecasts_out) {
  auto sched = std::make_shared<chk::DeterministicScheduler>(seed);
  obs::MetricsRegistry registry;
  PipelineConfig config;
  config.actor_system.dispatcher = sched;
  config.actor_system.throughput = 1;
  config.batched_inference = true;
  config.inference_batch_size = 8;
  config.metrics = &registry;
  MaritimePipeline pipeline(std::move(forecaster), config);
  EXPECT_TRUE(pipeline.Start().ok());
  for (Mmsi mmsi = 900; mmsi < 904; ++mmsi) {
    FeedStraightTrack(&pipeline, mmsi, 40);
  }
  pipeline.AwaitQuiescence();
  // NOTE: no blocking Ask (e.g. LatestForecast) here — under the
  // cooperative scheduler futures only resolve inside a quiesce, so a
  // blocking get() would deadlock. The stats counters are lock-free.
  *forecasts_out = pipeline.Stats().forecasts_generated;
  pipeline.Stop();
  return sched->TraceHash();
}

TEST(BatchedPipelineChkTest, BatchedInferenceRunsUnderDeterministicScheduler) {
  // Under a cooperative single-threaded scheduler the pipeline starts no
  // serving thread, so the actor↔batcher drain loop in AwaitQuiescence is
  // the only thing that flushes partial batches — forecasts must still come
  // out, and the same seed must reproduce the identical schedule.
  auto forecaster = std::make_shared<SvrfModel>();
  int64_t forecasts1 = 0;
  int64_t forecasts2 = 0;
  const uint64_t hash1 =
      RunBatchedPipelineDeterministically(42, forecaster, &forecasts1);
  const uint64_t hash2 =
      RunBatchedPipelineDeterministically(42, forecaster, &forecasts2);
  EXPECT_GT(forecasts1, 0);
  EXPECT_EQ(forecasts1, forecasts2);
  EXPECT_EQ(hash1, hash2);
}

TEST(BatchedPipelineChkTest, BatchedForecastsBitwiseMatchInlineForecasts) {
  // End-to-end value equivalence: the same interleaved tracks through a
  // batched and an unbatched pipeline (same untrained model weights via the
  // fixed seed) must leave every vessel holding a bitwise-identical final
  // forecast. With many vessels sharing each batch this also catches batch
  // results applied out of order.
  constexpr Mmsi kFirst = 1200;
  constexpr int kVessels = 48;
  std::vector<ForecastTrajectory> trajectories[2];
  for (const bool batched : {false, true}) {
    obs::MetricsRegistry registry;
    PipelineConfig config;
    config.actor_system.num_threads = 2;
    config.batched_inference = batched;
    config.metrics = &registry;
    MaritimePipeline pipeline(std::make_shared<SvrfModel>(), config);
    ASSERT_TRUE(pipeline.Start().ok());
    std::vector<LatLng> pos;
    for (int v = 0; v < kVessels; ++v) pos.push_back({38.0 + v * 0.01, 24.0});
    for (int i = 0; i < 40; ++i) {
      for (int v = 0; v < kVessels; ++v) {
        LatLng& p = pos[static_cast<size_t>(v)];
        ASSERT_TRUE(pipeline
                        .Ingest(At(kFirst + static_cast<Mmsi>(v),
                                   static_cast<TimeMicros>(i) *
                                       kMicrosPerMinute,
                                   p.lat_deg, p.lon_deg))
                        .ok());
        p = DestinationPoint(p, 90.0, 12.0 * kKnotsToMps * 60.0);
      }
    }
    pipeline.AwaitQuiescence();
    for (int v = 0; v < kVessels; ++v) {
      const auto forecast =
          pipeline.LatestForecast(kFirst + static_cast<Mmsi>(v));
      ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
      trajectories[batched ? 1 : 0].push_back(*forecast);
    }
    pipeline.Stop();
  }
  for (int v = 0; v < kVessels; ++v) {
    SCOPED_TRACE("vessel " + std::to_string(v));
    ExpectTrajectoriesBitwiseEqual(trajectories[0][static_cast<size_t>(v)],
                                   trajectories[1][static_cast<size_t>(v)]);
  }
}

}  // namespace
}  // namespace marlin
