// Google-benchmark microbenchmarks of the Marlin substrates: the hot
// per-message operations of the pipeline (grid indexing, codec, actor
// messaging, storage, model inference). These quantify the per-message cost
// budget behind the Figure-6 plateau.

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>

#include "actor/actor_system.h"
#include "ais/codec.h"
#include "ais/preprocess.h"
#include "events/proximity.h"
#include "hexgrid/hexgrid.h"
#include "kvstore/kvstore.h"
#include "obs/metrics.h"
#include "stream/broker.h"
#include "util/rng.h"
#include "vrf/linear_model.h"
#include "vrf/svrf_model.h"

namespace marlin {
namespace {

void BM_HexGridLatLngToCell(benchmark::State& state) {
  Rng rng(1);
  std::vector<LatLng> points;
  for (int i = 0; i < 1024; ++i) {
    points.push_back(LatLng{rng.Uniform(-70, 70), rng.Uniform(-179, 179)});
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HexGrid::LatLngToCell(points[i++ & 1023], 9));
  }
}
BENCHMARK(BM_HexGridLatLngToCell);

void BM_HexGridKRing(benchmark::State& state) {
  const CellId cell = HexGrid::LatLngToCell(LatLng{38.0, 24.0}, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HexGrid::KRing(cell, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_HexGridKRing)->Arg(1)->Arg(3);

void BM_AisCodecEncode(benchmark::State& state) {
  AisPosition report;
  report.mmsi = 237123456;
  report.timestamp = 1700000000LL * kMicrosPerSecond;
  report.position = LatLng{37.95, 23.64};
  report.sog_knots = 14.2;
  report.cog_deg = 215.5;
  report.heading_deg = 216;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AisCodec::EncodePosition(report));
  }
}
BENCHMARK(BM_AisCodecEncode);

void BM_AisCodecDecode(benchmark::State& state) {
  AisPosition report;
  report.mmsi = 237123456;
  report.timestamp = 1700000000LL * kMicrosPerSecond;
  report.position = LatLng{37.95, 23.64};
  report.sog_knots = 14.2;
  report.cog_deg = 215.5;
  const std::string sentence = AisCodec::EncodePosition(report);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        AisCodec::DecodePosition(sentence, report.timestamp));
  }
}
BENCHMARK(BM_AisCodecDecode);

// Cost of one hot-path metric update — this rides on every actor message,
// so it must stay in the few-nanosecond range.
void BM_ObsCounterIncrement(benchmark::State& state) {
  static obs::Counter counter;
  for (auto _ : state) {
    counter.Increment();
  }
  benchmark::DoNotOptimize(counter.Value());
}
BENCHMARK(BM_ObsCounterIncrement)->Threads(1)->Threads(8);

void BM_ObsHistogramObserve(benchmark::State& state) {
  static obs::Histogram histogram;
  int64_t nanos = 1;
  for (auto _ : state) {
    histogram.Observe(nanos);
    nanos = (nanos * 7) & 0xFFFFF;
  }
  benchmark::DoNotOptimize(histogram.Count());
}
BENCHMARK(BM_ObsHistogramObserve)->Threads(1)->Threads(8);

void BM_ObsRegistryRender(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 20; ++i) {
    registry
        .GetCounter("bench_total", "bench", {{"k", std::to_string(i)}})
        ->Increment(i);
    registry
        .GetHistogram("bench_nanos", "bench", {{"k", std::to_string(i)}})
        ->Observe(i * 1000);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.RenderPrometheus());
  }
}
BENCHMARK(BM_ObsRegistryRender);

void BM_KvStoreHSet(benchmark::State& state) {
  KvStore store;
  int i = 0;
  for (auto _ : state) {
    store.HSet("vessel:" + std::to_string(i & 1023), "lat", "37.95");
    ++i;
  }
}
BENCHMARK(BM_KvStoreHSet);

void BM_BrokerAppend(benchmark::State& state) {
  Broker broker;
  (void)broker.CreateTopic("bench", 8);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        broker.Append("bench", std::to_string(i & 255), "payload", i));
    ++i;
  }
}
BENCHMARK(BM_BrokerAppend);

/// Minimal counting actor for throughput measurement.
class CountActor : public Actor {
 public:
  Status Receive(const std::any& message, ActorContext& ctx) override {
    (void)ctx;
    if (std::any_cast<int>(&message) != nullptr) count_.fetch_add(1);
    return Status::Ok();
  }
  std::atomic<int64_t> count_{0};
};

void BM_ActorTellThroughput(benchmark::State& state) {
  ActorSystemConfig config;
  config.num_threads = 2;
  ActorSystem system(config);
  auto ref = system.SpawnActor<CountActor>("bench");
  for (auto _ : state) {
    system.Tell(*ref, 1);
  }
  system.AwaitQuiescence();
}
BENCHMARK(BM_ActorTellThroughput);

void BM_ProximityObserve(benchmark::State& state) {
  ProximityDetector detector;
  Rng rng(3);
  TimeMicros t = 0;
  int since_prune = 0;
  for (auto _ : state) {
    AisPosition report;
    report.mmsi = static_cast<Mmsi>(rng.UniformInt(uint64_t{500}));
    report.timestamp = t += kMicrosPerSecond;
    report.position = LatLng{38.0 + rng.Uniform(-0.05, 0.05),
                             24.0 + rng.Uniform(-0.05, 0.05)};
    benchmark::DoNotOptimize(detector.Observe(report));
    // Prune on stream time as CellActor does, so the stored reports (and
    // the cost per observe) stay stationary however many iterations run.
    if (++since_prune >= 64) {
      since_prune = 0;
      detector.Prune(report.timestamp);
    }
  }
}
BENCHMARK(BM_ProximityObserve);

SvrfInput MakeInput() {
  SvrfInput input;
  for (int i = 0; i < kSvrfInputLength; ++i) {
    input.displacements[i] = {0.001, 0.002, 60.0};
  }
  input.anchor = LatLng{38.0, 24.0};
  input.anchor_sog_knots = 12.0;
  input.anchor_cog_deg = 90.0;
  return input;
}

void BM_LinearForecast(benchmark::State& state) {
  LinearKinematicModel model;
  const SvrfInput input = MakeInput();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forecast(input));
  }
}
BENCHMARK(BM_LinearForecast);

void BM_SvrfForecast(benchmark::State& state) {
  SvrfModel::Config config;
  config.hidden_dim = static_cast<int>(state.range(0));
  config.dense_dim = static_cast<int>(state.range(0));
  SvrfModel model(config);
  const SvrfInput input = MakeInput();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Forecast(input));
  }
}
BENCHMARK(BM_SvrfForecast)->Arg(12)->Arg(16)->Arg(32);

}  // namespace
}  // namespace marlin

BENCHMARK_MAIN();
