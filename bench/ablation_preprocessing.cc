// Ablation for the §4.2 preprocessing decisions: the fixed 20-displacement
// input tensor (down from the original model's variable tensor of up to
// 1000 displacements) and the 30-second minimum downsampling rate
// ("validated after additional experimentations"), plus Marlin's own
// velocity-channel feature augmentation.
//
// Sweeps the downsampling interval {none, 30 s, 60 s, 120 s} at fixed
// tensor shape and reports dataset size, training cost and test ADE, then
// ablates the velocity features at the 30 s setting.
//
// Scale knobs: MARLIN_AP_VESSELS, MARLIN_AP_EPOCHS.

#include <cstdio>
#include <map>

#include "ais/preprocess.h"
#include "bench/bench_util.h"
#include "util/clock.h"
#include "vrf/linear_model.h"
#include "vrf/metrics.h"
#include "vrf/svrf_model.h"

namespace marlin {
namespace {

struct SweepResult {
  size_t samples = 0;
  double train_sec = 0.0;
  double mean_ade_m = 0.0;
};

SweepResult RunSweep(const std::map<Mmsi, std::vector<AisPosition>>& tracks,
                     TimeMicros downsample, bool velocity_features,
                     int epochs) {
  SampleBuilderOptions sample_options;
  sample_options.downsample_interval = downsample;
  sample_options.stride = 4;
  std::vector<SvrfSample> all;
  for (const auto& [mmsi, track] : tracks) {
    const auto samples = BuildSvrfSamples(track, sample_options);
    all.insert(all.end(), samples.begin(), samples.end());
  }
  Rng rng(4242);
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.UniformInt(static_cast<uint64_t>(i))]);
  }
  SweepResult result;
  result.samples = all.size();
  if (all.size() < 50) return result;
  const size_t split = all.size() * 3 / 4;
  std::vector<SvrfSample> train(all.begin(), all.begin() + static_cast<long>(split));
  std::vector<SvrfSample> test(all.begin() + static_cast<long>(split), all.end());

  bench::SvrfTrainSpec spec;
  spec.hidden_dim = 16;
  spec.epochs = epochs;
  SvrfModel::Config config;
  config.hidden_dim = spec.hidden_dim;
  config.dense_dim = spec.hidden_dim;
  config.use_velocity_features = velocity_features;
  SvrfModel model(config);
  Stopwatch watch;
  bench::TrainSvrf(&model, train, {}, spec);
  result.train_sec = watch.ElapsedMillis() / 1000.0;
  result.mean_ade_m = EvaluateForecaster(model, test).mean_ade_m;
  return result;
}

int Run() {
  const int vessels =
      static_cast<int>(bench::EnvInt("MARLIN_AP_VESSELS", 100));
  const int epochs = static_cast<int>(bench::EnvInt("MARLIN_AP_EPOCHS", 8));

  std::printf("=== Ablation: S-VRF preprocessing (§4.2) ===\n");
  std::printf("workload: %d vessels, 8 h stream; fixed 20-step tensor; "
              "sweeping the minimum downsampling interval\n\n",
              vessels);
  std::printf("tensor memory per input: fixed 20x5 doubles = %zu B vs the "
              "original variable tensor of up to 1000x3 doubles = %zu B "
              "(the §4.2 memory motivation)\n\n",
              20 * 5 * sizeof(double), 1000 * 3 * sizeof(double));

  const World world = World::GlobalWorld(7);
  des::EventFleetConfig fleet_config;
  fleet_config.num_vessels = vessels;
  fleet_config.seed = 31337;
  const auto tracks = des::RunFleetTracks(world, fleet_config, 8.0 * 3600.0);

  struct Row {
    const char* label;
    TimeMicros downsample;
    bool velocity;
  };
  const Row rows[] = {
      {"no downsampling", 0, true},
      {"30 s (paper)", 30 * kMicrosPerSecond, true},
      {"60 s", 60 * kMicrosPerSecond, true},
      {"120 s", 120 * kMicrosPerSecond, true},
      {"30 s, no velocity feats", 30 * kMicrosPerSecond, false},
  };

  std::printf("| configuration            | samples | train (s) | mean ADE "
              "(m) |\n");
  std::printf("|--------------------------|---------|-----------|----------"
              "----|\n");
  double ade_30 = 0.0, ade_none = 0.0, ade_120 = 0.0, ade_novel = 0.0;
  for (const Row& row : rows) {
    const SweepResult result =
        RunSweep(tracks, row.downsample, row.velocity, epochs);
    std::printf("| %-24s | %7zu | %9.1f | %12.1f |\n", row.label,
                result.samples, result.train_sec, result.mean_ade_m);
    if (row.downsample == 30 * kMicrosPerSecond && row.velocity) {
      ade_30 = result.mean_ade_m;
    }
    if (row.downsample == 0) ade_none = result.mean_ade_m;
    if (row.downsample == 120 * kMicrosPerSecond) ade_120 = result.mean_ade_m;
    if (!row.velocity) ade_novel = result.mean_ade_m;
  }

  std::printf("\nshape checks:\n");
  std::printf("  30 s downsampling at least matches no-downsampling ADE "
              "with fewer/cleaner samples: %s (%.1f vs %.1f m)\n",
              ade_30 <= ade_none * 1.15 ? "YES" : "NO", ade_30, ade_none);
  std::printf("  aggressive 120 s downsampling degrades accuracy: %s "
              "(%.1f vs %.1f m)\n",
              ade_120 > ade_30 ? "YES" : "NO", ade_120, ade_30);
  std::printf("  velocity features help on the irregular stream: %s "
              "(%.1f vs %.1f m)\n",
              ade_30 < ade_novel ? "YES" : "NO", ade_30, ade_novel);
  return 0;
}

}  // namespace
}  // namespace marlin

int main() { return marlin::Run(); }
