// Full-pipeline AIS benchmark for Marlin.
//
// Drives MaritimePipeline end to end: AIVDM sentences go in through
// Produce() (decode + broker append), a pump thread moves them through
// PumpIngestion() into the vessel/cell/collision/traffic/writer actors and
// the S-VRF InferenceBatcher, and results are read back from the KvStore
// and through ApiService::Handle. Inputs are pre-generated from --seed with
// des::EventFleet; the program under test only ever receives sentences.
//
//   marlin_perfbench --workload ocean_steady --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Every other line starts with '#'.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "ais/codec.h"
#include "core/pipeline.h"
#include "ledger.h"
#include "middleware/api_service.h"
#include "nn/simd.h"
#include "obs/metrics.h"
#include "trace.h"
#include "util/rng.h"
#include "vrf/svrf_model.h"
#include "workload.h"

namespace perfbench {
namespace {

using marlin::MaritimePipeline;
using marlin::obs::MetricsRegistry;

constexpr uint64_t kDefaultSeed = 1;
/// Sentences of the default-seed stream covered by the pinned hash.
constexpr size_t kPinnedPrefix = 20000;
constexpr int64_t kTickNanos = 250'000'000;
constexpr double kTickSec = 0.25;
/// Share of --seconds given to the burst phase (the rest is ticks).
constexpr double kBurstShare = 1.0 / 6.0;
/// Closed-loop segments the burst phase is split into.
constexpr size_t kSegments = 5;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// A burst or tick with no progress for this long is declared lost.
constexpr int64_t kStallNanos = 20'000'000'000;
enum Thread { kGenerator = 0, kPump = 1, kUi = 2 };

// ------------------------------------------------------------------ args

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 30.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  std::string expect_hash;
  std::string commit = "unknown";
  bool print_hash = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (flag == "--print-hash") {
      args->print_hash = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--trace") {
      args->trace = std::atoi(v) != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = v;
    } else if (flag == "--expect-hash") {
      args->expect_hash = v;
    } else if (flag == "--commit") {
      args->commit = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

// ------------------------------------------------------------ host record

std::string CpuModel() {
#if defined(__x86_64__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model.erase(std::find(model.begin(), model.end(), '\0'), model.end());
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

constexpr bool kOptimized =
#if defined(__OPTIMIZE__)
    true;
#else
    false;
#endif

constexpr const char* kSanitizer =
#if defined(__SANITIZE_ADDRESS__)
    "address";
#elif defined(__SANITIZE_THREAD__)
    "thread";
#else
    "none";
#endif

void PrintHostRecord(const Args& args) {
  std::printf(
      "# host nproc=%u cpu=\"%s\" compiler=\"gcc %s\" build=%s optimized=%d "
      "sanitizer=%s simd_compiled=%d simd_active=%s commit=%s\n",
      std::thread::hardware_concurrency(), CpuModel().c_str(), __VERSION__,
      PERFBENCH_BUILD_TYPE, kOptimized ? 1 : 0, kSanitizer,
      marlin::simd::CompiledIn() ? 1 : 0, marlin::simd::ActiveIsa(),
      args.commit.c_str());
}

// --------------------------------------------------------------- helpers

double ProcessCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double MaxRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void SleepNanos(int64_t nanos) {
  if (nanos > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
}

uint64_t Counter(MetricsRegistry& r, const char* name,
                 marlin::obs::Labels labels = {}) {
  return r.GetCounter(name, "", std::move(labels))->Value();
}
int64_t Gauge(MetricsRegistry& r, const char* name,
              marlin::obs::Labels labels = {}) {
  return r.GetGauge(name, "", std::move(labels))->Value();
}
double HistMean(MetricsRegistry& r, const char* name,
                marlin::obs::Labels labels = {}) {
  return r.GetHistogram(name, "", std::move(labels))->Mean();
}
uint64_t KvOps(MetricsRegistry& r) {
  uint64_t total = 0;
  for (const char* op : {"set", "get", "hset", "hget", "hgetall", "del",
                         "scan", "snapshot"}) {
    total += Counter(r, "marlin_kv_ops_total", {{"op", op}});
  }
  return total;
}

// --------------------------------------------------------------- session

/// One running pipeline, its metrics registry and its pump thread.
class Session {
 public:
  Session(std::shared_ptr<const marlin::SvrfModel> model, Tracer* tracer)
      : pipeline_(model, Config(&registry_)), tracer_(tracer) {}
  ~Session() {
    StopPump();
    pipeline_.Stop();
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  static marlin::PipelineConfig Config(MetricsRegistry* registry) {
    marlin::PipelineConfig config;
    config.actor_system.num_threads = 2;
    config.metrics = registry;
    return config;
  }

  marlin::Status Start() {
    marlin::Status status = pipeline_.Start();
    if (status.ok()) pump_ = std::thread([this] { PumpLoop(); });
    return status;
  }

  void StopPump() {
    stop_.store(true);
    if (pump_.joinable()) pump_.join();
  }

  MaritimePipeline& pipeline() { return pipeline_; }
  MetricsRegistry& registry() { return registry_; }

  /// Tick or burst the pump's spans are attributed to.
  std::atomic<int64_t> tick_tag{-1};
  std::atomic<int64_t> polls{0};
  std::atomic<int64_t> empty_polls{0};
  std::atomic<int64_t> timed_pump_ns{0};
  std::atomic<int64_t> timed_pump_records{0};

 private:
  void PumpLoop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      const bool traced = tracer_->enabled();
      const int64_t start = traced ? NowNanos() : 0;
      const int n = pipeline_.PumpIngestion(1024);
      polls.fetch_add(1, std::memory_order_relaxed);
      if (n == 0) {
        empty_polls.fetch_add(1, std::memory_order_relaxed);
        SleepNanos(50'000);
        continue;
      }
      if (traced) {
        const int64_t end = NowNanos();
        timed_pump_ns.fetch_add(end - start, std::memory_order_relaxed);
        timed_pump_records.fetch_add(n, std::memory_order_relaxed);
        tracer_->Record(Span{"PumpIngestion", start, end, 0, 0,
                             tick_tag.load(std::memory_order_relaxed), kPump});
      }
    }
  }

  MetricsRegistry registry_;  // declared before the pipeline reporting to it
  MaritimePipeline pipeline_;
  Tracer* tracer_;
  std::atomic<bool> stop_{false};
  std::thread pump_;  // last: joined before the members it uses go away
};

// ------------------------------------------------------------- generator

/// The generator thread's side of a run: produces slices of the stream
/// and probes the kv store until each vessel's state has landed.
class LoadGenerator {
 public:
  struct Pending {
    uint32_t vessel = 0;
    TimeMicros ts = 0;  // the vessel's last timestamp in the slice
  };

  LoadGenerator(const Stream& stream, int vessels, Session* session,
                Tracer* tracer)
      : stream_(stream), session_(session), tracer_(tracer),
        slot_(static_cast<size_t>(vessels), -1) {
    keys_.reserve(static_cast<size_t>(vessels));
    for (int v = 0; v < vessels; ++v) {
      keys_.push_back("vessel:" + std::to_string(stream.mmsi_base +
                                                 static_cast<Mmsi>(v)));
    }
  }

  /// Produces sentences [begin, end) and fills `pending` with one entry per
  /// vessel in the slice.
  void Produce(size_t begin, size_t end, std::vector<Pending>* pending,
               uint64_t parent, int64_t tick) {
    ScopedSpan span(tracer_, "Produce", parent, tick, kGenerator);
    const bool timed = tracer_->enabled();
    pending->clear();
    MaritimePipeline& pipeline = session_->pipeline();
    for (size_t i = begin; i < end; ++i) {
      const int64_t start = timed ? NowNanos() : 0;
      const marlin::Status status =
          pipeline.Produce(stream_.sentences[i], stream_.received_at[i]);
      if (timed) {
        produce_ns_ += NowNanos() - start;
        ++produce_timed_;
      }
      if (!status.ok()) {
        failed_produce_.push_back(i);
        continue;
      }
      const size_t v = stream_.vessel(i);
      if (slot_[v] < 0) {
        slot_[v] = static_cast<int64_t>(pending->size());
        pending->push_back(Pending{static_cast<uint32_t>(v), 0});
      }
      (*pending)[static_cast<size_t>(slot_[v])].ts =
          stream_.decoded[i].timestamp;
    }
    for (const Pending& p : *pending) slot_[p.vessel] = -1;
    ranges_.emplace_back(begin, end);
  }

  /// Drops entries from the front of `pending` while their kv `ts` has
  /// reached its target; returns how many remain. States land roughly in
  /// produce order, so stopping at the first one still in flight keeps the
  /// probe's own kv load (and CPU) small without delaying completion.
  size_t Sweep(std::vector<Pending>* pending, uint64_t parent, int64_t tick) {
    if (pending->empty()) return 0;
    ScopedSpan span(tracer_, "HGet-sweep", parent, tick, kGenerator);
    marlin::KvStore& store = session_->pipeline().store();
    size_t landed = 0;
    for (const Pending& p : *pending) {
      ++probe_hgets_;
      auto ts = store.HGet(keys_[p.vessel], "ts");
      if (!ts.ok() || std::strtoll(ts->c_str(), nullptr, 10) < p.ts) break;
      ++landed;
    }
    pending->erase(pending->begin(),
                   pending->begin() + static_cast<long>(landed));
    return pending->size();
  }

  const std::vector<std::pair<size_t, size_t>>& ranges() const {
    return ranges_;
  }
  const std::vector<size_t>& failed_produce() const { return failed_produce_; }
  const std::string& key(size_t vessel) const { return keys_[vessel]; }
  int64_t produced() const {
    int64_t n = 0;
    for (const auto& [b, e] : ranges_) n += static_cast<int64_t>(e - b);
    return n - static_cast<int64_t>(failed_produce_.size());
  }
  int64_t probe_hgets() const { return probe_hgets_; }
  double produce_ns_mean() const {
    return produce_timed_ > 0 ? produce_ns_ / produce_timed_ : 0.0;
  }

 private:
  const Stream& stream_;
  Session* session_;
  Tracer* tracer_;
  std::vector<std::string> keys_;
  std::vector<int64_t> slot_;  // vessel -> index in the pending list
  std::vector<std::pair<size_t, size_t>> ranges_;
  std::vector<size_t> failed_produce_;
  int64_t probe_hgets_ = 0;
  double produce_ns_ = 0.0;
  int64_t produce_timed_ = 0;
};

// --------------------------------------------------------- closed loop

struct BurstStats {
  size_t consumed = 0;
  double seconds = 0.0;
  /// Process CPU time over the phase, all threads (the ledger's cost).
  double cpu_ns = 0.0;
  int64_t lost_vessels = 0;
  double quiesce_ms = 0.0;
};

/// Sends bursts of `burst` sentences from [begin, end); before the next
/// burst, every vessel of the current one must have its kv state at its
/// last timestamp. Stops at `end` or after `cap_sec`, then quiesces.
BurstStats RunBursts(LoadGenerator* generator, Session* session, Tracer* tracer,
                     size_t begin, size_t end, int burst, double cap_sec,
                     int64_t tag_base) {
  BurstStats stats;
  std::vector<LoadGenerator::Pending> pending;
  const int64_t t0 = NowNanos();
  const double cpu0 = ProcessCpuNanos();
  size_t next = begin;
  for (int64_t k = 0; next < end; ++k) {
    if (NowNanos() - t0 > static_cast<int64_t>(cap_sec * 1e9)) break;
    const int64_t tag = tag_base + k;
    session->tick_tag.store(tag);
    const size_t stop = std::min(end, next + static_cast<size_t>(burst));
    {
      ScopedSpan span(tracer, "burst", 0, tag, kGenerator);
      generator->Produce(next, stop, &pending, span.id(), tag);
      int64_t last_progress = NowNanos();
      size_t remaining = pending.size();
      while (remaining > 0) {
        const size_t now_remaining = generator->Sweep(&pending, span.id(), tag);
        if (now_remaining < remaining) last_progress = NowNanos();
        remaining = now_remaining;
        if (remaining == 0) break;
        if (NowNanos() - last_progress > kStallNanos) {
          stats.lost_vessels += static_cast<int64_t>(remaining);
          break;
        }
        SleepNanos(100'000);
      }
    }
    next = stop;
    if (stats.lost_vessels > 0) break;  // a stalled pipeline ends the phase
  }
  const int64_t q0 = NowNanos();
  {
    ScopedSpan span(tracer, "AwaitQuiescence", 0, -1, kGenerator);
    session->pipeline().AwaitQuiescence();
  }
  const int64_t t1 = NowNanos();
  stats.quiesce_ms = static_cast<double>(t1 - q0) / 1e6;
  stats.consumed = next - begin;
  stats.seconds = static_cast<double>(t1 - t0) / 1e9;
  stats.cpu_ns = ProcessCpuNanos() - cpu0;
  return stats;
}

// ------------------------------------------------------------ UI client

/// Dashboard refreshes through ApiService::Handle.
struct PageStats {
  std::vector<double> page_ms;
  std::vector<double> route_us[4];  // viewport, events, vessel, forecast
  int64_t non_ok = 0;
};

void RefreshPage(marlin::ApiService* api, const WorkloadSpec& spec,
                 Mmsi mmsi, Tracer* tracer, PageStats* stats) {
  char viewport[160];
  std::snprintf(viewport, sizeof(viewport),
                "/viewport?min_lat=%.4f&min_lon=%.4f&max_lat=%.4f&max_lon=%.4f",
                spec.viewport.min_lat, spec.viewport.min_lon,
                spec.viewport.max_lat, spec.viewport.max_lon);
  const std::string vessel = "/vessels/" + std::to_string(mmsi);
  const std::string targets[4] = {viewport, "/events?limit=50", vessel,
                                  vessel + "/forecast"};
  static constexpr const char* kSpanNames[4] = {
      "Handle /viewport", "Handle /events", "Handle /vessels/{mmsi}",
      "Handle /vessels/{mmsi}/forecast"};
  ScopedSpan page(tracer, "page", 0, -1, kUi);
  const int64_t page_start = NowNanos();
  for (int r = 0; r < 4; ++r) {
    ScopedSpan span(tracer, kSpanNames[r], page.id(), -1, kUi);
    const int64_t start = NowNanos();
    const marlin::ApiResponse response = api->Handle("GET", targets[r]);
    stats->route_us[r].push_back(static_cast<double>(NowNanos() - start) /
                                 1e3);
    if (response.status != 200 && response.status != 404) ++stats->non_ok;
  }
  stats->page_ms.push_back(static_cast<double>(NowNanos() - page_start) /
                           1e6);
}

// ------------------------------------------------------------------ gate

struct GateResult {
  int64_t vessels_checked = 0;
  int64_t never_ingested = 0;
  int64_t consumer_lag = 0;
  int64_t wrong_ts = 0;
  int64_t forecasts_expected = 0;
  int64_t forecasts_actual = 0;
  int64_t stale_forecasts = 0;
};

bool SameTrajectory(const marlin::ForecastTrajectory& a,
                    const marlin::ForecastTrajectory& b) {
  if (a.points.size() != b.points.size()) return false;
  for (size_t i = 0; i < a.points.size(); ++i) {
    const auto& p = a.points[i];
    const auto& q = b.points[i];
    if (std::memcmp(&p.position.lat_deg, &q.position.lat_deg, sizeof(double)) ||
        std::memcmp(&p.position.lon_deg, &q.position.lon_deg, sizeof(double)) ||
        p.time != q.time) {
      return false;
    }
  }
  return true;
}

/// The output correctness gate, run after quiescence: every produced
/// sentence ingested, every vessel's kv state at its last sentence, the
/// forecast count equal to a replay through VesselHistory, and each
/// vessel's latest forecast bitwise equal to Forecast() of its final window.
GateResult RunGate(const Stream& stream, int vessels, LoadGenerator* generator,
                   Session* session, const marlin::SvrfModel& model) {
  GateResult gate;
  MaritimePipeline& pipeline = session->pipeline();
  const marlin::PipelineStats stats = pipeline.Stats();
  gate.never_ingested = generator->produced() - stats.positions_ingested;
  gate.consumer_lag =
      Gauge(session->registry(), "marlin_consumer_lag",
            {{"group", "marlin-pipeline"}, {"topic", "ais-positions"}});

  std::vector<char> failed(stream.size(), 0);
  for (size_t i : generator->failed_produce()) failed[i] = 1;
  std::vector<marlin::VesselHistory> histories(static_cast<size_t>(vessels));
  std::vector<TimeMicros> last_ts(static_cast<size_t>(vessels), -1);
  for (const auto& [begin, end] : generator->ranges()) {
    for (size_t i = begin; i < end; ++i) {
      if (failed[i]) continue;
      const size_t v = stream.vessel(i);
      last_ts[v] = stream.decoded[i].timestamp;
      if (histories[v].Push(stream.decoded[i]) && histories[v].Ready()) {
        ++gate.forecasts_expected;
      }
    }
  }
  gate.forecasts_actual = stats.forecasts_generated;
  for (size_t v = 0; v < last_ts.size(); ++v) {
    if (last_ts[v] < 0) continue;
    ++gate.vessels_checked;
    auto ts = pipeline.store().HGet(generator->key(v), "ts");
    if (!ts.ok() || std::strtoll(ts->c_str(), nullptr, 10) != last_ts[v]) {
      ++gate.wrong_ts;
    }
    if (!histories[v].Ready()) continue;
    const Mmsi mmsi = stream.mmsi_base + static_cast<Mmsi>(v);
    auto expected = model.Forecast(histories[v].MakeInput());
    auto actual = pipeline.LatestForecast(mmsi);
    if (!expected.ok() || !actual.ok() ||
        !SameTrajectory(*expected, *actual)) {
      ++gate.stale_forecasts;
    }
  }
  return gate;
}

// --------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v);
    out += buf;
    out += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// ----------------------------------------------------------------- run

std::shared_ptr<marlin::SvrfModel> TrainModel(
    const std::vector<marlin::SvrfSample>& samples, bool smoke) {
  marlin::SvrfModel::Config config;
  config.hidden_dim = 20;
  config.dense_dim = 20;
  auto model = std::make_shared<marlin::SvrfModel>(config);
  marlin::Trainer::Options options;
  options.epochs = smoke ? 1 : 3;
  options.batch_size = 64;
  options.learning_rate = 3e-3;
  model->Train(samples, {}, options);
  return model;
}

struct Live {
  std::shared_ptr<marlin::SvrfModel> model;
  std::unique_ptr<Session> session;
  std::unique_ptr<LoadGenerator> generator;
};

/// Set-up: train the compact S-VRF, Start() the pipeline, replay the
/// warm-up slice in closed-loop bursts and quiesce.
Live Setup(const WorkloadSpec& spec, const Stream& stream, size_t warmup,
           const std::vector<marlin::SvrfSample>& samples, bool smoke,
           Tracer* tracer, double* seconds, bool* ok) {
  Live live;
  const int64_t t0 = NowNanos();
  ScopedSpan span(tracer, "setup", 0, -1, kGenerator);
  {
    ScopedSpan train(tracer, "train S-VRF", span.id(), -1, kGenerator);
    live.model = TrainModel(samples, smoke);
  }
  {
    ScopedSpan start(tracer, "Start", span.id(), -1, kGenerator);
    live.session = std::make_unique<Session>(live.model, tracer);
    *ok = live.session->Start().ok();
  }
  live.generator = std::make_unique<LoadGenerator>(stream, spec.vessels,
                                         live.session.get(), tracer);
  if (*ok) {
    const BurstStats warm =
        RunBursts(live.generator.get(), live.session.get(), tracer, 0, warmup,
                  spec.burst_size, 1e9, -1'000'000);
    *ok = warm.lost_vessels == 0;
  }
  *seconds = static_cast<double>(NowNanos() - t0) / 1e9;
  return live;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: marlin_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke] "
                 "[--trace-out <file>] [--expect-hash <hex>] "
                 "[--commit <id>] [--print-hash]\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, args.smoke, &spec)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  PrintHostRecord(args);
  if (!args.smoke && (!kOptimized || std::strcmp(kSanitizer, "none") != 0)) {
    std::fprintf(stderr, "refusing a timed run from an unoptimised or "
                         "sanitizer build\n");
    return 3;
  }
  const marlin::World world = BuildWorld(spec);

  // Pinned inputs: the default-seed stream of the full-size workload must
  // hash as recorded, so generator drift cannot silently change it.
  {
    WorkloadSpec full;
    LookupWorkload(args.workload, false, &full);
    const marlin::World full_world = BuildWorld(full);
    size_t unused = 0;
    const Stream pinned = GenerateStream(full, full_world, kDefaultSeed,
                                         kPinnedPrefix, &unused, kPinnedPrefix);
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(
                      StreamHash(pinned, kPinnedPrefix)));
    std::printf("# stream_hash %s %s\n", args.workload.c_str(), hash);
    if (args.print_hash) return 0;
    if (!args.expect_hash.empty() && args.expect_hash != hash) {
      std::fprintf(stderr, "stream hash %s != pinned %s: the generator "
                           "changed; refusing to report\n",
                   hash, args.expect_hash.c_str());
      return 4;
    }
  }

  // Phase sizes.
  const int ticks =
      args.smoke ? 12
                 : std::max(100, static_cast<int>((1.0 - kBurstShare) *
                                                  args.seconds / kTickSec));
  const size_t per_tick =
      static_cast<size_t>(std::lround(spec.offered_rate * kTickSec));
  const double burst_sec = kBurstShare * args.seconds;
  const size_t burst_total =
      static_cast<size_t>(spec.burst_rate_hint * burst_sec);
  const size_t tick_total = per_tick * static_cast<size_t>(ticks);

  const int64_t gen0 = NowNanos();
  size_t warmup = 0;
  const Stream stream = GenerateStream(spec, world, args.seed,
                                       burst_total + tick_total, &warmup);
  const std::vector<marlin::SvrfSample> samples =
      GenerateTrainingSamples(world, args.seed, args.smoke);
  const size_t burst_begin = warmup;
  {
    std::vector<marlin::VesselHistory> histories(
        static_cast<size_t>(spec.vessels));
    for (size_t i = 0; i < warmup; ++i) {
      histories[stream.vessel(i)].Push(stream.decoded[i]);
    }
    int ready = 0, seen = 0;
    for (const auto& h : histories) {
      seen += h.size() > 0;
      ready += h.Ready();
    }
    std::printf("# warm-up leaves %d of %d vessels seen with a full S-VRF "
                "window\n", ready, seen);
  }
  const size_t tick_begin = std::min(stream.size(), warmup + burst_total);
  std::printf("# inputs %zu sentences (warm-up %zu, burst %zu, ticks %d x "
              "%zu), %zu training samples, generated in %.2f s\n",
              stream.size(), warmup, burst_total, ticks, per_tick,
              samples.size(), static_cast<double>(NowNanos() - gen0) / 1e9);
  if (stream.size() < tick_begin + tick_total || samples.empty()) {
    std::fprintf(stderr, "input generation came up short\n");
    return 5;
  }
  const double rss_base_mb = MaxRssMb();

  Tracer tracer;
  tracer.set_enabled(args.trace);

  // Set-up, several times; the last one is kept for the run.
  std::vector<double> setup_seconds;
  Live live;
  for (int r = 0; r < kSetups; ++r) {
    live = Live();  // tear the previous pipeline down first
    double seconds = 0.0;
    bool ok = false;
    live = Setup(spec, stream, warmup, samples, args.smoke, &tracer, &seconds,
                 &ok);
    if (!ok) {
      std::fprintf(stderr, "set-up failed\n");
      return 6;
    }
    setup_seconds.push_back(seconds);
  }
  const double rss_after_setup_mb = MaxRssMb() - rss_base_mb;
  Session* session = live.session.get();
  LoadGenerator* generator = live.generator.get();
  MetricsRegistry& registry = session->registry();
  MaritimePipeline& pipeline = session->pipeline();
  marlin::ApiService api(&pipeline);

  // -- Burst phase (closed loop).
  const marlin::PipelineStats before = pipeline.Stats();
  const uint64_t kv_before = KvOps(registry);
  const uint64_t hset_before =
      Counter(registry, "marlin_kv_ops_total", {{"op", "hset"}});
  const int64_t hgets_before = generator->probe_hgets();
  // The burst slice runs as kSegments closed-loop segments, each ending in
  // AwaitQuiescence; the reported capacity is the median segment rate.
  const size_t segments = args.smoke ? 2 : kSegments;
  const size_t per_segment = (tick_begin - burst_begin) / segments;
  BurstStats burst;
  std::vector<double> segment_rates;
  for (size_t k = 0; k < segments; ++k) {
    const size_t begin = burst_begin + k * per_segment;
    const BurstStats part = RunBursts(
        generator, session, &tracer, begin, begin + per_segment,
        spec.burst_size,
        2.0 * burst_sec / static_cast<double>(segments),
        static_cast<int64_t>(k) * 100'000);
    segment_rates.push_back(static_cast<double>(part.consumed) / part.seconds);
    burst.consumed += part.consumed;
    burst.seconds += part.seconds;
    burst.cpu_ns += part.cpu_ns;
    burst.lost_vessels += part.lost_vessels;
    burst.quiesce_ms = std::max(burst.quiesce_ms, part.quiesce_ms);
    if (part.lost_vessels > 0) break;
  }
  const double rss_after_burst_mb = MaxRssMb() - rss_base_mb;
  const marlin::PipelineStats after = pipeline.Stats();
  const double burst_msgs = static_cast<double>(burst.consumed);
  const double burst_ingested =
      static_cast<double>(after.positions_ingested - before.positions_ingested);
  const double hops_per_msg =
      static_cast<double>(after.messages_processed -
                          before.messages_processed) / burst_ingested;
  const double forecasts_per_msg =
      static_cast<double>(after.forecasts_generated -
                          before.forecasts_generated) / burst_ingested;
  const double events_per_msg =
      static_cast<double>(after.events_detected - before.events_detected) /
      burst_ingested;
  const double kv_ops_per_msg =
      static_cast<double>(KvOps(registry) - kv_before -
                          static_cast<uint64_t>(generator->probe_hgets() -
                                                hgets_before)) /
      burst_ingested;
  const double hsets_per_msg =
      static_cast<double>(Counter(registry, "marlin_kv_ops_total",
                                  {{"op", "hset"}}) - hset_before) /
      burst_ingested;

  // -- Tick phase (open loop), with the UI client beside it.
  PageStats pages;
  std::atomic<bool> ui_stop{false};
  std::thread ui;
  if (spec.ui_client) {
    ui = std::thread([&] {
      marlin::Rng rng(args.seed ^ 0x0A11CE5ULL);
      while (!ui_stop.load()) {
        const Mmsi mmsi = stream.mmsi_base + static_cast<Mmsi>(rng.UniformInt(
                              static_cast<uint64_t>(spec.vessels)));
        RefreshPage(&api, spec, mmsi, &tracer, &pages);
        SleepNanos(static_cast<int64_t>(spec.ui_think_ms) * 1'000'000);
      }
    });
  }
  struct Tick {
    int64_t id = 0;  // shared by every span of the tick
    int64_t due = 0;
    std::vector<LoadGenerator::Pending> pending;
    double latency_ms = -1.0;
    bool traced = false;
    uint64_t span = 0;  // root span, recorded when the tick lands
  };
  std::vector<Tick> tick_log(static_cast<size_t>(ticks));
  double gen_late_max_ms = 0.0;
  int64_t lag_max = 0;
  int64_t queue_max = 0;
  int64_t never_landed = 0;
  const int64_t t0 = NowNanos() + 5'000'000;
  size_t oldest = 0;  // first tick not yet complete
  auto sweep_ticks = [&](size_t produced) {
    for (size_t k = oldest; k < produced; ++k) {
      Tick& tick = tick_log[k];
      if (tick.latency_ms >= 0.0) continue;
      if (generator->Sweep(&tick.pending, tick.span, tick.id) == 0) {
        const int64_t now = NowNanos();
        tick.latency_ms = static_cast<double>(now - tick.due) / 1e6;
        if (tick.span != 0) {
          tracer.Record(Span{"tick", tick.due, now, tick.span, 0, tick.id,
                             kGenerator});
        }
      }
    }
    while (oldest < produced && tick_log[oldest].latency_ms >= 0.0) ++oldest;
  };
  for (int k = 0; k < ticks; ++k) {
    Tick& tick = tick_log[static_cast<size_t>(k)];
    tick.due = t0 + static_cast<int64_t>(k) * kTickNanos;
    while (NowNanos() < tick.due) {
      sweep_ticks(static_cast<size_t>(k));
      const int64_t left = tick.due - NowNanos();
      const bool waiting = oldest < static_cast<size_t>(k);
      SleepNanos(waiting ? std::min<int64_t>(left, 200'000) : left);
    }
    tick.id = 1'000'000 + k;
    tick.traced = args.trace && (k % 2 == 1);
    if (args.trace) tracer.set_enabled(tick.traced);
    if (tick.traced) tick.span = tracer.NextId();
    gen_late_max_ms = std::max(
        gen_late_max_ms, static_cast<double>(NowNanos() - tick.due) / 1e6);
    session->tick_tag.store(tick.id);
    const size_t begin = tick_begin + static_cast<size_t>(k) * per_tick;
    generator->Produce(begin, begin + per_tick, &tick.pending, tick.span,
                    tick.id);
    lag_max = std::max(lag_max, Gauge(registry, "marlin_consumer_lag",
                                      {{"group", "marlin-pipeline"},
                                       {"topic", "ais-positions"}}));
    queue_max = std::max(queue_max,
                         Gauge(registry, "marlin_dispatcher_queue_depth"));
    sweep_ticks(static_cast<size_t>(k) + 1);
  }
  {
    int64_t last_progress = NowNanos();
    size_t last_oldest = oldest;
    while (oldest < tick_log.size()) {
      sweep_ticks(tick_log.size());
      if (oldest != last_oldest) {
        last_oldest = oldest;
        last_progress = NowNanos();
      }
      if (NowNanos() - last_progress > kStallNanos) break;
      SleepNanos(200'000);
    }
  }
  if (args.trace) tracer.set_enabled(true);
  ui_stop.store(true);
  if (ui.joinable()) ui.join();
  std::vector<double> tick_ms, traced_ms, untraced_ms;
  for (const Tick& tick : tick_log) {
    if (tick.latency_ms < 0.0) {
      ++never_landed;
      continue;
    }
    tick_ms.push_back(tick.latency_ms);
    (tick.traced ? traced_ms : untraced_ms).push_back(tick.latency_ms);
  }
  const double rss_after_ticks_mb = MaxRssMb() - rss_base_mb;
  int64_t overlapped = 0;  // ticks still in flight when the next was due
  for (double ms : tick_ms) overlapped += ms > kTickSec * 1e3;
  const int64_t q0 = NowNanos();
  pipeline.AwaitQuiescence();
  const double final_quiesce_ms = static_cast<double>(NowNanos() - q0) / 1e6;
  session->StopPump();

  // -- Correctness gate.
  const GateResult gate =
      RunGate(stream, spec.vessels, generator, session, *live.model);
  const int64_t produce_errors =
      static_cast<int64_t>(generator->failed_produce().size());

  // -- Page probe on the idle system for workloads without a UI client
  // (per-layer numbers, so traced runs only).
  if (!spec.ui_client && args.trace) {
    marlin::Rng rng(args.seed ^ 0x0A11CE5ULL);
    for (int p = 0; p < (args.smoke ? 10 : 100); ++p) {
      const Mmsi mmsi = stream.mmsi_base + static_cast<Mmsi>(rng.UniformInt(
                            static_cast<uint64_t>(spec.vessels)));
      RefreshPage(&api, spec, mmsi, &tracer, &pages);
    }
  }
  const double rss_mb = std::max(0.0, MaxRssMb() - rss_base_mb);

  const int64_t failed = produce_errors +
                         std::max<int64_t>(0, gate.never_ingested) +
                         never_landed + burst.lost_vessels + gate.wrong_ts +
                         pages.non_ok;
  const int64_t attempted = generator->produced() + produce_errors + ticks +
                            gate.vessels_checked +
                            static_cast<int64_t>(pages.page_ms.size());
  const bool correct = failed == 0 && gate.never_ingested == 0 &&
                       gate.consumer_lag == 0 &&
                       gate.forecasts_expected == gate.forecasts_actual &&
                       (!args.trace || !pages.page_ms.empty());
  const double tick_p50 = Quantile(tick_ms, 0.5);
  const long third = static_cast<long>(tick_ms.size() / 3);
  const std::vector<double> first_third(tick_ms.begin(),
                                        tick_ms.begin() + third);
  const std::vector<double> mid_third(tick_ms.begin() + third,
                                      tick_ms.end() - third);
  const std::vector<double> last_third(tick_ms.end() - third, tick_ms.end());

  std::printf("# %s seed=%llu setup=[", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));
  for (double s : setup_seconds) std::printf(" %.3f", s);
  std::printf(" ] s; burst %zu msgs in %.3f s = %.0f msg/s (paper feed "
              "11.6K msg/s); %zu ticks p50 %.2f ms (by thirds %.2f / %.2f "
              "/ %.2f ms, %lld over %.0f ms)\n",
              burst.consumed, burst.seconds, burst_msgs / burst.seconds,
              tick_ms.size(), tick_p50, Median(first_third),
              Median(mid_third), Median(last_third),
              static_cast<long long>(overlapped), kTickSec * 1e3);
  std::printf("# burst segments msg/s:");
  for (double r : segment_rates) std::printf(" %.0f", r);
  std::printf("; peak RSS growth MB after setup %.1f, burst %.1f, ticks "
              "%.1f, end %.1f\n",
              rss_after_setup_mb, rss_after_burst_mb, rss_after_ticks_mb,
              rss_mb);
  std::printf("# gate: vessels %lld wrong_ts %lld never_ingested %lld lag "
              "%lld forecasts %lld/%lld stale %lld produce_errors %lld "
              "never_landed %lld\n",
              static_cast<long long>(gate.vessels_checked),
              static_cast<long long>(gate.wrong_ts),
              static_cast<long long>(gate.never_ingested),
              static_cast<long long>(gate.consumer_lag),
              static_cast<long long>(gate.forecasts_actual),
              static_cast<long long>(gate.forecasts_expected),
              static_cast<long long>(gate.stale_forecasts),
              static_cast<long long>(produce_errors),
              static_cast<long long>(never_landed));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"burst_msgs_per_s", Median(segment_rates), "msg/s"},
        {"tick_p50_ms", tick_p50, "ms"},
        {"tick_p90_ms", Quantile(tick_ms, 0.9), "ms"},
        {"pipeline_rss_mb", rss_mb, "MB"},
        {"setup_s", Median(setup_seconds), "s"},
    };
    PrintResult(correct, attempted, failed, metrics);
    return 0;
  }

  // -- Traced run: isolated layer replays and the ledger.
  const marlin::PipelineStats final_stats = pipeline.Stats();
  const double stage_ingest =
      HistMean(registry, "marlin_pipeline_stage_nanos", {{"stage", "ingest"}});
  const double stage_position = HistMean(
      registry, "marlin_pipeline_stage_nanos", {{"stage", "position"}});
  const double stage_forecast = HistMean(
      registry, "marlin_pipeline_stage_nanos", {{"stage", "forecast"}});
  const double stage_write =
      HistMean(registry, "marlin_pipeline_stage_nanos", {{"stage", "write"}});
  const double batch_mean =
      HistMean(registry, "marlin_nn_inference_batch_size");
  const double infer_ns =
      HistMean(registry, "marlin_nn_inference_nanos", {{"mode", "batched"}});
  const double spawned = static_cast<double>(
      Counter(registry, "marlin_actor_spawned_total"));
  const double dropped = static_cast<double>(
      Counter(registry, "marlin_actor_messages_dropped_total"));
  const double restarts =
      static_cast<double>(Counter(registry, "marlin_actor_restarts_total"));
  const double mailbox_high = static_cast<double>(
      Gauge(registry, "marlin_actor_mailbox_highwater"));
  const double keys_end = static_cast<double>(pipeline.store().Size());
  const double polls = static_cast<double>(session->polls.load());
  const double empty_ratio =
      polls > 0 ? static_cast<double>(session->empty_polls.load()) / polls
                : 0.0;
  const double pump_ns_per_record =
      session->timed_pump_records.load() > 0
          ? static_cast<double>(session->timed_pump_ns.load()) /
                static_cast<double>(session->timed_pump_records.load())
          : 0.0;

  const marlin::PipelineConfig config = Session::Config(nullptr);
  // Replays time the tick slice's first 60K sentences after an untimed
  // lead-in of up to 60K sentences before it.
  const size_t iso_span = args.smoke ? tick_total : 60000;
  const size_t iso_lead =
      tick_begin - std::min(tick_begin - burst_begin, iso_span);
  const size_t iso_end = std::min(stream.size(), tick_begin + iso_span);
  const IsolatedResults iso = RunIsolatedReplays(
      stream, iso_lead, tick_begin, iso_end, *live.model, config, &tracer);
  double drift_max = 1.0;
  for (const IsolatedCost* cost : iso.all()) {
    std::printf("# isolated %-28s ops %9lld  first half %10.1f ns  second "
                "half %10.1f ns  drift %.3f%s\n",
                cost->name, static_cast<long long>(cost->ops),
                cost->first_half_ns, cost->second_half_ns, cost->drift(),
                std::fabs(cost->drift() - 1.0) > 0.2 ? "  DRIFT" : "");
    if (cost->ops > 0) drift_max = std::max(drift_max, cost->drift());
  }

  // Ledger: serial CPU ns per burst message, by layer.
  const double ais_line = iso.decode.ns_per_op() * 2.0;
  const double stream_line = iso.append.ns_per_op() + iso.poll.ns_per_op();
  const double actor_line =
      iso.tell.ns_per_op() * hops_per_msg +
      iso.get_or_spawn.ns_per_op() * (2.0 + forecasts_per_msg);
  const double vrf_line =
      iso.forecast_batch.ns_per_op() / 32.0 * forecasts_per_msg;
  const double events_line = iso.proximity.ns_per_op() +
                             iso.collision.ns_per_op() * forecasts_per_msg;
  const double hexgrid_line =
      iso.latlng_to_cell.ns_per_op() * (1.0 + forecasts_per_msg);
  const double kv_line = iso.hset.ns_per_op() * hsets_per_msg;
  const double burst_cpu_ns = burst.cpu_ns / burst_msgs;
  const double burst_wall_ns = burst.seconds * 1e9 / burst_msgs;
  const double ledger_sum = ais_line + stream_line + actor_line + vrf_line +
                            events_line + hexgrid_line + kv_line;
  std::printf("# ledger ns/msg: vrf %.0f events %.0f actor %.0f kvstore %.0f "
              "ais %.0f stream %.0f hexgrid %.0f | sum %.0f cpu %.0f wall "
              "%.0f residual %.0f\n",
              vrf_line, events_line, actor_line, kv_line, ais_line,
              stream_line, hexgrid_line, ledger_sum, burst_cpu_ns,
              burst_wall_ns, burst_cpu_ns - ledger_sum);

  metrics = {
      {"ais.decode_ns", iso.decode.ns_per_op(), "ns"},
      {"ais.decode_errors",
       static_cast<double>(iso.decode_errors + stream.decode_errors), "count"},
      {"ais.decodes_per_msg", 2.0, "count"},
      {"stream.append_ns", iso.append.ns_per_op(), "ns"},
      {"stream.poll_ns_per_record", iso.poll.ns_per_op(), "ns"},
      {"stream.lag_max", static_cast<double>(lag_max), "records"},
      {"core.produce_ns", generator->produce_ns_mean(), "ns"},
      {"core.pump_ns_per_record", pump_ns_per_record, "ns"},
      {"core.pump_empty_ratio", empty_ratio, "ratio"},
      {"core.quiesce_ms", burst.quiesce_ms, "ms"},
      {"core.final_quiesce_ms", final_quiesce_ms, "ms"},
      {"core.stage_ingest_mean_us", stage_ingest / 1e3, "us"},
      {"core.stage_position_mean_us", stage_position / 1e3, "us"},
      {"core.stage_forecast_mean_us", stage_forecast / 1e3, "us"},
      {"core.stage_write_mean_us", stage_write / 1e3, "us"},
      {"actor.spawned", spawned, "count"},
      {"actor.live_end", static_cast<double>(final_stats.actor_count),
       "count"},
      {"actor.hops_per_msg", hops_per_msg, "count"},
      {"actor.mailbox_highwater", mailbox_high, "count"},
      {"actor.dispatch_queue_max", static_cast<double>(queue_max), "count"},
      {"actor.dropped", dropped, "count"},
      {"actor.restarts", restarts, "count"},
      {"actor.tell_ns", iso.tell.ns_per_op(), "ns"},
      {"actor.get_or_spawn_ns", iso.get_or_spawn.ns_per_op(), "ns"},
      {"vrf.forecasts", static_cast<double>(final_stats.forecasts_generated),
       "count"},
      {"vrf.forecasts_per_msg", forecasts_per_msg, "ratio"},
      {"vrf.batch_size_mean", batch_mean, "count"},
      {"vrf.infer_ns_per_item", infer_ns, "ns"},
      {"vrf.forecast_batch_us", iso.forecast_batch.ns_per_op() / 1e3, "us"},
      {"vrf.stale_forecasts", static_cast<double>(gate.stale_forecasts),
       "count"},
      {"events.detected", static_cast<double>(final_stats.events_detected),
       "count"},
      {"events.per_msg", events_per_msg, "ratio"},
      {"events.proximity_observe_ns", iso.proximity.ns_per_op(), "ns"},
      {"events.collision_observe_ns", iso.collision.ns_per_op(), "ns"},
      {"events.proximity_stored_mean", iso.proximity_stored_mean, "count"},
      {"hexgrid.latlng_to_cell_ns", iso.latlng_to_cell.ns_per_op(), "ns"},
      {"kvstore.ops_per_msg", kv_ops_per_msg, "count"},
      {"kvstore.hset_ns", iso.hset.ns_per_op(), "ns"},
      {"kvstore.keys_end", keys_end, "count"},
      {"kvstore.scan_prefix_us", iso.scan_prefix.ns_per_op() / 1e3, "us"},
      {"middleware.page_p50_ms", Quantile(pages.page_ms, 0.5), "ms"},
      {"middleware.page_p90_ms", Quantile(pages.page_ms, 0.9), "ms"},
      {"middleware.viewport_us", Median(pages.route_us[0]), "us"},
      {"middleware.events_us", Median(pages.route_us[1]), "us"},
      {"middleware.vessel_us", Median(pages.route_us[2]), "us"},
      {"middleware.forecast_us", Median(pages.route_us[3]), "us"},
      {"middleware.non_ok", static_cast<double>(pages.non_ok), "count"},
      {"bench.gen_late_max_ms", gen_late_max_ms, "ms"},
      {"bench.ticks", static_cast<double>(tick_ms.size()), "count"},
      {"bench.tick_drift", Median(last_third) / Median(first_third), "ratio"},
      {"bench.tick_overlap", static_cast<double>(overlapped), "count"},
      {"bench.trace_overhead", Median(traced_ms) / Median(untraced_ms),
       "ratio"},
      {"bench.failed_ratio",
       static_cast<double>(failed) / static_cast<double>(attempted), "ratio"},
      {"bench.isolated_drift_max", drift_max, "ratio"},
      {"ledger.burst_cpu_ns_per_msg", burst_cpu_ns, "ns"},
      {"ledger.burst_wall_ns_per_msg", burst_wall_ns, "ns"},
      {"ledger.vrf_ns_per_msg", vrf_line, "ns"},
      {"ledger.events_ns_per_msg", events_line, "ns"},
      {"ledger.actor_ns_per_msg", actor_line, "ns"},
      {"ledger.kvstore_ns_per_msg", kv_line, "ns"},
      {"ledger.ais_ns_per_msg", ais_line, "ns"},
      {"ledger.stream_ns_per_msg", stream_line, "ns"},
      {"ledger.hexgrid_ns_per_msg", hexgrid_line, "ns"},
      {"ledger.residual", burst_cpu_ns - ledger_sum, "ns"},
  };
  if (!args.trace_out.empty()) {
    if (!tracer.WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 7;
    }
    std::printf("# trace %zu spans -> %s\n", tracer.size(),
                args.trace_out.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
