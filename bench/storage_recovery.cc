// Durability microbenchmarks (DESIGN.md §12): append throughput across the
// three fsync policies, cold-restart recovery time as a function of log
// size, and the checkpoint pay-off — DurableKvStore recovery replaying only
// the WAL tail past the last snapshot instead of the store's whole history.
//
// Scale knobs:
//   MARLIN_STG_RECORDS      append/recovery record count   (default 20000)
//   MARLIN_STG_VALUE_BYTES  payload bytes per record       (default 256)
//   MARLIN_STG_KV_OPS       kvstore mutations before ckpt  (default 10000)
//   MARLIN_STG_KV_TAIL      kvstore mutations after ckpt   (default 500)

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "kvstore/durable_kvstore.h"
#include "obs/metrics.h"
#include "storage/partition_log.h"

namespace marlin {
namespace storage {
namespace {

namespace fs = std::filesystem;

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  return std::strtoll(value, nullptr, 10);
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (fs::temp_directory_path() / ("marlin_bench_storage_" + name)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

const char* SyncName(PartitionLog::SyncMode mode) {
  switch (mode) {
    case PartitionLog::SyncMode::kNone:
      return "none";
    case PartitionLog::SyncMode::kBatch:
      return "batch";
    case PartitionLog::SyncMode::kAlways:
      return "always";
  }
  return "?";
}

struct AppendResult {
  const char* sync = "?";
  int64_t records = 0;
  double elapsed_ms = 0;
  double records_per_s = 0;
  double mb_per_s = 0;
  uint64_t fsyncs = 0;
};

AppendResult BenchAppend(PartitionLog::SyncMode mode, int64_t records,
                         int64_t value_bytes) {
  const std::string dir = FreshDir(std::string("append_") + SyncName(mode));
  obs::MetricsRegistry registry;
  PartitionLog::Options options;
  options.sync = mode;
  options.metrics = &registry;
  options.labels = {{"topic", "bench"}};
  auto log = PartitionLog::Open(dir, options);
  if (!log.ok()) {
    std::printf("ERROR: open failed: %s\n", log.status().message().c_str());
    std::exit(1);
  }
  const std::string value(static_cast<size_t>(value_bytes), 'x');
  const auto start = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < records; ++i) {
    if (!(*log)->Append(i, "mmsi-bench", value).ok()) {
      std::printf("ERROR: append %lld failed\n",
                  static_cast<long long>(i));
      std::exit(1);
    }
  }
  if (!(*log)->Flush().ok()) std::exit(1);
  AppendResult result;
  result.sync = SyncName(mode);
  result.records = records;
  result.elapsed_ms = MsSince(start);
  result.records_per_s = 1000.0 * static_cast<double>(records) /
                         result.elapsed_ms;
  result.mb_per_s = result.records_per_s *
                    static_cast<double>(value_bytes) / (1024.0 * 1024.0);
  result.fsyncs = registry
                      .GetCounter("marlin_storage_fsyncs_total",
                                  "fsync calls issued by partition logs",
                                  options.labels)
                      ->Value();
  fs::remove_all(dir);
  return result;
}

struct RecoveryResult {
  int64_t records = 0;
  double open_ms = 0;
  double records_per_s = 0;
};

RecoveryResult BenchRecovery(int64_t records, int64_t value_bytes) {
  const std::string dir = FreshDir("recovery");
  PartitionLog::Options options;
  options.sync = PartitionLog::SyncMode::kNone;
  {
    auto log = PartitionLog::Open(dir, options);
    if (!log.ok()) std::exit(1);
    const std::string value(static_cast<size_t>(value_bytes), 'x');
    for (int64_t i = 0; i < records; ++i) {
      if (!(*log)->Append(i, "mmsi-bench", value).ok()) std::exit(1);
    }
    if (!(*log)->Flush().ok()) std::exit(1);
  }
  const auto start = std::chrono::steady_clock::now();
  auto log = PartitionLog::Open(dir, options);
  RecoveryResult result;
  result.open_ms = MsSince(start);
  if (!log.ok() || (*log)->end_offset() != records) {
    std::printf("ERROR: recovery lost records (%lld of %lld)\n",
                static_cast<long long>(log.ok() ? (*log)->end_offset() : -1),
                static_cast<long long>(records));
    std::exit(1);
  }
  result.records = records;
  result.records_per_s =
      1000.0 * static_cast<double>(records) / result.open_ms;
  fs::remove_all(dir);
  return result;
}

struct KvRecoveryResult {
  bool checkpointed = false;
  int64_t total_ops = 0;
  int64_t replayed = 0;
  double open_ms = 0;
};

/// Applies `ops` mutations, optionally checkpoints, then `tail` more, and
/// times a reopen. With the checkpoint the reopen must replay only the
/// tail — the acceptance property ("recovery replays only the tail past
/// the last snapshot") measured instead of asserted.
KvRecoveryResult BenchKvRecovery(int64_t ops, int64_t tail, bool checkpoint) {
  const std::string dir = FreshDir("kv");
  DurableKvStore::Options options;
  {
    auto kv = DurableKvStore::Open(dir, options);
    if (!kv.ok()) std::exit(1);
    for (int64_t i = 0; i < ops; ++i) {
      (*kv)->Set("vessel/" + std::to_string(i % 2048),
                 "state-" + std::to_string(i));
    }
    if (checkpoint && !(*kv)->Checkpoint().ok()) std::exit(1);
    for (int64_t i = 0; i < tail; ++i) {
      (*kv)->Set("vessel/" + std::to_string(i % 2048),
                 "tail-" + std::to_string(i));
    }
    if (!(*kv)->Flush().ok()) std::exit(1);
  }
  const auto start = std::chrono::steady_clock::now();
  auto kv = DurableKvStore::Open(dir, options);
  KvRecoveryResult result;
  result.open_ms = MsSince(start);
  if (!kv.ok()) std::exit(1);
  result.checkpointed = checkpoint;
  result.total_ops = ops + tail;
  result.replayed = (*kv)->replayed_records();
  const int64_t expected = checkpoint ? tail : ops + tail;
  if (result.replayed != expected) {
    std::printf("ERROR: replayed %lld records, expected %lld\n",
                static_cast<long long>(result.replayed),
                static_cast<long long>(expected));
    std::exit(1);
  }
  fs::remove_all(dir);
  return result;
}

int Main() {
  const int64_t records = EnvInt("MARLIN_STG_RECORDS", 20'000);
  const int64_t value_bytes = EnvInt("MARLIN_STG_VALUE_BYTES", 256);
  const int64_t kv_ops = EnvInt("MARLIN_STG_KV_OPS", 10'000);
  const int64_t kv_tail = EnvInt("MARLIN_STG_KV_TAIL", 500);

  std::printf("== append throughput (%lld records x %lld B) ==\n",
              static_cast<long long>(records),
              static_cast<long long>(value_bytes));
  std::printf("%-8s %-10s %-12s %-10s %-8s\n", "sync", "ms", "records/s",
              "MB/s", "fsyncs");
  std::vector<AppendResult> appends;
  appends.push_back(
      BenchAppend(PartitionLog::SyncMode::kNone, records, value_bytes));
  appends.push_back(
      BenchAppend(PartitionLog::SyncMode::kBatch, records, value_bytes));
  // fsync-per-record is orders of magnitude slower; keep the point but
  // shrink the sample.
  appends.push_back(BenchAppend(PartitionLog::SyncMode::kAlways,
                                std::max<int64_t>(records / 20, 100),
                                value_bytes));
  for (const AppendResult& r : appends) {
    std::printf("%-8s %-10.1f %-12.0f %-10.1f %llu\n", r.sync, r.elapsed_ms,
                r.records_per_s, r.mb_per_s,
                static_cast<unsigned long long>(r.fsyncs));
  }

  std::printf("\n== cold-restart recovery vs log size ==\n");
  std::printf("%-10s %-10s %-12s\n", "records", "open-ms", "records/s");
  for (const int64_t n : {records / 4, records / 2, records}) {
    const RecoveryResult r =
        BenchRecovery(std::max<int64_t>(n, 1), value_bytes);
    std::printf("%-10lld %-10.1f %-12.0f\n",
                static_cast<long long>(r.records), r.open_ms,
                r.records_per_s);
  }

  std::printf("\n== kvstore recovery: checkpoint + tail replay ==\n");
  std::printf("%-12s %-10s %-10s %-10s\n", "checkpoint", "total-ops",
              "replayed", "open-ms");
  std::vector<KvRecoveryResult> kv_results;
  kv_results.push_back(BenchKvRecovery(kv_ops, kv_tail, /*checkpoint=*/false));
  kv_results.push_back(BenchKvRecovery(kv_ops, kv_tail, /*checkpoint=*/true));
  for (const KvRecoveryResult& r : kv_results) {
    std::printf("%-12s %-10lld %-10lld %-10.1f\n", r.checkpointed ? "yes" : "no",
                static_cast<long long>(r.total_ops),
                static_cast<long long>(r.replayed), r.open_ms);
  }
  std::printf("checkpoint cut replay from %lld to %lld records "
              "(tail-only recovery)\n",
              static_cast<long long>(kv_results[0].replayed),
              static_cast<long long>(kv_results[1].replayed));
  return 0;
}

}  // namespace
}  // namespace storage
}  // namespace marlin

int main() { return marlin::storage::Main(); }
