#include "ledger.h"

#include <any>
#include <array>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "actor/actor_system.h"
#include "actor/dispatcher.h"
#include "ais/codec.h"
#include "core/actors.h"
#include "events/collision.h"
#include "events/proximity.h"
#include "hexgrid/hexgrid.h"
#include "kvstore/kvstore.h"
#include "obs/metrics.h"
#include "stream/broker.h"

namespace perfbench {
namespace {

using marlin::CellId;

/// Runs op(i) untimed for i in [prime, begin), then times op(i) for i in
/// [begin, end) as two halves; each item performs `ops_per_item` ops.
template <typename Op>
IsolatedCost Replay(const char* name, size_t prime, size_t begin, size_t end,
                    int64_t ops_per_item, Op&& op) {
  for (size_t i = prime; i < begin; ++i) op(i);
  IsolatedCost cost;
  cost.name = name;
  const size_t n = end > begin ? end - begin : 0;
  cost.ops = static_cast<int64_t>(n) * ops_per_item;
  if (n < 2) return cost;
  const size_t mid = begin + n / 2;
  const int64_t t0 = NowNanos();
  for (size_t i = begin; i < mid; ++i) op(i);
  const int64_t t1 = NowNanos();
  for (size_t i = mid; i < end; ++i) op(i);
  const int64_t t2 = NowNanos();
  cost.first_half_ns = static_cast<double>(t1 - t0) /
                       static_cast<double>((mid - begin) * ops_per_item);
  cost.second_half_ns = static_cast<double>(t2 - t1) /
                        static_cast<double>((end - mid) * ops_per_item);
  return cost;
}

/// Actor that accepts and discards every message.
class SinkActor : public marlin::Actor {
 public:
  marlin::Status Receive(const std::any&, marlin::ActorContext&) override {
    return marlin::Status::Ok();
  }
};

/// Cooperative dispatcher that only queues tasks; AwaitQuiescence runs them
/// on the calling thread. Times the actor layer's enqueue path without the
/// thread pool's cross-thread wake-ups.
class DeferredDispatcher : public marlin::Dispatcher {
 public:
  bool Submit(marlin::DispatchTask task) override {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    return true;
  }
  void Quiesce() override {
    for (;;) {
      std::vector<marlin::DispatchTask> batch;
      {
        std::lock_guard<std::mutex> lock(mu_);
        batch.swap(tasks_);
      }
      if (batch.empty()) return;
      for (marlin::DispatchTask& task : batch) task.fn();
    }
  }
  bool cooperative() const override { return true; }
  void Shutdown() override { Quiesce(); }
  size_t QueueDepth() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return tasks_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<marlin::DispatchTask> tasks_;  // guarded by mu_
};

marlin::ActorSystemConfig DeferredSystem(marlin::obs::MetricsRegistry* r) {
  marlin::ActorSystemConfig config;
  config.dispatcher = std::make_shared<DeferredDispatcher>();
  config.metrics = r;
  return config;
}

}  // namespace

IsolatedResults RunIsolatedReplays(const Stream& stream, size_t lead,
                                   size_t begin, size_t end,
                                   const marlin::RouteForecaster& model,
                                   const marlin::PipelineConfig& config,
                                   Tracer* tracer) {
  IsolatedResults out;
  const std::vector<AisPosition>& at = stream.decoded;
  std::vector<CellId> cells(end);
  for (size_t i = lead; i < end; ++i) {
    cells[i] = marlin::HexGrid::LatLngToCell(at[i].position,
                                             config.cell_actor_resolution);
  }

  {  // ais: decode every sentence.
    ScopedSpan span(tracer, "isolated:ais.decode", 0, -1, 0);
    int64_t errors = 0;
    out.decode = Replay("ais.decode_ns", begin, begin, end, 1, [&](size_t i) {
      if (!marlin::AisCodec::DecodePosition(stream.sentences[i],
                                            stream.received_at[i])
               .ok()) {
        ++errors;
      }
    });
    out.decode_errors = errors;
  }

  {  // stream: Produce's append, then the pump's poll.
    marlin::obs::MetricsRegistry registry;
    marlin::Broker broker(&registry);
    (void)broker.CreateTopic(config.topic, config.topic_partitions);
    {
      ScopedSpan span(tracer, "isolated:stream.append", 0, -1, 0);
      out.append =
          Replay("stream.append_ns", begin, begin, end, 1, [&](size_t i) {
            (void)broker.Append(config.topic, std::to_string(at[i].mmsi),
                                stream.sentences[i], stream.received_at[i]);
          });
    }
    ScopedSpan span(tracer, "isolated:stream.poll", 0, -1, 0);
    marlin::Consumer consumer(&broker, config.consumer_group, config.topic);
    constexpr int kPoll = 1024;
    out.poll = Replay("stream.poll_ns_per_record", 0, 0, (end - begin) / kPoll,
                      kPoll, [&](size_t) { (void)consumer.Poll(kPoll); });
  }

  {  // actor: Tell a position-sized payload to each sentence's vessel.
    marlin::obs::MetricsRegistry registry;
    marlin::ActorSystem system(DeferredSystem(&registry));
    std::unordered_map<Mmsi, marlin::ActorRef> refs;
    std::vector<const marlin::ActorRef*> targets(end);
    for (size_t i = begin; i < end; ++i) {
      auto it = refs.find(at[i].mmsi);
      if (it == refs.end()) {
        auto ref = system.Spawn(marlin::VesselActorName(at[i].mmsi),
                                std::make_unique<SinkActor>());
        it = refs.emplace(at[i].mmsi, ref.ok() ? *ref : marlin::ActorRef())
                 .first;
      }
      targets[i] = &it->second;
    }
    system.AwaitQuiescence();
    ScopedSpan span(tracer, "isolated:actor.tell", 0, -1, 0);
    // One actor hop: the Tell plus its delivery to an empty Receive,
    // drained every 64 messages so that most Tells find their target idle
    // and take the full enqueue-and-schedule path, as per-vessel actors do.
    out.tell = Replay("actor.tell_ns", begin, begin, end, 1, [&](size_t i) {
      (void)system.Tell(*targets[i], at[i]);
      if ((i & 63) == 63) system.AwaitQuiescence();
    });
    system.AwaitQuiescence();
  }

  {  // actor: GetOrSpawn over the vessel and cell name sequence.
    marlin::obs::MetricsRegistry registry;
    marlin::ActorSystem system(DeferredSystem(&registry));
    auto factory = [] { return std::make_unique<SinkActor>(); };
    ScopedSpan span(tracer, "isolated:actor.get_or_spawn", 0, -1, 0);
    out.get_or_spawn = Replay(
        "actor.get_or_spawn_ns", lead, begin, end, 2, [&](size_t i) {
          (void)system.GetOrSpawn(marlin::VesselActorName(at[i].mmsi),
                                  factory);
          (void)system.GetOrSpawn(marlin::CellActorName(cells[i]), factory);
        });
    system.AwaitQuiescence();
  }

  // vrf: the windows the vessel actors forecast over [lead, end), with
  // every vessel's window primed from the start of the stream.
  struct Window {
    size_t index = 0;  // sentence that completed the window
    marlin::SvrfInput input;
  };
  std::vector<Window> windows;
  {
    std::unordered_map<Mmsi, marlin::VesselHistory> histories;
    for (size_t i = 0; i < end; ++i) {
      marlin::VesselHistory& history = histories[at[i].mmsi];
      if (history.Push(at[i]) && history.Ready() && i >= lead) {
        windows.push_back(Window{i, history.MakeInput()});
      }
    }
  }
  constexpr size_t kBatch = 32;
  std::vector<std::vector<marlin::SvrfInput>> batches;
  std::vector<size_t> timed_batches;  // batches completed inside [begin, end)
  for (size_t b = 0; b + kBatch <= windows.size(); b += kBatch) {
    batches.emplace_back();
    for (size_t k = b; k < b + kBatch; ++k) {
      batches.back().push_back(windows[k].input);
    }
    if (windows[b].index >= begin) timed_batches.push_back(batches.size() - 1);
  }
  struct Trajectory {
    size_t index = 0;
    marlin::ForecastTrajectory trajectory;
  };
  std::vector<Trajectory> trajectories;
  {
    ScopedSpan span(tracer, "isolated:vrf.forecast_batch", 0, -1, 0);
    std::vector<marlin::StatusOr<marlin::ForecastTrajectory>> results;
    for (size_t b = 0; b < batches.size(); ++b) {
      model.ForecastBatch(batches[b], &results);
      for (size_t k = 0; k < results.size(); ++k) {
        if (!results[k].ok()) continue;
        const Window& window = windows[b * kBatch + k];
        trajectories.push_back(Trajectory{window.index, *results[k]});
        trajectories.back().trajectory.mmsi = at[window.index].mmsi;
      }
    }
    const size_t calls =
        timed_batches.empty() ? 0 : std::max<size_t>(64, timed_batches.size());
    out.forecast_batch =
        Replay("vrf.forecast_batch", 0, 0, calls, 1, [&](size_t c) {
          model.ForecastBatch(batches[timed_batches[c % timed_batches.size()]],
                              &results);
        });
  }

  {  // events: proximity per cell actor, pruned every 64 observations.
    struct Shard {
      marlin::ProximityDetector detector;
      int since_prune = 0;
    };
    std::unordered_map<CellId, std::unique_ptr<Shard>> shards;
    double stored_sum = 0.0;
    bool sample_stored = false;
    auto observe = [&](size_t i) {
      std::unique_ptr<Shard>& shard = shards[cells[i]];
      if (shard == nullptr) {
        shard = std::make_unique<Shard>(
            Shard{marlin::ProximityDetector(config.proximity), 0});
      }
      if (sample_stored) {
        stored_sum += static_cast<double>(shard->detector.StoredObservations());
      }
      (void)shard->detector.Observe(at[i]);
      if (++shard->since_prune >= 64) {
        shard->since_prune = 0;
        shard->detector.Prune(at[i].timestamp);
      }
    };
    {
      ScopedSpan span(tracer, "isolated:events.proximity", 0, -1, 0);
      out.proximity = Replay("events.proximity_observe_ns", lead, begin, end,
                             1, observe);
    }
    // Same replay again, untimed, sampling the stored reports per scan.
    shards.clear();
    for (size_t i = lead; i < begin; ++i) observe(i);
    sample_stored = true;
    for (size_t i = begin; i < end; ++i) observe(i);
    out.proximity_stored_mean =
        end > begin ? stored_sum / static_cast<double>(end - begin) : 0.0;
  }

  {  // events: collision per coarse region, pruned every 64 observations.
    struct Shard {
      marlin::CollisionForecaster forecaster;
      int since_prune = 0;
    };
    std::unordered_map<CellId, std::unique_ptr<Shard>> shards;
    size_t first_timed = 0;
    while (first_timed < trajectories.size() &&
           trajectories[first_timed].index < begin) {
      ++first_timed;
    }
    ScopedSpan span(tracer, "isolated:events.collision", 0, -1, 0);
    out.collision = Replay(
        "events.collision_observe_ns", 0, first_timed, trajectories.size(), 1,
        [&](size_t t) {
          const marlin::ForecastTrajectory& trajectory =
              trajectories[t].trajectory;
          const CellId region = marlin::HexGrid::LatLngToCell(
              trajectory.points.front().position,
              config.collision_actor_resolution);
          std::unique_ptr<Shard>& shard = shards[region];
          if (shard == nullptr) {
            shard = std::make_unique<Shard>(
                Shard{marlin::CollisionForecaster(config.collision), 0});
          }
          (void)shard->forecaster.Observe(trajectory);
          if (++shard->since_prune >= 64) {
            shard->since_prune = 0;
            shard->forecaster.Prune(trajectory.points.front().time);
          }
        });
  }

  {  // hexgrid: the vessel actor's cell lookup.
    ScopedSpan span(tracer, "isolated:hexgrid.latlng_to_cell", 0, -1, 0);
    CellId sink = 0;
    out.latlng_to_cell = Replay(
        "hexgrid.latlng_to_cell_ns", begin, begin, end, 1, [&](size_t i) {
          sink ^= marlin::HexGrid::LatLngToCell(
              at[i].position, config.cell_actor_resolution);
        });
    if (sink == 1) std::fputs("", stderr);  // keeps the loop observable
  }

  {  // kvstore: the writer's five state fields per message, then scans.
    marlin::obs::MetricsRegistry registry;
    marlin::KvStore store(nullptr, 16, &registry);
    std::vector<std::string> keys(end);
    std::vector<std::array<std::string, 5>> values(end);
    char buf[64];
    for (size_t i = lead; i < end; ++i) {
      const AisPosition& p = at[i];
      keys[i] = "vessel:" + std::to_string(p.mmsi);
      std::snprintf(buf, sizeof(buf), "%.6f", p.position.lat_deg);
      values[i][0] = buf;
      std::snprintf(buf, sizeof(buf), "%.6f", p.position.lon_deg);
      values[i][1] = buf;
      std::snprintf(buf, sizeof(buf), "%.1f", p.sog_knots);
      values[i][2] = buf;
      std::snprintf(buf, sizeof(buf), "%.1f", p.cog_deg);
      values[i][3] = buf;
      values[i][4] = std::to_string(p.timestamp);
    }
    {
      ScopedSpan span(tracer, "isolated:kvstore.hset", 0, -1, 0);
      out.hset = Replay("kvstore.hset_ns", lead, begin, end, 5, [&](size_t i) {
        (void)store.HSet(keys[i], "lat", values[i][0]);
        (void)store.HSet(keys[i], "lon", values[i][1]);
        (void)store.HSet(keys[i], "sog", values[i][2]);
        (void)store.HSet(keys[i], "cog", values[i][3]);
        (void)store.HSet(keys[i], "ts", values[i][4]);
      });
    }
    ScopedSpan span(tracer, "isolated:kvstore.scan_prefix", 0, -1, 0);
    out.scan_prefix = Replay("kvstore.scan_prefix", 0, 0, 64, 1, [&](size_t) {
      (void)store.ScanPrefix("vessel:");
    });
  }
  return out;
}

}  // namespace perfbench
