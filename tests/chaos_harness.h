#ifndef MARLIN_TESTS_CHAOS_HARNESS_H_
#define MARLIN_TESTS_CHAOS_HARNESS_H_

// Chaos harness: runs the full Marlin pipeline — simulated fleet → broker →
// sharded entity actors → kvstore — on a 2–4 node in-process cluster whose
// network, clocks, and nodes misbehave according to a seed-derived
// FaultPlan, then heals everything and asserts the system converged to the
// state a fault-free run would have produced.
//
// The run is deterministic end to end: every node's ActorSystem drains on
// a chk::DeterministicScheduler, all fault decisions come from one
// fault::FaultInjector, and protocol time lives on a des::EventScheduler
// virtual timeline (DESIGN.md §13) — chaos beats and per-node clock-skew
// retunes are posted events, so a failing seed replays bit-for-bit (same
// fault trace hash, same final state hash). Both tests/chaos_test.cc and
// bench/chaos_soak.cc build on this header.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__)
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "actor/actor.h"
#include "chk/deterministic_scheduler.h"
#include "chk/fingerprint.h"
#include "chk/violation.h"
#include "cluster/cluster_node.h"
#include "fault/fault.h"
#include "kvstore/durable_kvstore.h"
#include "kvstore/kvstore.h"
#include "obs/metrics.h"
#include "sim/des/event_fleet.h"
#include "sim/des/scheduler.h"
#include "storage/log_storage.h"
#include "stream/broker.h"

namespace marlin {
namespace chaos {

/// Protocol heartbeat; one chaos tick advances protocol time by one beat.
constexpr TimeMicros kBeat = 200'000;
constexpr TimeMicros kT0 = 1'000'000;

inline constexpr const char* kTopic = "ais";
inline constexpr const char* kGroup = "chaos";

struct ChaosOptions {
  /// Cluster size; 0 = derive from the seed (2..4 nodes).
  int num_nodes = 0;
  /// Shard count == broker partition count (shard-aligned consumption).
  int num_shards = 8;
  int num_vessels = 6;
  double sim_duration_sec = 600.0;
  /// Ticks of active fault injection before the heal phase.
  int chaos_ticks = 40;
  int poll_batch = 32;
  /// Tick caps for the heal and drain phases (a bound, not a target —
  /// both phases exit as soon as their condition holds).
  int converge_cap = 150;
  int drain_cap = 300;
  /// Speed-over-ground threshold for the derived "overspeed" event.
  double overspeed_knots = 10.0;
  /// Root directory for durable storage (broker segment logs + kvstore
  /// WAL/snapshot). Empty = the original pure in-memory pipeline.
  std::string storage_dir;
  /// Chaos tick at which the whole process SIGKILLs itself — a real crash:
  /// no flush, no destructors, torn tails and all. -1 = never. Only
  /// meaningful with a storage_dir (an in-memory run leaves nothing to
  /// recover) on a unix host; drive it through RunCrashRecovery.
  int crash_at_tick = -1;
  /// Restart over a previous run's storage_dir: the broker and kvstore
  /// recover what the crashed incarnation persisted, the seed phase
  /// verifies the recovered prefix against the deterministic fleet stream
  /// and appends only the missing tail.
  bool resume = false;
};

struct ChaosRunResult {
  bool ok = true;
  /// First violated invariant, empty when ok.
  std::string failure;
  uint64_t seed = 0;
  /// FaultInjector::TraceHash() — same seed must reproduce this exactly.
  uint64_t fault_trace_hash = 0;
  /// Fingerprint of the final kvstore contents.
  uint64_t state_hash = 0;
  int64_t chk_violations = 0;
  int num_nodes = 0;
  size_t records = 0;
  int crashes = 0;
  uint64_t frames_dropped = 0;
  uint64_t frames_delayed = 0;
  uint64_t frames_duplicated = 0;
  uint64_t partitions_injected = 0;
  std::string plan;
  /// Durable mode only: broker records recovered from segments at seed time
  /// (resume runs) and kvstore WAL records replayed past the last snapshot.
  int64_t recovered_records = 0;
  int64_t kv_replayed_records = 0;
};

/// One kvstore cell an AIS record writes. The field is "<partition>:<offset>"
/// so redelivery (at-least-once consumption, handoff replay) is idempotent.
struct KvWrite {
  std::string key;
  std::string field;
  std::string value;
};

/// The pipeline's per-record application step, shared verbatim by the entity
/// actor and the fault-free reference run — which is what "the kvstore
/// converges to the fault-free run" means.
inline std::vector<KvWrite> WritesFor(const std::string& entity, int partition,
                                      int64_t offset, const std::string& value,
                                      double overspeed_knots) {
  std::vector<KvWrite> out;
  const std::string field =
      std::to_string(partition) + ":" + std::to_string(offset);
  out.push_back({"vessel/" + entity, field, value});
  // value is "sog=<knots>"; a reading above the threshold derives an event.
  if (value.rfind("sog=", 0) == 0 &&
      std::strtod(value.c_str() + 4, nullptr) > overspeed_knots) {
    out.push_back({"event/" + entity, field, "overspeed"});
  }
  return out;
}

/// Sharded entity actor: applies each routed record to the shared kvstore —
/// through the durable wrapper when the harness runs in durable mode (so
/// every write is journaled and survives the crash tick).
class VesselActor : public Actor {
 public:
  VesselActor(std::string entity, KvStore* kv, DurableKvStore* durable,
              double overspeed_knots)
      : entity_(std::move(entity)),
        kv_(kv),
        durable_(durable),
        overspeed_knots_(overspeed_knots) {}

  Status Receive(const std::any& message, ActorContext& ctx) override {
    (void)ctx;
    const cluster::ShardEnvelope* envelope =
        std::any_cast<cluster::ShardEnvelope>(&message);
    if (envelope == nullptr) {
      return Status::InvalidArgument("vessel actor expects shard envelopes");
    }
    const std::string& payload = envelope->payload;
    // payload = "<partition>:<offset>:<value>"
    const size_t colon1 = payload.find(':');
    const size_t colon2 =
        colon1 == std::string::npos ? std::string::npos
                                    : payload.find(':', colon1 + 1);
    if (colon2 == std::string::npos) {
      return Status::InvalidArgument("malformed chaos payload");
    }
    const int partition = std::atoi(payload.c_str());
    const int64_t offset = std::atoll(payload.c_str() + colon1 + 1);
    const std::string value = payload.substr(colon2 + 1);
    for (const KvWrite& w :
         WritesFor(entity_, partition, offset, value, overspeed_knots_)) {
      Status status = durable_ != nullptr
                          ? durable_->HSet(w.key, w.field, w.value)
                          : kv_->HSet(w.key, w.field, w.value);
      if (!status.ok()) return status;
    }
    return Status::Ok();
  }

 private:
  const std::string entity_;
  KvStore* kv_;
  DurableKvStore* durable_;  // null = in-memory harness
  const double overspeed_knots_;
};

/// A 2–4 node cluster under one ChaosHub, driven tick by tick.
class ChaosCluster {
 public:
  ChaosCluster(uint64_t seed, const ChaosOptions& options)
      : seed_(seed),
        options_(options),
        plan_(fault::FaultPlan::FromSeed(seed)),
        injector_(plan_),
        hub_(&injector_),
        log_storage_(options.storage_dir.empty()
                         ? nullptr
                         : std::make_unique<storage::DurableLogStorage>(
                               options.storage_dir + "/broker",
                               storage::DurableLogStorage::Options(),
                               &registry_)),
        kv_(nullptr, options.num_shards, &registry_),
        broker_(&registry_, log_storage_.get()),
        sched_(SchedulerConfig(seed)) {
    if (options_.num_nodes <= 0) {
      options_.num_nodes = 2 + static_cast<int>(seed % 3);
    }
    if (!options_.storage_dir.empty()) {
      DurableKvStore::Options kv_options;
      kv_options.num_shards = options_.num_shards;
      kv_options.metrics = &registry_;
      auto durable = DurableKvStore::Open(options_.storage_dir + "/kv",
                                          kv_options);
      if (!durable.ok()) {
        init_error_ = "durable kv open: " + durable.status().message();
      } else {
        durable_kv_ = std::move(*durable);
      }
    }
    for (int i = 0; i < options_.num_nodes; ++i) {
      roster_.push_back(static_cast<cluster::NodeId>(i + 1));
    }
    last_committed_.assign(static_cast<size_t>(options_.num_shards), 0);
  }

  ChaosRunResult Run() {
    ChaosRunResult result;
    result.seed = seed_;
    result.num_nodes = options_.num_nodes;
    result.plan = plan_.Describe();
    if (!init_error_.empty()) {
      result.ok = false;
      result.failure = init_error_;
      return result;
    }
    if (durable_kv_ != nullptr) {
      result.kv_replayed_records = durable_kv_->replayed_records();
    }

    SeedTopic(&result);
    BootNodes();
    if (result.ok) ChaosPhase(&result);
    if (result.ok) HealPhase(&result);
    if (result.ok) DrainPhase(&result);
    if (result.ok) CheckInvariants(&result);

    result.fault_trace_hash = injector_.TraceHash();
    result.state_hash = StateHash();
    result.frames_dropped = hub_.dropped();
    result.frames_delayed = hub_.delayed();
    result.frames_duplicated = hub_.duplicated();
    result.partitions_injected = hub_.partitions();
    result.records = records_.size();

    // Teardown in dependency order before the hub dies.
    for (auto& node : nodes_) {
      if (node.node != nullptr) StopNode(node);
    }
    nodes_.clear();
    return result;
  }

 private:
  struct HarnessNode {
    cluster::NodeId id = cluster::kNoNode;
    std::unique_ptr<obs::MetricsRegistry> registry;
    /// Protocol time source; ChaosClock layers this node's fixed skew on
    /// top, so every timestamp the node emits is skew-adjusted.
    std::unique_ptr<SimulatedClock> base_clock;
    std::unique_ptr<fault::ChaosClock> clock;
    std::shared_ptr<chk::DeterministicScheduler> sched;
    std::shared_ptr<cluster::Transport> transport;
    std::unique_ptr<cluster::ClusterNode> node;
    cluster::ShardRegion* region = nullptr;
    std::unique_ptr<Consumer> consumer;
    int incarnation = 0;
    /// Chaos tick at which a crashed node restarts.
    int down_until = 0;
    bool alive() const { return node != nullptr; }
  };

  static bool Fail(ChaosRunResult* result, std::string why) {
    if (result->ok) {
      result->ok = false;
      result->failure = std::move(why);
    }
    return false;
  }

  void SeedTopic(ChaosRunResult* result) {
    Status status = broker_.CreateTopic(kTopic, options_.num_shards);
    if (!status.ok()) {
      Fail(result, "create topic: " + status.message());
      return;
    }
    // Resume runs: CreateTopic just recovered whatever the crashed
    // incarnation fsynced. The fleet regenerates deterministically from the
    // seed, so the recovered logs must be an exact prefix of the
    // regenerated stream — verify the overlap record by record (a
    // divergence means storage recovery corrupted data) and append only
    // the missing tail.
    const size_t shards = static_cast<size_t>(options_.num_shards);
    std::vector<int64_t> recovered_end(shards, 0);
    std::vector<std::vector<Record>> recovered(shards);
    if (options_.resume) {
      for (int p = 0; p < options_.num_shards; ++p) {
        recovered_end[p] = *broker_.EndOffset(kTopic, p);
        result->recovered_records += recovered_end[p];
        if (recovered_end[p] == 0) continue;
        auto have = broker_.Read(kTopic, p, 0,
                                 static_cast<int>(recovered_end[p]));
        if (!have.ok()) {
          Fail(result, "recovered read: " + have.status().message());
          return;
        }
        recovered[p] = std::move(*have);
      }
    }
    std::vector<int64_t> next(shards, 0);
    des::EventFleetConfig fleet_config;
    fleet_config.num_vessels = options_.num_vessels;
    fleet_config.seed = seed_;
    for (const AisPosition& position : des::RunFleet(
             SharedWorld(), fleet_config, options_.sim_duration_sec)) {
      const std::string key = std::to_string(position.mmsi);
      char value[32];
      std::snprintf(value, sizeof(value), "sog=%.1f", position.sog_knots);
      const int p = Broker::PartitionForKey(key, options_.num_shards);
      const int64_t offset = next[static_cast<size_t>(p)]++;
      if (offset < recovered_end[static_cast<size_t>(p)]) {
        const Record& have =
            recovered[static_cast<size_t>(p)][static_cast<size_t>(offset)];
        if (have.key != key || have.value != value) {
          Fail(result, "recovered log diverges from the deterministic "
                       "stream at partition " +
                           std::to_string(p) + " offset " +
                           std::to_string(offset));
          return;
        }
        records_.push_back(have);
        continue;
      }
      StatusOr<Record> appended =
          broker_.Append(kTopic, key, value, position.timestamp);
      if (!appended.ok()) {
        Fail(result, "append: " + appended.status().message());
        return;
      }
      records_.push_back(*appended);
    }
    if (records_.empty()) {
      Fail(result, "fleet produced no records");
      return;
    }
    // Durable mode: the seed set must survive the crash tick, so fsync it
    // now — mid-run appends are only batch-synced, which is exactly the
    // torn-tail exposure the recovery path is built for.
    if (broker_.durable()) {
      Status flushed = broker_.Flush();
      if (!flushed.ok()) Fail(result, "seed flush: " + flushed.message());
    }
  }

  void BootNodes() {
    nodes_.resize(roster_.size());
    for (size_t i = 0; i < roster_.size(); ++i) {
      HarnessNode& node = nodes_[i];
      node.id = roster_[i];
      node.registry = std::make_unique<obs::MetricsRegistry>();
      node.base_clock = std::make_unique<SimulatedClock>(kT0);
      node.clock = std::make_unique<fault::ChaosClock>(
          node.base_clock.get(), injector_.ClockSkewFor(node.id));
      StartNode(node);
    }
  }

  void StartNode(HarnessNode& node) {
    // Distinct deterministic schedule per (node, incarnation): restarting a
    // node must not replay its previous incarnation's interleaving.
    node.sched = std::make_shared<chk::DeterministicScheduler>(
        seed_ ^ (0x9E3779B97F4A7C15ULL * node.id) ^
        (0xC2B2AE3D27D4EB4FULL * static_cast<uint64_t>(node.incarnation)));
    cluster::ClusterNodeConfig config;
    config.self = node.id;
    config.nodes = roster_;
    config.num_shards = options_.num_shards;
    config.membership.heartbeat_interval = kBeat;
    config.actor.dispatcher = node.sched;
    config.actor.throughput = 1;
    config.metrics = node.registry.get();
    config.auto_tick = false;
    node.transport = hub_.CreateTransport();
    node.node = std::make_unique<cluster::ClusterNode>(config, node.transport);
    (void)node.node->Start();
    cluster::ShardRegionOptions region_options;
    region_options.name = "vessel";
    KvStore* kv = &kv_;
    DurableKvStore* durable = durable_kv_.get();
    const double overspeed = options_.overspeed_knots;
    region_options.factory = [kv, durable,
                              overspeed](const std::string& entity) {
      return std::make_unique<VesselActor>(entity, kv, durable, overspeed);
    };
    node.region = *node.node->CreateRegion(std::move(region_options));
    node.consumer = std::make_unique<Consumer>(&broker_, kGroup, kTopic);
    ++node.incarnation;
  }

  void StopNode(HarnessNode& node) {
    node.consumer.reset();
    node.region = nullptr;
    node.node->Shutdown();
    node.node.reset();
    node.transport.reset();
    node.sched.reset();
  }

  int AliveCount() const {
    int alive = 0;
    for (const HarnessNode& node : nodes_) {
      if (node.alive()) ++alive;
    }
    return alive;
  }

  static des::EventSchedulerConfig SchedulerConfig(uint64_t seed) {
    des::EventSchedulerConfig config;
    config.seed = seed;
    config.start_time = kT0;
    return config;
  }

  /// Advances the shared virtual timeline one beat and runs one protocol
  /// step on every live node. Outside the chaos phase no events are pending
  /// (skews stay frozen), so RunUntil only moves the clock.
  void AdvanceBeat() {
    sched_.RunUntil(sched_.Now() + kBeat);
    TickAll(sched_.Now());
  }

  /// One protocol step for every live node at chaos-tick time `now`.
  void TickAll(TimeMicros now) {
    for (HarnessNode& node : nodes_) {
      if (!node.alive()) continue;
      node.base_clock->Set(now);
      node.node->Tick(node.clock->Now());
    }
    for (HarnessNode& node : nodes_) {
      if (node.alive()) node.node->system().AwaitQuiescence();
    }
  }

  /// Poll the shards this node currently believes it owns and route each
  /// record through the shard region toward its entity actor.
  void PollAndRoute(HarnessNode& node, bool require_delivery,
                    ChaosRunResult* result) {
    node.consumer->SetAssignment(node.node->ring().ShardsOwnedBy(node.id));
    for (const Record& record : node.consumer->Poll(options_.poll_batch)) {
      std::string payload = std::to_string(record.partition) + ":" +
                            std::to_string(record.offset) + ":" + record.value;
      const bool delivered = node.region->Tell(record.key, std::move(payload));
      if (!delivered && require_delivery) {
        Fail(result, "drain-phase Tell refused for key " + record.key);
        return;
      }
    }
  }

  /// The chaos phase on the virtual timeline: beats and per-node skew
  /// retunes are posted events on sched_. Beats self-post at kBeat cadence;
  /// every kSkewEveryBeats beats each node's ChaosClock is retuned to the
  /// next value of its pure-function schedule (FaultInjector::ClockSkewAt),
  /// staggered per node so retunes land *between* beats. No skew events are
  /// posted past the chaos phase, so heal/drain run on frozen skews and the
  /// convergence checks see stable clocks.
  static constexpr int kSkewEveryBeats = 4;

  void ChaosPhase(ChaosRunResult* result) {
    beat_result_ = result;
    const TimeMicros chaos_end =
        kT0 + static_cast<TimeMicros>(options_.chaos_ticks) * kBeat;
    beat_handler_ = std::make_unique<des::FunctionHandler>(
        [this](des::EventScheduler* sched, const des::Event& event) {
          const int tick = static_cast<int>(event.arg);
          BeatOnce(tick);
          if (beat_result_->ok && tick + 1 < options_.chaos_ticks) {
            sched->PostIn(kBeat, beat_id_, static_cast<uint64_t>(tick) + 1);
          }
        });
    beat_id_ = sched_.RegisterHandler("chaos.beat", beat_handler_.get());
    skew_handler_ = std::make_unique<des::FunctionHandler>(
        [this, chaos_end](des::EventScheduler* sched,
                          const des::Event& event) {
          const uint32_t node_index = static_cast<uint32_t>(event.arg >> 32);
          const uint32_t step = static_cast<uint32_t>(event.arg);
          HarnessNode& node = nodes_[node_index];
          // The clock outlives node restarts, so retuning a crashed node is
          // fine — it comes back with the scheduled skew.
          node.clock->SetSkew(injector_.ClockSkewAt(node.id, step));
          const TimeMicros next = event.at + kSkewEveryBeats * kBeat;
          if (next < chaos_end) {
            sched->PostAt(next, skew_id_,
                          (static_cast<uint64_t>(node_index) << 32) |
                              (step + 1));
          }
        });
    skew_id_ = sched_.RegisterHandler("chaos.skew", skew_handler_.get());

    sched_.PostAt(kT0 + kBeat, beat_id_, 0);
    if (plan_.max_clock_skew > 0) {
      for (size_t i = 0; i < nodes_.size(); ++i) {
        // 1 ms per-node stagger keeps retunes at distinct virtual times.
        const TimeMicros first = kT0 + kSkewEveryBeats * kBeat +
                                 static_cast<TimeMicros>(i + 1) * 1'000;
        if (first < chaos_end) {
          sched_.PostAt(first, skew_id_,
                        (static_cast<uint64_t>(i) << 32) | 1);
        }
      }
    }
    sched_.RunAll();
    sched_.RunUntil(chaos_end);
    beat_result_ = nullptr;
  }

  /// One chaos beat (dispatched at virtual time kT0 + (tick+1)*kBeat).
  void BeatOnce(int tick) {
    ChaosRunResult* result = beat_result_;
    hub_.Tick();
    for (HarnessNode& node : nodes_) {
      const std::string id_str = std::to_string(node.id);
      if (!node.alive()) {
        if (tick >= node.down_until) StartNode(node);
        continue;
      }
      // Keep at least one node alive so the cluster is always degraded,
      // never gone. Outage length must exceed the unreachable threshold
      // plus the maximum frame delay: peers need to declare the node
      // dead (resetting its incarnation epoch) before it returns.
      if (AliveCount() > 1 &&
          injector_.Chance("node.crash." + id_str, plan_.crash_rate)) {
        StopNode(node);
        node.down_until =
            tick + 7 +
            static_cast<int>(injector_.Pick(
                "node.crash_ticks." + id_str,
                static_cast<uint64_t>(plan_.max_crash_ticks) + 1));
        ++result->crashes;
        continue;
      }
    }
    TickAll(sched_.Now());
    for (HarnessNode& node : nodes_) {
      if (!node.alive()) continue;
      // Best-effort during chaos: dropped deliveries are re-polled in
      // the drain phase (offsets are only committed once ownership is
      // coordinated again, so nothing is lost for good).
      PollAndRoute(node, /*require_delivery=*/false, result);
    }
    for (HarnessNode& node : nodes_) {
      if (node.alive()) node.node->system().AwaitQuiescence();
    }
    // Durable mode: periodic checkpoints mid-chaos, so a later crash
    // recovers from snapshot + short WAL tail instead of a full replay
    // (and so the crash lands between a checkpoint and its next one).
    if (durable_kv_ != nullptr && tick % 8 == 7) {
      Status checkpoint = durable_kv_->Checkpoint();
      if (!checkpoint.ok()) {
        Fail(result, "kv checkpoint: " + checkpoint.message());
        return;
      }
    }
#if defined(__unix__)
    if (tick == options_.crash_at_tick) {
      // A real crash: no flush, no destructors. Whatever the OS has not
      // yet been handed stays lost; recovery must absorb the torn tails
      // this leaves in the storage dir.
      ::kill(::getpid(), SIGKILL);
    }
#endif
  }

  bool Converged() const {
    std::vector<cluster::HashRing> rings;
    for (const HarnessNode& node : nodes_) {
      if (!node.alive()) return false;
      for (const cluster::NodeId peer : roster_) {
        if (node.node->membership().StateOf(peer) != cluster::NodeState::kUp) {
          return false;
        }
      }
      if (node.region->BufferedCount() != 0) return false;
      rings.push_back(node.node->ring());
    }
    for (int shard = 0; shard < options_.num_shards; ++shard) {
      const cluster::NodeId owner = rings[0].OwnerOfShard(shard);
      if (owner == cluster::kNoNode) return false;
      for (const cluster::HashRing& ring : rings) {
        if (ring.OwnerOfShard(shard) != owner) return false;
      }
    }
    return true;
  }

  void HealPhase(ChaosRunResult* result) {
    hub_.SetChaosEnabled(false);
    hub_.HealAll();
    for (HarnessNode& node : nodes_) {
      if (!node.alive()) StartNode(node);
    }
    for (int i = 0; i < options_.converge_cap; ++i) {
      if (Converged()) return;
      hub_.Tick();
      AdvanceBeat();
    }
    if (!Converged()) {
      Fail(result, "cluster failed to converge after heal (membership or "
                   "shard ownership still disagrees)");
    }
  }

  void DrainPhase(ChaosRunResult* result) {
    // Fresh consumers: positions re-seeded from the group's committed
    // offsets, exactly like a consumer joining after a rebalance.
    for (HarnessNode& node : nodes_) {
      node.consumer = std::make_unique<Consumer>(&broker_, kGroup, kTopic);
      node.consumer->SetAssignment(node.node->ring().ShardsOwnedBy(node.id));
    }
    for (int round = 0; round < options_.drain_cap; ++round) {
      int64_t lag = 0;
      for (HarnessNode& node : nodes_) lag += node.consumer->Lag();
      if (lag == 0) {
        // Everything polled and routed; settle in-flight deliveries.
        AdvanceBeat();
        return;
      }
      for (HarnessNode& node : nodes_) {
        PollAndRoute(node, /*require_delivery=*/true, result);
        if (!result->ok) return;
      }
      AdvanceBeat();
      // Offsets are committed only here, where convergence guarantees a
      // single owner per partition — commits stay monotone by construction
      // and the harness verifies it.
      for (HarnessNode& node : nodes_) {
        node.consumer->Commit();
      }
      if (!CheckCommitsMonotone(result)) return;
    }
    Fail(result, "drain did not reach zero lag within the round cap");
  }

  bool CheckCommitsMonotone(ChaosRunResult* result) {
    for (int p = 0; p < options_.num_shards; ++p) {
      const int64_t committed = broker_.CommittedOffset(kGroup, kTopic, p);
      if (committed < last_committed_[static_cast<size_t>(p)]) {
        return Fail(result, "committed offset regressed on partition " +
                                std::to_string(p));
      }
      last_committed_[static_cast<size_t>(p)] = committed;
    }
    return true;
  }

  void CheckInvariants(ChaosRunResult* result) {
    // Shard ownership: disjoint across nodes and complete (every shard has
    // exactly one owner — Converged() already established agreement).
    size_t owned_total = 0;
    for (const HarnessNode& node : nodes_) {
      owned_total += node.node->ring().ShardsOwnedBy(node.id).size();
      if (node.region->BufferedCount() != 0) {
        Fail(result, "node " + std::to_string(node.id) +
                         " still buffers handoff envelopes");
        return;
      }
    }
    if (owned_total != static_cast<size_t>(options_.num_shards)) {
      Fail(result, "shard ownership not a partition of the shard space");
      return;
    }
    // Every record consumed and committed.
    for (int p = 0; p < options_.num_shards; ++p) {
      const int64_t end = *broker_.EndOffset(kTopic, p);
      const int64_t committed = broker_.CommittedOffset(kGroup, kTopic, p);
      if (committed != end) {
        Fail(result, "partition " + std::to_string(p) + " committed " +
                         std::to_string(committed) + " != end " +
                         std::to_string(end));
        return;
      }
    }
    // Entity actors live only on the shard owners: each distinct vessel has
    // exactly one live actor cluster-wide after the drain.
    const auto reference = Reference();
    size_t distinct_entities = 0;
    for (const auto& [key, fields] : reference) {
      if (key.rfind("vessel/", 0) == 0) ++distinct_entities;
    }
    size_t live_entities = 0;
    for (const HarnessNode& node : nodes_) {
      live_entities += node.region->LocalEntityCount();
    }
    if (live_entities != distinct_entities) {
      Fail(result, "live entity actors (" + std::to_string(live_entities) +
                       ") != distinct vessels (" +
                       std::to_string(distinct_entities) + ")");
      return;
    }
    // The tentpole invariant: kvstore contents equal the fault-free run.
    std::vector<std::string> keys = kv_view().ScanPrefix("");
    if (keys.size() != reference.size()) {
      Fail(result, "kvstore key count " + std::to_string(keys.size()) +
                       " != reference " + std::to_string(reference.size()));
      return;
    }
    for (const auto& [key, fields] : reference) {
      if (kv_view().HGetAll(key) != fields) {
        Fail(result, "kvstore diverged from fault-free run at key " + key);
        return;
      }
    }
  }

  /// The fault-free run: apply every record in partition order.
  std::map<std::string, std::map<std::string, std::string>> Reference() const {
    std::map<std::string, std::map<std::string, std::string>> state;
    for (const Record& record : records_) {
      for (const KvWrite& w :
           WritesFor(record.key, record.partition, record.offset, record.value,
                     options_.overspeed_knots)) {
        state[w.key][w.field] = w.value;
      }
    }
    return state;
  }

  uint64_t StateHash() const {
    chk::Fingerprint fp;
    for (const std::string& key : kv_view().ScanPrefix("")) {
      fp.MixBytes(key);
      for (const auto& [field, value] : kv_view().HGetAll(key)) {
        fp.MixBytes(field);
        fp.MixBytes(value);
      }
    }
    return fp.Value();
  }

  /// The store the pipeline actually wrote into: the durable wrapper's
  /// inner store in durable mode, the plain shared store otherwise.
  const KvStore& kv_view() const {
    return durable_kv_ != nullptr ? durable_kv_->store() : kv_;
  }

  /// World construction is expensive relative to a chaos run; all runs in
  /// the process share one (it is read-only after construction).
  static const World& SharedWorld() {
    static World world = World::GlobalWorld(7);
    return world;
  }

  const uint64_t seed_;
  ChaosOptions options_;
  const fault::FaultPlan plan_;
  fault::FaultInjector injector_;
  fault::ChaosHub hub_;
  obs::MetricsRegistry registry_;  // kv + broker metrics (not per-node)
  /// Durable mode (storage_dir set): the broker's segment-log seam and the
  /// journaled kvstore. Both null in the original in-memory harness.
  /// Declared before kv_/broker_ — the broker recovers through the seam in
  /// its constructor.
  std::unique_ptr<storage::DurableLogStorage> log_storage_;
  std::unique_ptr<DurableKvStore> durable_kv_;
  std::string init_error_;
  KvStore kv_;
  Broker broker_;
  std::vector<cluster::NodeId> roster_;
  std::vector<HarnessNode> nodes_;
  std::vector<Record> records_;
  std::vector<int64_t> last_committed_;
  /// The run's virtual timeline (DESIGN.md §13): chaos beats and skew
  /// retunes dispatch here; heal/drain advance the same clock beat-wise.
  des::EventScheduler sched_;
  std::unique_ptr<des::FunctionHandler> beat_handler_;
  std::unique_ptr<des::FunctionHandler> skew_handler_;
  uint32_t beat_id_ = 0;
  uint32_t skew_id_ = 0;
  ChaosRunResult* beat_result_ = nullptr;
};

/// Runs one full chaos cycle for `seed`; chk violations anywhere in the run
/// fail the result.
inline ChaosRunResult RunChaos(uint64_t seed, const ChaosOptions& options = {}) {
  chk::ScopedViolationRecorder violations;
  ChaosCluster cluster(seed, options);
  ChaosRunResult result = cluster.Run();
  result.chk_violations = violations.count();
  if (result.ok && result.chk_violations > 0) {
    result.ok = false;
    result.failure = std::to_string(result.chk_violations) +
                     " chk invariant violation(s) during the run";
  }
  return result;
}

/// One-command repro string for a failing seed.
inline std::string ReproCommand(uint64_t seed) {
  return "MARLIN_CHAOS_SEED=" + std::to_string(seed) +
         " ./tests/chaos_test  (or ./bench/chaos_soak --seed=" +
         std::to_string(seed) + ")";
}

#if defined(__unix__)

struct CrashRecoveryResult {
  bool ok = true;
  std::string failure;
  /// Chaos tick at which the first incarnation SIGKILLed itself.
  int crash_tick = 0;
};

/// The process-crash soak: runs the durable chaos pipeline in a forked
/// child that kill -9's itself mid-chaos (a real crash — no flush, no
/// destructors), then restarts a second child over the same storage
/// directory. The resume run must recover the broker segments and kvstore
/// snapshot+WAL, verify the recovered prefix, rejoin, and converge to the
/// byte-identical fault-free reference — every invariant of a normal chaos
/// run, asserted *across* a hard process death.
///
/// Fork (not exec) keeps the run deterministic and self-contained; the
/// children do nothing but RunChaos + _exit, so no parent thread state is
/// relied on. The temp storage directory is always cleaned up.
inline CrashRecoveryResult RunCrashRecovery(uint64_t seed,
                                            const ChaosOptions& base = {}) {
  namespace fs = std::filesystem;
  CrashRecoveryResult out;
  // Past the first ticks (so there is undrained in-flight state to lose)
  // and spread across the checkpoint cadence (so some crashes land right
  // before a checkpoint, some right after).
  out.crash_tick = 4 + static_cast<int>(seed % 24);

  std::string dir_template =
      (fs::temp_directory_path() / "marlin_crash_XXXXXX").string();
  std::vector<char> path(dir_template.begin(), dir_template.end());
  path.push_back('\0');
  if (::mkdtemp(path.data()) == nullptr) {
    out.ok = false;
    out.failure = "mkdtemp failed for the crash-soak storage dir";
    return out;
  }
  const std::string dir(path.data());
  const std::string failure_file = dir + "/resume_failure.txt";

  // Incarnation 1: runs until the harness SIGKILLs it mid-chaos. Surviving
  // to exit means the crash never fired — that is a failure too.
  pid_t child = ::fork();
  if (child == 0) {
    ChaosOptions options = base;
    options.storage_dir = dir;
    options.crash_at_tick = out.crash_tick;
    (void)RunChaos(seed, options);
    ::_exit(42);
  }
  int status = 0;
  ::waitpid(child, &status, 0);
  if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
    out.ok = false;
    out.failure = "crash child was not SIGKILLed mid-run (wait status " +
                  std::to_string(status) + ")";
    std::error_code ec;
    fs::remove_all(dir, ec);
    return out;
  }

  // Incarnation 2: restart over the same directory and run the full cycle
  // to its invariants.
  child = ::fork();
  if (child == 0) {
    ChaosOptions options = base;
    options.storage_dir = dir;
    options.resume = true;
    ChaosRunResult result = RunChaos(seed, options);
    if (!result.ok) {
      std::FILE* f = std::fopen(failure_file.c_str(), "w");
      if (f != nullptr) {
        std::fputs(result.failure.c_str(), f);
        std::fclose(f);
      }
      ::_exit(1);
    }
    ::_exit(0);
  }
  ::waitpid(child, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    out.ok = false;
    out.failure = "resume run failed";
    std::FILE* f = std::fopen(failure_file.c_str(), "r");
    if (f != nullptr) {
      char buffer[512];
      const size_t n = std::fread(buffer, 1, sizeof(buffer) - 1, f);
      buffer[n] = '\0';
      out.failure += ": ";
      out.failure += buffer;
      std::fclose(f);
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return out;
}

#endif  // defined(__unix__)

}  // namespace chaos
}  // namespace marlin

#endif  // MARLIN_TESTS_CHAOS_HARNESS_H_
