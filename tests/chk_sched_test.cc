// Tests for the chk::DeterministicScheduler: schedule determinism, seed
// diversity, replay, and a 50-seed invariant sweep over a 3-actor ring
// (ping/pong) topology. Labelled `chk` — run separately with `ctest -L chk`
// and stress with `ctest -L chk --repeat until-fail:10`.

#include <any>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "actor/actor_system.h"
#include "chk/chk.h"

namespace marlin {
namespace {

struct RingMsg {
  int hops = 0;
};

/// Forwards a RingMsg to the next actor in the ring until hops run out,
/// recording every delivery into a shared log.
class RingActor : public Actor {
 public:
  RingActor(std::string name, std::string next, std::mutex* mu,
            std::vector<std::string>* log)
      : name_(std::move(name)), next_(std::move(next)), mu_(mu), log_(log) {}

  Status Receive(const std::any& message, ActorContext& ctx) override {
    ctx.AssertExclusive("ring actor state");
    const RingMsg msg = std::any_cast<RingMsg>(message);
    {
      std::lock_guard<std::mutex> lock(*mu_);
      log_->push_back(name_ + ":" + std::to_string(msg.hops));
    }
    if (msg.hops > 0) {
      StatusOr<ActorRef> next = ctx.system().Find(next_);
      if (next.ok()) {
        ctx.system().Tell(*next, RingMsg{msg.hops - 1}, ctx.self());
      }
    }
    return Status::Ok();
  }

 private:
  std::string name_;
  std::string next_;
  std::mutex* mu_;
  std::vector<std::string>* log_;
};

struct RingRun {
  std::vector<std::string> deliveries;
  chk::ScheduleTrace trace;
  uint64_t trace_hash = 0;
};

/// Runs the 3-actor ring under a deterministic schedule: each actor gets an
/// initial 3-hop message, so three causal chains interleave freely.
RingRun RunRing(uint64_t seed, const chk::ScheduleTrace* replay = nullptr) {
  auto sched = replay == nullptr
                   ? std::make_shared<chk::DeterministicScheduler>(seed)
                   : std::make_shared<chk::DeterministicScheduler>(seed,
                                                                   *replay);
  ActorSystemConfig config;
  config.dispatcher = sched;
  config.throughput = 1;  // one message per drain → message-level schedules
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  ActorSystem system(config);

  std::mutex mu;
  std::vector<std::string> log;
  ActorRef a = *system.SpawnActor<RingActor>("a", "a", "b", &mu, &log);
  ActorRef b = *system.SpawnActor<RingActor>("b", "b", "c", &mu, &log);
  ActorRef c = *system.SpawnActor<RingActor>("c", "c", "a", &mu, &log);

  system.Tell(a, RingMsg{3});
  system.Tell(b, RingMsg{3});
  system.Tell(c, RingMsg{3});
  system.AwaitQuiescence();

  RingRun run;
  {
    std::lock_guard<std::mutex> lock(mu);
    run.deliveries = log;
  }
  run.trace = sched->Trace();
  run.trace_hash = sched->TraceHash();
  system.Shutdown();
  return run;
}

TEST(DeterministicSchedulerTest, SameSeedYieldsIdenticalDeliveryTrace) {
  const RingRun first = RunRing(42);
  const RingRun second = RunRing(42);
  EXPECT_EQ(first.deliveries, second.deliveries);
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  ASSERT_EQ(first.trace.size(), second.trace.size());
  for (size_t i = 0; i < first.trace.size(); ++i) {
    EXPECT_EQ(first.trace[i].chosen, second.trace[i].chosen) << "step " << i;
    EXPECT_EQ(first.trace[i].ready, second.trace[i].ready) << "step " << i;
    EXPECT_EQ(first.trace[i].label, second.trace[i].label) << "step " << i;
  }
}

TEST(DeterministicSchedulerTest, DistinctSeedsExploreDistinctInterleavings) {
  std::set<uint64_t> schedule_hashes;
  std::set<std::vector<std::string>> delivery_orders;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const RingRun run = RunRing(seed);
    schedule_hashes.insert(run.trace_hash);
    delivery_orders.insert(run.deliveries);
  }
  // Three concurrent 4-hop chains give hundreds of legal interleavings; 50
  // seeds must surface a healthy sample of them.
  EXPECT_GE(schedule_hashes.size(), 5u);
  EXPECT_GE(delivery_orders.size(), 5u);
}

TEST(DeterministicSchedulerTest, FiftySeedSweepPreservesActorInvariants) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const RingRun run = RunRing(seed);
    // Every schedule delivers all 12 messages (3 kicks × 4 hops each),
    // exactly 4 per actor, and each actor's hop values from one chain
    // decrease — per-sender FIFO order survives any interleaving.
    EXPECT_EQ(run.deliveries.size(), 12u) << "seed " << seed;
    int per_actor[3] = {0, 0, 0};
    for (const std::string& d : run.deliveries) {
      ASSERT_GE(d.size(), 3u);
      per_actor[d[0] - 'a']++;
    }
    EXPECT_EQ(per_actor[0], 4) << "seed " << seed;
    EXPECT_EQ(per_actor[1], 4) << "seed " << seed;
    EXPECT_EQ(per_actor[2], 4) << "seed " << seed;
  }
}

TEST(DeterministicSchedulerTest, ReplayReproducesFailingSchedule) {
  // Treat "actor a's kick is not the first delivery" as the injected
  // failure; hunt a seed whose schedule triggers it, then replay the
  // recorded trace under a different seed and assert it re-fails
  // identically.
  auto fails = [](const RingRun& run) {
    return !run.deliveries.empty() && run.deliveries.front()[0] != 'a';
  };
  bool found = false;
  for (uint64_t seed = 0; seed < 64 && !found; ++seed) {
    const RingRun run = RunRing(seed);
    if (!fails(run)) continue;
    found = true;
    const RingRun replayed = RunRing(/*seed=*/0xDEADBEEF, &run.trace);
    EXPECT_TRUE(fails(replayed)) << "replayed schedule did not re-fail";
    EXPECT_EQ(replayed.deliveries, run.deliveries);
    EXPECT_EQ(replayed.trace_hash, run.trace_hash);
  }
  // The first decision picks among 3 ready kicks, so ~2/3 of seeds fail.
  EXPECT_TRUE(found) << "no failing schedule in 64 seeds";
}

/// Ring actor that crashes (returns a failure status, triggering the
/// supervisor's restart path) on odd hop counts — after logging and
/// forwarding, so every causal chain still completes.
class CrashyRingActor : public Actor {
 public:
  CrashyRingActor(std::string name, std::string next, std::mutex* mu,
                  std::vector<std::string>* log)
      : name_(std::move(name)), next_(std::move(next)), mu_(mu), log_(log) {}

  Status Receive(const std::any& message, ActorContext& ctx) override {
    const RingMsg msg = std::any_cast<RingMsg>(message);
    {
      std::lock_guard<std::mutex> lock(*mu_);
      log_->push_back(name_ + ":" + std::to_string(msg.hops));
    }
    if (msg.hops > 0) {
      StatusOr<ActorRef> next = ctx.system().Find(next_);
      if (next.ok()) {
        ctx.system().Tell(*next, RingMsg{msg.hops - 1}, ctx.self());
      }
    }
    if (msg.hops % 2 == 1) return Status::Internal("crash on odd hop");
    return Status::Ok();
  }

  void OnRestart(const Status& failure) override {
    std::lock_guard<std::mutex> lock(*mu_);
    log_->push_back(name_ + ":restart:" + std::string(failure.message()));
  }

 private:
  std::string name_;
  std::string next_;
  std::mutex* mu_;
  std::vector<std::string>* log_;
};

/// Like RunRing, but actor "b" is crashy: its failures route through the
/// supervisor, whose restart handling executes under the same deterministic
/// schedule as ordinary deliveries.
RingRun RunCrashyRing(uint64_t seed) {
  auto sched = std::make_shared<chk::DeterministicScheduler>(seed);
  ActorSystemConfig config;
  config.dispatcher = sched;
  config.throughput = 1;
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  ActorSystem system(config);

  std::mutex mu;
  std::vector<std::string> log;
  ActorRef a = *system.SpawnActor<RingActor>("a", "a", "b", &mu, &log);
  ActorRef b = *system.SpawnActor<CrashyRingActor>("b", "b", "c", &mu, &log);
  ActorRef c = *system.SpawnActor<RingActor>("c", "c", "a", &mu, &log);

  system.Tell(a, RingMsg{3});
  system.Tell(b, RingMsg{3});
  system.Tell(c, RingMsg{3});
  system.AwaitQuiescence();

  RingRun run;
  {
    std::lock_guard<std::mutex> lock(mu);
    run.deliveries = log;
  }
  run.trace = sched->Trace();
  run.trace_hash = sched->TraceHash();
  system.Shutdown();
  return run;
}

TEST(DeterministicSchedulerTest, RestartedChildReplaysToSameTraceHash) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const RingRun first = RunCrashyRing(seed);
    const RingRun second = RunCrashyRing(seed);
    // Determinism must survive the failure path: same seed → identical
    // delivery log (including restart events at the same positions) and
    // identical FNV schedule hash.
    EXPECT_EQ(first.deliveries, second.deliveries) << "seed " << seed;
    EXPECT_EQ(first.trace_hash, second.trace_hash) << "seed " << seed;

    // b sees hops {3, 2, 1, 0} across the three chains: the two odd hop
    // counts crash it, so every schedule restarts b exactly twice and all
    // 12 ring deliveries still happen.
    int restarts = 0;
    int deliveries = 0;
    for (const std::string& entry : first.deliveries) {
      if (entry.find(":restart:") != std::string::npos) {
        ++restarts;
      } else {
        ++deliveries;
      }
    }
    EXPECT_EQ(restarts, 2) << "seed " << seed;
    EXPECT_EQ(deliveries, 12) << "seed " << seed;
  }

  // The failure path must not collapse schedule diversity either.
  std::set<uint64_t> hashes;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    hashes.insert(RunCrashyRing(seed).trace_hash);
  }
  EXPECT_GE(hashes.size(), 3u);
}

TEST(DeterministicSchedulerTest, StandaloneTaskOrderIsSeedDriven) {
  auto run_once = [](uint64_t seed) {
    chk::DeterministicScheduler sched(seed);
    std::vector<int> order;
    for (int i = 0; i < 6; ++i) {
      sched.Submit(DispatchTask{[&order, i] { order.push_back(i); },
                                "task" + std::to_string(i)});
    }
    sched.Quiesce();
    return order;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  std::set<std::vector<int>> orders;
  for (uint64_t seed = 0; seed < 20; ++seed) orders.insert(run_once(seed));
  EXPECT_GE(orders.size(), 5u);  // 6! = 720 permutations to sample from
}

TEST(DeterministicSchedulerTest, FingerprintOnlyModeKeepsTraceHash) {
  // Long runs (full-pipeline replays) turn off per-decision recording; the
  // incremental fingerprint must equal the recorded run's hash bit for bit.
  chk::DeterministicScheduler recorded(11);
  chk::DeterministicScheduler bare(11);
  bare.DisableTraceRecording();
  for (int i = 0; i < 16; ++i) {
    recorded.Submit(DispatchTask{[] {}, "task" + std::to_string(i)});
    bare.Submit(DispatchTask{[] {}, "task" + std::to_string(i)});
  }
  recorded.Quiesce();
  bare.Quiesce();
  EXPECT_EQ(recorded.TraceHash(), bare.TraceHash());
  EXPECT_EQ(recorded.StepCount(), bare.StepCount());
  EXPECT_EQ(recorded.Trace().size(), 16u);
  EXPECT_TRUE(bare.Trace().empty());
}

TEST(DeterministicSchedulerTest, RejectsSubmitAfterShutdown) {
  chk::DeterministicScheduler sched(1);
  int ran = 0;
  EXPECT_TRUE(sched.Submit(DispatchTask{[&ran] { ++ran; }, "t"}));
  sched.Shutdown();
  EXPECT_EQ(ran, 1);  // Shutdown drains before rejecting new work
  EXPECT_FALSE(sched.Submit(DispatchTask{[&ran] { ++ran; }, "late"}));
  EXPECT_EQ(ran, 1);
}

}  // namespace
}  // namespace marlin
