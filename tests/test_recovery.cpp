// Tests for the recovery supervisor: reconfiguration policies, failure
// schedules, the detect -> select -> verify -> reconfigure -> resume loop,
// generation fallback past corrupt states, retention, SPMD task-count
// pinning, the launch budget, supervised jobs that lose a node of a
// redundant fast tier, and a reduced seeded chaos sweep. Every
// recovered run must reproduce the failure-free field fingerprint —
// the solver's numerics are distribution-invariant, so ONE baseline CRC
// covers every task count, storage backend and restart path.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "apps/solver.hpp"
#include "arch/cluster.hpp"
#include "core/checkpoint_catalog.hpp"
#include "obs/recorder.hpp"
#include "piofs/volume.hpp"
#include "recovery/failure_schedule.hpp"
#include "recovery/reconfig_policy.hpp"
#include "recovery/supervisor.hpp"
#include "rt/task_group.hpp"
#include "store/fault_injection_backend.hpp"
#include "store/memory_backend.hpp"
#include "store/piofs_backend.hpp"
#include "store/redundant_backend.hpp"
#include "store/tiered_backend.hpp"
#include "svc/drain_service.hpp"
#include "svc/io_scheduler.hpp"
#include "test_helpers.hpp"

namespace {

using namespace drms;
using namespace drms::recovery;
using drms::rt::TaskContext;
using drms::rt::TaskGroup;
using drms::test::placement_of;

constexpr core::Index kN = 8;
constexpr int kIterations = 12;
constexpr int kCheckpointEvery = 3;

/// SP with most of its inventory trimmed away: the recovery logic under
/// test does not depend on the full Table-4 data volume.
apps::AppSpec tiny_sp() {
  apps::AppSpec spec = apps::AppSpec::sp();
  spec.arrays.resize(2);
  spec.private_bytes = 4 * 1024;
  spec.system_bytes = 4 * 1024;
  spec.text_bytes = 4 * 1024;
  return spec;
}

apps::SolverOptions solver_options() {
  apps::SolverOptions o;
  o.spec = tiny_sp();
  o.n = kN;
  o.iterations = kIterations;
  o.checkpoint_every = kCheckpointEvery;
  o.prefix = "job";
  return o;
}

/// The failure-free fingerprint (computed once; distribution-invariant).
std::uint32_t baseline_crc() {
  static const std::uint32_t crc = [] {
    store::MemoryBackend storage;
    apps::SolverOptions o = solver_options();
    o.prefix.clear();
    core::DrmsEnv env;
    env.storage = &storage;
    auto program = apps::make_program(o, env, 4);
    std::uint32_t out = 0;
    TaskGroup group(placement_of(4));
    const auto run = group.run([&](TaskContext& ctx) {
      const auto outcome = apps::run_solver(*program, ctx, o);
      if (ctx.rank() == 0) {
        out = outcome.field_crc;
      }
    });
    EXPECT_TRUE(run.completed);
    return out;
  }();
  return crc;
}

sim::Machine machine_of(int nodes) {
  sim::Machine m;
  m.node_count = nodes;
  m.server_count = nodes;
  return m;
}

SupervisorOptions supervisor_options(store::StorageBackend& storage) {
  SupervisorOptions o;
  o.solver = solver_options();
  o.env.storage = &storage;
  o.preferred_tasks = 4;
  o.min_tasks = 1;
  return o;
}

FailureEvent kill_event(int launch, std::int64_t it) {
  FailureEvent e;
  e.kind = FailureKind::kKillPool;
  e.launch = launch;
  e.at_iteration = it;
  return e;
}

// ---- reconfiguration policies ----------------------------------------------

TEST(ReconfigPolicy, SameCountNeedsTheFullComplement) {
  SameCountPolicy p;
  ReconfigInput in;
  in.survivors = 4;
  in.checkpoint_tasks = 4;
  in.min_tasks = 1;
  in.preferred_tasks = 4;
  EXPECT_EQ(p.choose_tasks(in), 4);
  in.survivors = 3;  // one node short: refuse rather than shrink
  EXPECT_EQ(p.choose_tasks(in), 0);
  in.survivors = 8;
  in.checkpoint_tasks = 0;  // fresh start: fall back to preferred
  EXPECT_EQ(p.choose_tasks(in), 4);
}

TEST(ReconfigPolicy, ShrinkToSurvivorsTakesWhatIsLeft) {
  ShrinkToSurvivorsPolicy p;
  ReconfigInput in;
  in.survivors = 3;
  in.checkpoint_tasks = 4;
  in.min_tasks = 2;
  in.preferred_tasks = 4;
  EXPECT_EQ(p.choose_tasks(in), 3);
  in.survivors = 9;  // never above preferred
  EXPECT_EQ(p.choose_tasks(in), 4);
  in.survivors = 1;  // below the floor
  EXPECT_EQ(p.choose_tasks(in), 0);
}

TEST(ReconfigPolicy, PowerOfTwoRoundsDown) {
  PowerOfTwoPolicy p;
  ReconfigInput in;
  in.survivors = 7;
  in.checkpoint_tasks = 8;
  in.min_tasks = 1;
  in.preferred_tasks = 8;
  EXPECT_EQ(p.choose_tasks(in), 4);
  in.survivors = 8;
  EXPECT_EQ(p.choose_tasks(in), 8);
  in.min_tasks = 5;
  in.survivors = 7;  // largest power of two (4) under the floor
  EXPECT_EQ(p.choose_tasks(in), 0);
}

TEST(Recovery, GenerationPrefixIsZeroPadded) {
  EXPECT_EQ(RecoverySupervisor::generation_prefix("job", 3), "job.g000003");
  EXPECT_EQ(RecoverySupervisor::generation_prefix("job", 123456),
            "job.g123456");
  EXPECT_EQ(RecoverySupervisor::generation_prefix("a.b", 0), "a.b.g000000");
}

// ---- failure schedules ------------------------------------------------------

TEST(FailureScheduleTest, RandomIsDeterministicAndCyclesKinds) {
  ScheduleShape shape;
  shape.iterations = kIterations;
  shape.checkpoint_every = kCheckpointEvery;
  bool saw[5] = {};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const FailureSchedule a = FailureSchedule::random(seed, shape);
    const FailureSchedule b = FailureSchedule::random(seed, shape);
    EXPECT_EQ(a.describe(), b.describe()) << "seed " << seed;
    ASSERT_FALSE(a.events.empty());
    saw[seed % 5] = true;
    // Every event stays inside the run it targets.
    for (const auto& e : a.events) {
      EXPECT_GE(e.at_iteration, 0);
      EXPECT_LT(e.at_iteration, shape.iterations);
      EXPECT_TRUE(e.launch == 0 || e.launch == 1);
    }
    // Torn/corrupt primaries pair with a kill so the run actually restarts.
    if (a.has_kind(FailureKind::kTornNewest) ||
        a.has_kind(FailureKind::kCorruptNewest)) {
      EXPECT_TRUE(a.has_kind(FailureKind::kKillPool));
    }
  }
  for (bool s : saw) {
    EXPECT_TRUE(s);  // 5 consecutive seeds cover every failure class
  }
}

// ---- the supervisor loop ----------------------------------------------------

TEST(Recovery, CompletesWithoutFailures) {
  store::MemoryBackend storage;
  arch::Cluster cluster(machine_of(6), nullptr);
  RecoverySupervisor supervisor(cluster);
  const RecoveryReport report = supervisor.run(supervisor_options(storage));
  ASSERT_TRUE(report.completed);
  ASSERT_EQ(report.launches.size(), 1u);
  EXPECT_FALSE(report.launches[0].from_checkpoint);
  EXPECT_EQ(report.launches[0].tasks, 4);
  EXPECT_TRUE(report.recoveries.empty());
  EXPECT_EQ(report.outcome.field_crc, baseline_crc());
}

TEST(Recovery, RecoversFromAKilledRun) {
  store::MemoryBackend storage;
  arch::EventLog log;
  arch::Cluster cluster(machine_of(6), &log);
  obs::Recorder recorder;
  RecoverySupervisor supervisor(cluster, &log);
  SupervisorOptions o = supervisor_options(storage);
  o.recorder = &recorder;
  FailureSchedule schedule;
  schedule.events.push_back(kill_event(0, 5));

  const RecoveryReport report = supervisor.run(o, schedule);
  ASSERT_TRUE(report.completed);
  ASSERT_EQ(report.launches.size(), 2u);
  EXPECT_TRUE(report.launches[0].killed);
  EXPECT_TRUE(report.launches[1].from_checkpoint);
  EXPECT_GT(report.launches[1].restart_sop, 0);
  EXPECT_EQ(report.outcome.field_crc, baseline_crc());

  // One recovery, with its MTTR phase record.
  ASSERT_EQ(report.recoveries.size(), 1u);
  EXPECT_GT(report.recoveries[0].total_ns(), 0u);
  EXPECT_GT(report.recoveries[0].resume_ns, 0u);

  // The loop's phases landed in the trace and the protocol in the log.
  EXPECT_GE(recorder.counter("recover.detected"), 1u);
  EXPECT_GE(recorder.counter("recover.completed"), 1u);
  EXPECT_TRUE(log.contains(arch::EventKind::kJobRestarted));
  EXPECT_TRUE(log.contains(arch::EventKind::kJobCompleted));
}

TEST(Recovery, NodeLossForcesReconfiguration) {
  // A machine with NO spare nodes: losing one forces t2 < t1.
  store::MemoryBackend storage;
  arch::EventLog log;
  arch::Cluster cluster(machine_of(4), &log);
  RecoverySupervisor supervisor(cluster, &log);
  SupervisorOptions o = supervisor_options(storage);
  FailureSchedule schedule;
  FailureEvent e;
  e.kind = FailureKind::kNodeLoss;
  e.launch = 0;
  e.at_iteration = 5;
  e.node_ordinal = 2;
  schedule.events.push_back(e);

  const RecoveryReport report = supervisor.run(o, schedule);
  ASSERT_TRUE(report.completed);
  ASSERT_EQ(report.launches.size(), 2u);
  EXPECT_EQ(report.launches[0].tasks, 4);
  EXPECT_EQ(report.launches[1].tasks, 3);
  EXPECT_EQ(report.reconfigurations, 1);
  EXPECT_TRUE(log.contains(arch::EventKind::kReconfigured));
  EXPECT_TRUE(log.contains(arch::EventKind::kTcLost));
  EXPECT_EQ(report.outcome.field_crc, baseline_crc());
}

TEST(Recovery, CorruptNewestGenerationFallsBack) {
  store::MemoryBackend storage;
  arch::EventLog log;
  arch::Cluster cluster(machine_of(6), &log);
  RecoverySupervisor supervisor(cluster, &log);
  SupervisorOptions o = supervisor_options(storage);
  FailureSchedule schedule;
  FailureEvent e;
  e.kind = FailureKind::kCorruptNewest;
  e.launch = 0;
  e.at_iteration = 6;  // right after the SOP at it=6 committed
  schedule.events.push_back(e);
  schedule.events.push_back(kill_event(0, 6));

  const RecoveryReport report = supervisor.run(o, schedule);
  ASSERT_TRUE(report.completed);
  EXPECT_GE(report.generation_fallbacks, 1);
  EXPECT_TRUE(log.contains(arch::EventKind::kGenerationFallback));
  ASSERT_EQ(report.launches.size(), 2u);
  // The corrupt g000006 was skipped; the restart came from g000003.
  EXPECT_EQ(report.launches[1].restart_prefix, "job.g000003");
  EXPECT_EQ(report.outcome.field_crc, baseline_crc());
}

TEST(Recovery, TornNewestGenerationIsNotACandidate) {
  store::MemoryBackend storage;
  arch::Cluster cluster(machine_of(6), nullptr);
  RecoverySupervisor supervisor(cluster);
  SupervisorOptions o = supervisor_options(storage);
  FailureSchedule schedule;
  FailureEvent e;
  e.kind = FailureKind::kTornNewest;
  e.launch = 0;
  e.at_iteration = 6;
  schedule.events.push_back(e);
  schedule.events.push_back(kill_event(0, 6));

  const RecoveryReport report = supervisor.run(o, schedule);
  ASSERT_TRUE(report.completed);
  ASSERT_EQ(report.launches.size(), 2u);
  // The decommitted g000006 never appears in the catalog: no fallback is
  // counted, the catalog's commit check already excluded it.
  EXPECT_EQ(report.launches[1].restart_prefix, "job.g000003");
  EXPECT_EQ(report.outcome.field_crc, baseline_crc());
}

TEST(Recovery, TransientFaultsAreAbsorbedWithoutARestart) {
  store::MemoryBackend inner;
  store::FaultInjectionBackend storage(inner);
  arch::Cluster cluster(machine_of(6), nullptr);
  RecoverySupervisor supervisor(cluster);
  SupervisorOptions o = supervisor_options(storage);
  o.fault = &storage;
  FailureSchedule schedule;
  FailureEvent e;
  e.kind = FailureKind::kTransientFaults;
  e.launch = 0;
  e.at_iteration = kCheckpointEvery;
  e.transient_count = 2;
  schedule.events.push_back(e);

  const RecoveryReport report = supervisor.run(o, schedule);
  ASSERT_TRUE(report.completed);
  EXPECT_EQ(report.launches.size(), 1u);  // retry_io absorbed the faults
  EXPECT_GE(storage.faults_injected(), 2u);
  EXPECT_EQ(report.outcome.field_crc, baseline_crc());
}

TEST(Recovery, RetentionBoundsTheGenerationCount) {
  store::MemoryBackend storage;
  arch::Cluster cluster(machine_of(6), nullptr);
  RecoverySupervisor supervisor(cluster);
  SupervisorOptions o = supervisor_options(storage);
  o.keep_last_k = 2;
  const RecoveryReport report = supervisor.run(o);
  ASSERT_TRUE(report.completed);
  // SOPs at it=3,6,9 wrote three generations; retention kept the last 2.
  const auto kept = core::restart_candidates(storage, o.solver.spec.name,
                                             o.solver.prefix + ".g");
  EXPECT_LE(kept.size(), 2u);
  EXPECT_FALSE(kept.empty());
}

TEST(Recovery, SpmdRestartPinsTheTaskCount) {
  // Spare nodes available, but SPMD state restores only onto t2 == t1.
  store::MemoryBackend storage;
  arch::Cluster cluster(machine_of(8), nullptr);
  RecoverySupervisor supervisor(cluster);
  SupervisorOptions o = supervisor_options(storage);
  o.env.mode = core::CheckpointMode::kSpmd;
  FailureSchedule schedule;
  schedule.events.push_back(kill_event(0, 5));

  const RecoveryReport report = supervisor.run(o, schedule);
  ASSERT_TRUE(report.completed);
  ASSERT_EQ(report.launches.size(), 2u);
  EXPECT_TRUE(report.launches[1].from_checkpoint);
  EXPECT_EQ(report.launches[1].tasks, report.launches[0].tasks);
  EXPECT_EQ(report.reconfigurations, 0);
  EXPECT_EQ(report.outcome.field_crc, baseline_crc());
}

TEST(Recovery, GivesUpWhenTheLaunchBudgetIsExhausted) {
  store::MemoryBackend storage;
  arch::EventLog log;
  arch::Cluster cluster(machine_of(6), &log);
  RecoverySupervisor supervisor(cluster, &log);
  SupervisorOptions o = supervisor_options(storage);
  o.max_launches = 3;
  o.backoff_base = std::chrono::microseconds(1);
  FailureSchedule schedule;
  for (int launch = 0; launch < 3; ++launch) {
    schedule.events.push_back(kill_event(launch, 1));
  }

  const RecoveryReport report = supervisor.run(o, schedule);
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.launches.size(), 3u);
  for (const auto& l : report.launches) {
    EXPECT_TRUE(l.killed);
  }
  EXPECT_TRUE(log.contains(arch::EventKind::kRecoveryGaveUp));
}

// ---- supervised jobs on the redundant fast tier ----------------------------

/// A supervised SP job on TieredBackend(RedundantBackend, PIOFS). After
/// every SOP the new generation is encoded and then drained through the
/// IoScheduler, which the supervisor also runs its verify and restore
/// guard on, and one node is lost after the first SOP. The lost slot must
/// come back from the fast tier alone: one partial recovery, the
/// failure-free fingerprint, and not one slow-tier read.
void expect_partial_recovery_from_the_fast_tier(
    store::RedundancyScheme scheme) {
  constexpr int kNodes = 4;  // a multiple of both group sizes
  arch::Cluster cluster(machine_of(kNodes), nullptr);
  piofs::Volume volume(4);
  store::PiofsBackend slow(volume);
  store::RedundantBackend fast(kNodes, scheme);
  store::TieredBackend tiered(fast, slow);
  svc::IoScheduler io;
  const svc::JobToken protect = io.register_job("job.protect");
  SameCountPolicy policy;

  SupervisorOptions o = supervisor_options(tiered);
  // Padding past one copy chunk, so the segment streams in several chunks
  // and most of it is zero blocks.
  o.solver.spec.private_bytes = 2 * 1024 * 1024 + 123;
  o.preferred_tasks = 2;
  o.partial_restore = true;
  o.policy = &policy;
  o.backoff_base = std::chrono::microseconds(1);
  o.scheduler = &io;
  int protected_sops = 0;
  o.solver.on_iteration = [&](std::int64_t it, TaskContext& ctx) {
    if (ctx.rank() != 0 || it % kCheckpointEvery != 0) {
      return;
    }
    const svc::EncodeTicket encode = svc::submit_encode(io, protect, fast);
    io.barrier(protect);
    const svc::DrainTicket drain = svc::submit_drain(io, protect, tiered);
    io.barrier(protect);
    if (encode.wait().files_encoded > 0 && drain.wait().files_drained > 0) {
      ++protected_sops;
    }
  };
  o.on_node_loss = [&](int node) {
    fast.fail_node(node % kNodes);
    tiered.reconcile_fast_tier();
  };
  o.scavenge = [&] { return fast.scavenge(); };

  FailureSchedule schedule;
  FailureEvent loss;
  loss.kind = FailureKind::kNodeLoss;
  loss.launch = 0;
  loss.at_iteration = kCheckpointEvery + 1;  // after the first SOP
  loss.node_ordinal = 1;
  schedule.events.push_back(loss);

  RecoverySupervisor supervisor(cluster);
  const RecoveryReport report = supervisor.run(o, schedule);
  ASSERT_TRUE(report.completed) << scheme.describe();
  ASSERT_EQ(report.recoveries.size(), 1u) << scheme.describe();
  EXPECT_TRUE(report.recoveries[0].partial) << scheme.describe();
  EXPECT_EQ(report.outcome.field_crc, baseline_crc()) << scheme.describe();
  // xor(4) on four nodes cannot place a new fragment set after the loss,
  // so only the generation before it is sure to be protected.
  EXPECT_GE(protected_sops, 1) << scheme.describe();
  EXPECT_GT(volume.stats().bytes_written, 0u) << scheme.describe();
  EXPECT_EQ(volume.stats().read_ops, 0u) << scheme.describe();
  // The scheduler's RESTORE class carried the supervisor's deep verifies
  // (one per recovery, plus one per generation it fell back past) and
  // nothing else: the partial restore reads on the restarting tasks.
  EXPECT_EQ(io.class_stats(svc::Priority::kRestore).submitted,
            report.recoveries.size() +
                static_cast<std::size_t>(report.generation_fallbacks))
      << scheme.describe();
}

TEST(Recovery, PartnerTierRecoversALostNodeWithoutSlowReads) {
  expect_partial_recovery_from_the_fast_tier(
      store::RedundancyScheme{store::RedundancyKind::kPartner, 2});
}

TEST(Recovery, XorTierRecoversALostNodeWithoutSlowReads) {
  expect_partial_recovery_from_the_fast_tier(
      store::RedundancyScheme{store::RedundancyKind::kXor, 4});
}

// ---- reduced seeded chaos sweep (the full campaign lives in
// bench_availability_model --chaos) -------------------------------------------

TEST(Recovery, SeededChaosSweepReproducesTheBaseline) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    ScheduleShape shape;
    shape.iterations = kIterations;
    shape.checkpoint_every = kCheckpointEvery;
    const FailureSchedule schedule = FailureSchedule::random(seed, shape);

    store::MemoryBackend inner;
    store::FaultInjectionBackend storage(inner);
    arch::Cluster cluster(machine_of(seed % 2 == 0 ? 4 : 6), nullptr);
    RecoverySupervisor supervisor(cluster);
    SupervisorOptions o = supervisor_options(storage);
    o.fault = &storage;
    o.seed = seed + 1;
    o.backoff_base = std::chrono::microseconds(1);

    const RecoveryReport report = supervisor.run(o, schedule);
    ASSERT_TRUE(report.completed)
        << "seed " << seed << " schedule " << schedule.describe();
    EXPECT_EQ(report.outcome.field_crc, baseline_crc())
        << "seed " << seed << " schedule " << schedule.describe();
  }
}

}  // namespace
