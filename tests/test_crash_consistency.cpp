// Crash-consistency tests for the two-phase commit protocol: a crash
// injected at EVERY storage-operation index during a checkpoint must
// leave the previous committed state as the restart candidate, with the
// torn attempt flagged by the fsck scan. Also covers torn (half-applied)
// writes and transient-fault retry.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/solver.hpp"
#include "arch/cluster.hpp"
#include "recovery/failure_schedule.hpp"
#include "recovery/supervisor.hpp"

#include "core/checkpoint_catalog.hpp"
#include "core/drms_checkpoint.hpp"
#include "core/drms_context.hpp"
#include "core/spmd_checkpoint.hpp"
#include "obs/instrumented_backend.hpp"
#include "obs/recorder.hpp"
#include "piofs/volume.hpp"
#include "rt/task_group.hpp"
#include "store/fault_injection_backend.hpp"
#include "store/memory_backend.hpp"
#include "store/piofs_backend.hpp"
#include "store/tiered_backend.hpp"
#include "test_helpers.hpp"

namespace {

using namespace drms::core;
using drms::store::FaultInjectionBackend;
using drms::rt::TaskContext;
using drms::rt::TaskGroup;
using drms::test::cube;
using drms::test::fill_assigned_tagged;
using drms::test::placement_of;

constexpr int kTasks = 2;
constexpr Index kN = 6;

AppSegmentModel tiny_segment() {
  AppSegmentModel m;
  m.static_local_bytes = 4 * 1024;
  m.system_bytes = 4 * 1024;
  return m;
}

enum class BackendKind { kMemory, kPiofs, kTiered };

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMemory: return "Memory";
    case BackendKind::kPiofs: return "Piofs";
    case BackendKind::kTiered: return "Tiered";
  }
  return "?";
}

/// A fresh storage stack with the fault decorator on top — the engines
/// only ever see `fault`.
struct Stack {
  std::unique_ptr<drms::piofs::Volume> volume;
  std::unique_ptr<drms::store::PiofsBackend> piofs;
  std::unique_ptr<drms::store::MemoryBackend> memory;
  std::unique_ptr<drms::store::TieredBackend> tiered;
  std::unique_ptr<FaultInjectionBackend> fault;
};

Stack make_stack(BackendKind kind) {
  Stack s;
  drms::store::StorageBackend* inner = nullptr;
  switch (kind) {
    case BackendKind::kMemory:
      s.memory = std::make_unique<drms::store::MemoryBackend>();
      inner = s.memory.get();
      break;
    case BackendKind::kPiofs:
      s.volume = std::make_unique<drms::piofs::Volume>(4);
      s.piofs = std::make_unique<drms::store::PiofsBackend>(*s.volume);
      inner = s.piofs.get();
      break;
    case BackendKind::kTiered:
      s.volume = std::make_unique<drms::piofs::Volume>(4);
      s.piofs = std::make_unique<drms::store::PiofsBackend>(*s.volume);
      s.memory = std::make_unique<drms::store::MemoryBackend>();
      s.tiered = std::make_unique<drms::store::TieredBackend>(*s.memory,
                                                              *s.piofs);
      inner = s.tiered.get();
      break;
  }
  s.fault = std::make_unique<FaultInjectionBackend>(*inner);
  return s;
}

/// One full checkpoint attempt through the public engine API. Returns the
/// group outcome: `completed == false` when an injected fault killed it.
auto attempt_checkpoint(drms::store::StorageBackend& storage,
                        CheckpointMode mode, const std::string& prefix,
                        std::int64_t sop) {
  TaskGroup group(placement_of(kTasks));
  DistArray array("u", cube(kN), sizeof(double), kTasks);
  return group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(
          DistSpec::block_auto(cube(kN), kTasks, std::vector<Index>(3, 0)));
    }
    ctx.barrier();
    fill_assigned_tagged(array, ctx.rank());
    ctx.barrier();

    std::int64_t it = sop;
    ReplicatedStore store;
    store.register_i64("it", &it);
    const std::array<DistArray*, 1> arrays{&array};
    if (mode == CheckpointMode::kDrms) {
      DrmsCheckpoint engine(storage, {});
      (void)engine.write(ctx, prefix, "sweep", sop, store, arrays,
                         tiny_segment());
    } else {
      SpmdCheckpoint engine(storage, {});
      (void)engine.write(ctx, prefix, "sweep", sop, store, arrays,
                         tiny_segment());
    }
  });
}

/// Count the mutations of one checkpoint under prefix B on a stack that
/// already holds a committed state under prefix A (the sweep scenario).
std::uint64_t mutation_count(CheckpointMode mode, BackendKind kind) {
  Stack s = make_stack(kind);
  EXPECT_TRUE(attempt_checkpoint(*s.fault, mode, "sweep.a", 1).completed);
  const std::uint64_t after_a = s.fault->mutation_ops();
  EXPECT_TRUE(attempt_checkpoint(*s.fault, mode, "sweep.b", 2).completed);
  return s.fault->mutation_ops() - after_a;
}

/// Crash index `i` of the B attempt; then check the recovery invariants:
/// the committed state A is the restart candidate, and fsck flags B as
/// torn whenever the crash left any of B's files behind.
void crash_at_and_check(CheckpointMode mode, BackendKind kind,
                        std::uint64_t i,
                        FaultInjectionBackend::CrashStyle style) {
  SCOPED_TRACE(std::string(to_string(kind)) + " crash index " +
               std::to_string(i));
  Stack s = make_stack(kind);
  ASSERT_TRUE(attempt_checkpoint(*s.fault, mode, "sweep.a", 1).completed);

  s.fault->arm_crash(i, style);
  const auto result = attempt_checkpoint(*s.fault, mode, "sweep.b", 2);
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(s.fault->crashed());
  s.fault->disarm();

  // Restart selects the last COMMITTED state.
  const auto latest = latest_checkpoint(*s.fault, "sweep");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->prefix, "sweep.a");
  EXPECT_EQ(latest->meta.sop, 1);

  // ...and the interrupted attempt is never offered as a candidate.
  for (const auto& record : list_checkpoints(*s.fault)) {
    EXPECT_NE(record.prefix, "sweep.b");
  }

  // fsck: A committed, B torn (when the crash left files behind at all).
  const bool b_has_files = !s.fault->list("sweep.b").empty();
  bool b_torn = false;
  for (const auto& state : fsck_scan(*s.fault)) {
    if (state.prefix == "sweep.b") {
      EXPECT_FALSE(state.committed);
      EXPECT_FALSE(state.reclaimable.empty());
      b_torn = true;
    } else if (state.prefix == "sweep.a") {
      EXPECT_TRUE(state.committed) << (state.problems.empty()
                                           ? ""
                                           : state.problems.front());
    }
  }
  EXPECT_EQ(b_torn, b_has_files);

  // gc reclaims the torn files; A survives and stays restartable.
  const int removed = gc_torn_states(*s.fault);
  if (b_has_files) {
    EXPECT_GT(removed, 0);
  }
  EXPECT_TRUE(s.fault->list("sweep.b").empty());
  const auto after_gc = latest_checkpoint(*s.fault, "sweep");
  ASSERT_TRUE(after_gc.has_value());
  EXPECT_EQ(after_gc->prefix, "sweep.a");
}

class CrashSweep
    : public ::testing::TestWithParam<std::pair<CheckpointMode, BackendKind>> {
};

TEST_P(CrashSweep, EveryCrashIndexRecoversToCommittedState) {
  const auto [mode, kind] = GetParam();
  const std::uint64_t n = mutation_count(mode, kind);
  ASSERT_GT(n, 0u);
  for (std::uint64_t i = 0; i < n; ++i) {
    crash_at_and_check(mode, kind, i,
                       FaultInjectionBackend::CrashStyle::kStop);
  }
}

TEST_P(CrashSweep, TornFinalWriteLeavesStateUncommitted) {
  // The last mutation is the manifest publication; half-applying it must
  // not count as a commit.
  const auto [mode, kind] = GetParam();
  const std::uint64_t n = mutation_count(mode, kind);
  ASSERT_GT(n, 0u);
  crash_at_and_check(mode, kind, n - 1,
                     FaultInjectionBackend::CrashStyle::kTornWrite);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndBackends, CrashSweep,
    ::testing::Values(
        std::make_pair(CheckpointMode::kDrms, BackendKind::kMemory),
        std::make_pair(CheckpointMode::kDrms, BackendKind::kPiofs),
        std::make_pair(CheckpointMode::kDrms, BackendKind::kTiered),
        std::make_pair(CheckpointMode::kSpmd, BackendKind::kMemory),
        std::make_pair(CheckpointMode::kSpmd, BackendKind::kPiofs),
        std::make_pair(CheckpointMode::kSpmd, BackendKind::kTiered)),
    [](const auto& info) {
      return std::string(info.param.first == CheckpointMode::kDrms
                             ? "Drms"
                             : "Spmd") +
             to_string(info.param.second);
    });

TEST(FaultInjection, TransientFaultsAreRetriedToSuccess) {
  for (const CheckpointMode mode :
       {CheckpointMode::kDrms, CheckpointMode::kSpmd}) {
    Stack s = make_stack(BackendKind::kPiofs);
    s.fault->inject_transient_faults(3);
    const auto result = attempt_checkpoint(*s.fault, mode, "sweep.a", 1);
    EXPECT_TRUE(result.completed) << result.kill_reason;
    EXPECT_EQ(s.fault->faults_injected(), 3u);
    // The retried checkpoint is fully committed and verifiable.
    const auto records = list_checkpoints(*s.fault);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_TRUE(verify_checkpoint(*s.fault, records.front()).ok);
  }
}

TEST(FaultInjection, DeadBackendFailsEverythingUntilDisarmed) {
  Stack s = make_stack(BackendKind::kMemory);
  ASSERT_TRUE(
      attempt_checkpoint(*s.fault, CheckpointMode::kDrms, "sweep.a", 1)
          .completed);
  s.fault->arm_crash(0);
  EXPECT_FALSE(
      attempt_checkpoint(*s.fault, CheckpointMode::kDrms, "sweep.b", 2)
          .completed);
  // The node is gone: even reads fail now.
  EXPECT_THROW((void)s.fault->list(), drms::support::IoError);
  EXPECT_THROW((void)s.fault->exists("sweep.a.meta"),
               drms::support::IoError);
  s.fault->disarm();
  EXPECT_TRUE(s.fault->exists(meta_file_name("sweep.a")));
}

TEST(CrashTrace, PostCrashMutationCountMatchesInjectedOpIndex) {
  // Stack the trace recorder UNDER the fault injector: the instrumented
  // layer only sees operations the injector let through, so after a crash
  // armed at op index i the recorder's "store.mutation" counter is the
  // exact number of mutations that reached storage — i for a clean stop,
  // i + 1 for a torn write (the half-write lands in the inner backend
  // before the node dies).
  for (const CheckpointMode mode :
       {CheckpointMode::kDrms, CheckpointMode::kSpmd}) {
    const std::uint64_t n = mutation_count(mode, BackendKind::kMemory);
    ASSERT_GT(n, 1u);
    const std::pair<std::uint64_t, FaultInjectionBackend::CrashStyle>
        schedule[] = {
            {0, FaultInjectionBackend::CrashStyle::kStop},
            {n / 2, FaultInjectionBackend::CrashStyle::kStop},
            {n - 1, FaultInjectionBackend::CrashStyle::kStop},
            {n - 1, FaultInjectionBackend::CrashStyle::kTornWrite},
        };
    for (const auto& [index, style] : schedule) {
      SCOPED_TRACE(std::string(mode == CheckpointMode::kDrms ? "Drms"
                                                             : "Spmd") +
                   " crash index " + std::to_string(index) +
                   (style == FaultInjectionBackend::CrashStyle::kTornWrite
                        ? " torn"
                        : " stop"));
      drms::store::MemoryBackend inner;
      ASSERT_TRUE(
          attempt_checkpoint(inner, mode, "sweep.a", 1).completed);

      drms::obs::Recorder rec;
      drms::obs::InstrumentedBackend instrumented(inner, &rec, "mem");
      FaultInjectionBackend fault(instrumented);
      fault.arm_crash(index, style);
      EXPECT_FALSE(attempt_checkpoint(fault, mode, "sweep.b", 2).completed);
      EXPECT_TRUE(fault.crashed());

      const std::uint64_t expected =
          index +
          (style == FaultInjectionBackend::CrashStyle::kTornWrite ? 1 : 0);
      EXPECT_EQ(rec.counter("store.mutation"), expected);

      // The count is final: the dead (then disarmed) backend admits no
      // further mutations from this attempt.
      fault.disarm();
      EXPECT_EQ(rec.counter("store.mutation"), expected);
    }
  }
}

/// The kill switch fired while checkpoint_write is mid-flight (a real
/// asynchronous kill from a watcher thread, racing the engine's storage
/// mutations). Unlike the deterministic crash sweep, where the kill lands
/// inside the B attempt is timing-dependent; the invariant is not: the
/// previously committed generation A must stay restorable, and anything
/// the catalog offers as committed must survive deep verification.
void kill_mid_write_and_check(CheckpointMode mode, std::uint64_t wait_ops) {
  SCOPED_TRACE(std::string(mode == CheckpointMode::kDrms ? "Drms" : "Spmd") +
               " kill after mutation " + std::to_string(wait_ops));
  Stack s = make_stack(BackendKind::kMemory);
  ASSERT_TRUE(attempt_checkpoint(*s.fault, mode, "sweep.a", 1).completed);
  const std::uint64_t after_a = s.fault->mutation_ops();

  TaskGroup group(placement_of(kTasks));
  DistArray array("u", cube(kN), sizeof(double), kTasks);
  std::thread watcher([&] {
    while (s.fault->mutation_ops() < after_a + wait_ops) {
      std::this_thread::yield();
    }
    group.kill("injected kill during checkpoint_write");
  });
  (void)group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(
          DistSpec::block_auto(cube(kN), kTasks, std::vector<Index>(3, 0)));
    }
    ctx.barrier();
    fill_assigned_tagged(array, ctx.rank());
    ctx.barrier();
    std::int64_t it = 2;
    ReplicatedStore store;
    store.register_i64("it", &it);
    const std::array<DistArray*, 1> arrays{&array};
    if (mode == CheckpointMode::kDrms) {
      DrmsCheckpoint engine(*s.fault, {});
      (void)engine.write(ctx, "sweep.b", "sweep", 2, store, arrays,
                         tiny_segment());
    } else {
      SpmdCheckpoint engine(*s.fault, {});
      (void)engine.write(ctx, "sweep.b", "sweep", 2, store, arrays,
                         tiny_segment());
    }
  });
  watcher.join();

  // A stays committed and content-sound no matter where the kill landed.
  bool saw_a = false;
  for (const auto& record : list_checkpoints(*s.fault)) {
    EXPECT_TRUE(verify_checkpoint(*s.fault, record, /*deep=*/true).ok)
        << record.prefix;
    saw_a = saw_a || record.prefix == "sweep.a";
  }
  EXPECT_TRUE(saw_a);
  const auto latest = latest_checkpoint(*s.fault, "sweep");
  ASSERT_TRUE(latest.has_value());
  EXPECT_TRUE(latest->prefix == "sweep.a" || latest->prefix == "sweep.b");

  // A torn B (kill between its first file and the manifest) is fsck
  // debris; reclaiming it must leave A restartable.
  (void)gc_torn_states(*s.fault);
  const auto after_gc = latest_checkpoint(*s.fault, "sweep");
  ASSERT_TRUE(after_gc.has_value());
  EXPECT_TRUE(verify_checkpoint(*s.fault, *after_gc, /*deep=*/true).ok);
}

TEST(CrashSweepKillSwitch, KillDuringWriteLeavesPreviousGenerationGood) {
  for (const CheckpointMode mode :
       {CheckpointMode::kDrms, CheckpointMode::kSpmd}) {
    const std::uint64_t n = mutation_count(mode, BackendKind::kMemory);
    ASSERT_GT(n, 1u);
    for (const std::uint64_t wait_ops : {std::uint64_t{0}, n / 2, n - 1}) {
      kill_mid_write_and_check(mode, wait_ops);
    }
  }
}

/// Delta-commit crash sweep: a full base A commits, then a DELTA attempt
/// B (chained on A) crashes at an injected mutation index. The chain adds
/// write ordering of its own — payload blocks, framed index, then the
/// delta header LAST, before the usual meta/manifest publication — and
/// every crash point must degrade to "A restorable, B invisible".
struct DeltaSweepHarness {
  Stack stack;
  std::unique_ptr<DistArray> array;
  DeltaChainState chain;

  explicit DeltaSweepHarness(BackendKind kind) : stack(make_stack(kind)) {
    array = std::make_unique<DistArray>("u", cube(kN), sizeof(double),
                                        kTasks);
    array->enable_dirty_tracking();
  }

  auto attempt(const std::string& prefix, std::int64_t sop) {
    TaskGroup group(placement_of(kTasks));
    const bool first = !array->distributed();
    return group.run([&](TaskContext& ctx) {
      if (ctx.rank() == 0 && first) {
        array->install_distribution(DistSpec::block_auto(
            cube(kN), kTasks, std::vector<Index>(3, 0)));
      }
      ctx.barrier();
      if (first) {
        fill_assigned_tagged(*array, ctx.rank());
      } else {
        // Dirty one point per task: B stores a handful of blocks.
        const Slice& assigned = array->distribution().assigned(ctx.rank());
        std::vector<Index> p;
        for (int k = 0; k < assigned.rank(); ++k) {
          p.push_back(assigned.range(k).first());
        }
        array->local(ctx.rank()).set_f64(p, 1234.5 + sop);
      }
      ctx.barrier();

      std::int64_t it = sop;
      ReplicatedStore store;
      store.register_i64("it", &it);
      const std::array<DistArray*, 1> arrays{array.get()};
      DeltaOptions opts;
      opts.full_every_k = 4;
      opts.block_bytes = 512;
      DrmsCheckpoint engine(*stack.fault, {});
      (void)engine.write(ctx, prefix, "sweep", sop, store, arrays,
                         tiny_segment(), &opts, &chain);
    });
  }
};

std::uint64_t delta_mutation_count(BackendKind kind) {
  DeltaSweepHarness h(kind);
  EXPECT_TRUE(h.attempt("sweep.a", 1).completed);
  EXPECT_EQ(h.chain.last_kind, GenerationKind::kFull);
  const std::uint64_t after_a = h.stack.fault->mutation_ops();
  EXPECT_TRUE(h.attempt("sweep.b", 2).completed);
  EXPECT_EQ(h.chain.last_kind, GenerationKind::kDelta);
  return h.stack.fault->mutation_ops() - after_a;
}

void delta_crash_at_and_check(BackendKind kind, std::uint64_t i,
                              FaultInjectionBackend::CrashStyle style) {
  SCOPED_TRACE(std::string(to_string(kind)) + " delta crash index " +
               std::to_string(i));
  DeltaSweepHarness h(kind);
  ASSERT_TRUE(h.attempt("sweep.a", 1).completed);

  h.stack.fault->arm_crash(i, style);
  const auto result = h.attempt("sweep.b", 2);
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(h.stack.fault->crashed());
  h.stack.fault->disarm();

  // The chain never advanced past the committed base...
  ASSERT_EQ(h.chain.chain.size(), 1u);
  EXPECT_EQ(h.chain.chain.front(), "sweep.a");

  // ...the base is the restart candidate, the torn delta is invisible...
  const auto latest = latest_checkpoint(*h.stack.fault, "sweep");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->prefix, "sweep.a");
  for (const auto& record : list_checkpoints(*h.stack.fault)) {
    EXPECT_NE(record.prefix, "sweep.b");
  }

  // ...fsck flags whatever files the crash left behind, gc reclaims them,
  // and the base still deep-verifies afterwards.
  const bool b_has_files = !h.stack.fault->list("sweep.b").empty();
  bool b_torn = false;
  for (const auto& state : fsck_scan(*h.stack.fault)) {
    if (state.prefix == "sweep.b") {
      EXPECT_FALSE(state.committed);
      EXPECT_FALSE(state.reclaimable.empty());
      b_torn = true;
    }
  }
  EXPECT_EQ(b_torn, b_has_files);
  (void)gc_torn_states(*h.stack.fault);
  EXPECT_TRUE(h.stack.fault->list("sweep.b").empty());
  const auto after_gc = latest_checkpoint(*h.stack.fault, "sweep");
  ASSERT_TRUE(after_gc.has_value());
  EXPECT_TRUE(verify_checkpoint(*h.stack.fault, *after_gc, /*deep=*/true).ok);
}

class DeltaCrashSweep : public ::testing::TestWithParam<BackendKind> {};

TEST_P(DeltaCrashSweep, EveryCrashIndexRecoversToCommittedBase) {
  const BackendKind kind = GetParam();
  const std::uint64_t n = delta_mutation_count(kind);
  ASSERT_GT(n, 0u);
  for (std::uint64_t i = 0; i < n; ++i) {
    delta_crash_at_and_check(kind, i,
                             FaultInjectionBackend::CrashStyle::kStop);
  }
}

TEST_P(DeltaCrashSweep, TornFinalWriteLeavesDeltaUncommitted) {
  const BackendKind kind = GetParam();
  const std::uint64_t n = delta_mutation_count(kind);
  ASSERT_GT(n, 0u);
  delta_crash_at_and_check(kind, n - 1,
                           FaultInjectionBackend::CrashStyle::kTornWrite);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DeltaCrashSweep,
    ::testing::Values(BackendKind::kMemory, BackendKind::kPiofs,
                      BackendKind::kTiered),
    [](const auto& info) { return std::string(to_string(info.param)); });

// ---- partial-restore read-crash sweep ---------------------------------------
//
// A partial restart's bring-up window is READ-only: select reads the
// meta/commit records, verify deep-reads the chosen generation, and the
// replacement task streams its sections in while survivors adopt from
// memory. Killing the storage at EVERY read index inside that window must
// degrade to a clean full restart of the same generation — never to a
// corrupted resume or a dead supervisor.

namespace partial_sweep {

constexpr Index kFieldN = 8;
constexpr int kIterations = 12;
constexpr int kCheckpointEvery = 3;
constexpr int kPoolTasks = 4;

drms::apps::SolverOptions sweep_solver_options() {
  drms::apps::AppSpec spec = drms::apps::AppSpec::sp();
  spec.arrays.resize(2);
  spec.private_bytes = 4 * 1024;
  spec.system_bytes = 4 * 1024;
  spec.text_bytes = 4 * 1024;
  drms::apps::SolverOptions o;
  o.spec = spec;
  o.n = kFieldN;
  o.iterations = kIterations;
  o.checkpoint_every = kCheckpointEvery;
  o.prefix = "job";
  return o;
}

/// The failure-free fingerprint (distribution-invariant, computed once).
std::uint32_t sweep_baseline_crc() {
  static const std::uint32_t crc = [] {
    drms::store::MemoryBackend storage;
    drms::apps::SolverOptions o = sweep_solver_options();
    o.prefix.clear();
    drms::core::DrmsEnv env;
    env.storage = &storage;
    auto program = drms::apps::make_program(o, env, kPoolTasks);
    std::uint32_t out = 0;
    TaskGroup group(placement_of(kPoolTasks));
    const auto run = group.run([&](TaskContext& ctx) {
      const auto outcome = drms::apps::run_solver(*program, ctx, o);
      if (ctx.rank() == 0) {
        out = outcome.field_crc;
      }
    });
    EXPECT_TRUE(run.completed);
    return out;
  }();
  return crc;
}

struct SweepRun {
  drms::recovery::RecoveryReport report;
  /// Reads consumed by select + verify on the first recovery (the
  /// supervisor-thread sub-window a storage crash may not target: the
  /// sweep starts right after it).
  std::uint64_t verify_reads = 0;
  /// Reads from the first recovery's select start to the relaunched
  /// solver's first iteration (select + verify + restore).
  std::uint64_t window_reads = 0;
  std::uint64_t partial_attempts = 0;
  std::uint64_t partial_fallbacks = 0;
  std::uint64_t suspects_marked = 0;
  std::uint64_t survivor_read_bytes = 0;
};

/// One supervised node-loss run with the fault decorator under the
/// supervisor. `crash_read_index < 0` is the dry sizing pass; otherwise
/// the index-th read after the first recovery's select start dies and the
/// backend stays dead until the next recovery begins.
SweepRun run_with_read_crash(std::int64_t crash_read_index) {
  drms::store::MemoryBackend memory;
  FaultInjectionBackend fault(memory);
  drms::sim::Machine machine;
  machine.node_count = kPoolTasks;
  machine.server_count = kPoolTasks;
  drms::arch::Cluster cluster(machine, nullptr);
  drms::obs::Recorder recorder;
  drms::recovery::RecoverySupervisor supervisor(cluster);

  drms::recovery::SupervisorOptions o;
  o.solver = sweep_solver_options();
  o.env.storage = &fault;
  o.env.recorder = &recorder;
  o.preferred_tasks = kPoolTasks;
  o.min_tasks = 1;
  o.partial_restore = true;
  o.recorder = &recorder;
  o.fault = &fault;

  SweepRun out;
  int recoveries = 0;
  std::atomic<bool> first_recovery_started{false};
  std::atomic<bool> window_measured{false};

  // The scavenge hook runs on the supervisor thread before the select
  // phase of every restart — the exact boundary of the bring-up read
  // window, and the first point after a crash where the replacement
  // node's storage path is back (disarm).
  o.scavenge = [&]() -> drms::store::ScavengeReport {
    ++recoveries;
    if (recoveries == 1) {
      if (crash_read_index < 0) {
        // Sizing pass: replay select + verify by hand to split the
        // window, then reset the read counter (an unreachable crash
        // index) so window_reads counts from the real select start.
        const std::uint64_t before = fault.read_ops();
        for (const auto& c : drms::core::restart_candidates(
                 fault, o.solver.spec.name, o.solver.prefix + ".g")) {
          if (drms::core::verify_checkpoint(fault, c, /*deep=*/true).ok) {
            break;
          }
        }
        out.verify_reads = fault.read_ops() - before;
        fault.arm_read_crash(std::numeric_limits<std::uint64_t>::max());
      } else {
        fault.arm_read_crash(
            static_cast<std::uint64_t>(crash_read_index));
      }
      first_recovery_started.store(true);
    } else {
      fault.disarm();
    }
    return {};
  };
  // The supervisor chains this hook after its own: the first iteration of
  // the relaunched solver marks the end of the restore read window.
  o.solver.on_iteration = [&](std::int64_t, TaskContext& ctx) {
    if (ctx.rank() == 0 && first_recovery_started.load() &&
        !window_measured.exchange(true)) {
      out.window_reads = fault.read_ops();
    }
  };

  drms::recovery::FailureSchedule schedule;
  drms::recovery::FailureEvent loss;
  loss.kind = drms::recovery::FailureKind::kNodeLoss;
  loss.launch = 0;
  loss.at_iteration = 5;  // after the SOP-3 commit, before SOP 6
  loss.node_ordinal = 2;
  schedule.events.push_back(loss);

  out.report = supervisor.run(o, schedule);
  out.partial_attempts = recorder.counter("recover.partial.attempted");
  out.partial_fallbacks = recorder.counter("recover.partial.fallback_full");
  out.suspects_marked = recorder.counter("recover.suspect_marked");
  out.survivor_read_bytes =
      recorder.counter("recover.partial.survivor_read_bytes");
  return out;
}

TEST(CrashSweepPartialRestore, DryRunSizesTheRestoreReadWindow) {
  const SweepRun dry = run_with_read_crash(-1);
  ASSERT_TRUE(dry.report.completed);
  ASSERT_EQ(dry.report.launches.size(), 2u);
  EXPECT_TRUE(dry.report.launches[1].partial);
  EXPECT_EQ(dry.report.outcome.field_crc, sweep_baseline_crc());
  // The window splits into a non-empty verify sub-window followed by the
  // replacement task's restore reads.
  EXPECT_GT(dry.verify_reads, 0u);
  EXPECT_GT(dry.window_reads, dry.verify_reads);
  EXPECT_EQ(dry.survivor_read_bytes, 0u);
}

TEST(CrashSweepPartialRestore, EveryReadCrashFallsBackToAFullRestart) {
  const SweepRun dry = run_with_read_crash(-1);
  ASSERT_TRUE(dry.report.completed);
  ASSERT_GT(dry.window_reads, dry.verify_reads);

  for (std::uint64_t i = dry.verify_reads; i < dry.window_reads; ++i) {
    SCOPED_TRACE("read crash index " + std::to_string(i));
    const SweepRun run =
        run_with_read_crash(static_cast<std::int64_t>(i));

    // The job still finishes, and on the SAME generation: the fallback
    // ladder retries full scope before any SOP rollback.
    ASSERT_TRUE(run.report.completed);
    ASSERT_EQ(run.report.launches.size(), 3u);
    EXPECT_TRUE(run.report.launches[1].partial);
    EXPECT_FALSE(run.report.launches[1].completed);
    EXPECT_FALSE(run.report.launches[1].errors.empty());
    EXPECT_FALSE(run.report.launches[2].partial);
    EXPECT_TRUE(run.report.launches[2].from_checkpoint);
    EXPECT_EQ(run.report.launches[2].restart_prefix, "job.g000003");
    EXPECT_EQ(run.partial_attempts, 1u);
    EXPECT_EQ(run.partial_fallbacks, 1u);
    EXPECT_EQ(run.suspects_marked, 0u);

    // No survivor state corruption: survivors never read checkpoint
    // data, and the resumed field is bit-identical to the failure-free
    // baseline.
    EXPECT_EQ(run.survivor_read_bytes, 0u);
    EXPECT_EQ(run.report.outcome.field_crc, sweep_baseline_crc());
  }
}

}  // namespace partial_sweep

TEST(FaultInjection, MutationOpsCountsOnlyMutations) {
  Stack s = make_stack(BackendKind::kMemory);
  ASSERT_TRUE(
      attempt_checkpoint(*s.fault, CheckpointMode::kDrms, "sweep.a", 1)
          .completed);
  const std::uint64_t ops = s.fault->mutation_ops();
  EXPECT_GT(ops, 0u);
  // Reads, listings and size queries do not advance the counter.
  (void)s.fault->list();
  (void)s.fault->exists(meta_file_name("sweep.a"));
  (void)s.fault->file_size(meta_file_name("sweep.a"));
  (void)latest_checkpoint(*s.fault, "sweep");
  EXPECT_EQ(s.fault->mutation_ops(), ops);
}

}  // namespace
