// RecoverySupervisor — the closed detect -> select -> verify ->
// reconfigure -> resume loop the paper's title promises.
//
// The supervisor runs an apps::AppSpec solver under a declarative
// FailureSchedule and drives recovery automatically:
//
//   detect       group.run returns without completing (kill switch, node
//                loss via the RC protocol, or task errors)
//   select       checkpoint_catalog::restart_candidates, newest first
//   verify       deep CRC verification of the newest candidate; torn or
//                corrupt generations are skipped (generation fallback),
//                suspect generations from a failed restore are rolled
//                past (escalating SOP rollback)
//   reconfigure  a pluggable ReconfigurationPolicy picks t2 from the
//                surviving processors (SPMD checkpoints pin t2 == t1)
//   resume       relaunch the task group from the chosen generation and
//                continue until the solver completes
//
// Restart storms are bounded: attempts are capped (max_launches) with
// exponential backoff between them, and a generation whose restore
// errored is marked suspect so the next attempt rolls back one SOP
// further. Retention (keep_last_k) trims superseded generations after
// every SOP so fallback depth stays bounded in storage. Every phase is
// traced through drms::obs ("recover" spans + counters) and timed on the
// host clock for the MTTR breakdown of BENCH_recovery.json.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/solver.hpp"
#include "arch/cluster.hpp"
#include "core/drms_context.hpp"
#include "obs/recorder.hpp"
#include "recovery/failure_schedule.hpp"
#include "recovery/reconfig_policy.hpp"
#include "store/fault_injection_backend.hpp"
#include "store/redundancy.hpp"
#include "svc/io_scheduler.hpp"

namespace drms::recovery {

/// Scope of one restart attempt. kFull bounces the whole job (every task
/// re-reads its sections from the generation); kPartial keeps the
/// surviving tasks' in-memory arrays — only the replaced tasks' sections
/// stream in from storage, and the live tasks redistribute in place.
enum class RestartScope { kFull, kPartial };

struct SupervisorOptions {
  /// Base solver options. `solver.prefix` is REQUIRED (the generation
  /// base name); the supervisor installs prefix_for_iteration over it, so
  /// checkpoints land under "<prefix>.g<iteration>".
  apps::SolverOptions solver;
  /// Environment template; `env.storage` is required. restart_prefix is
  /// managed by the supervisor.
  core::DrmsEnv env;
  std::string job_name = "job";
  int min_tasks = 1;
  int preferred_tasks = 4;
  /// Restart-storm cap: total task-group launches (first run included).
  int max_launches = 8;
  /// Retention depth: newest committed generations kept per SOP.
  int keep_last_k = 3;
  /// Localized recovery (DRMS mode only): capture a RetainedJobState
  /// snapshot at every checkpoint and, when a failure leaves some of the
  /// capturing slots alive, restart with RestartScope::kPartial — the
  /// replaced tasks read only their sections from the chosen generation
  /// while survivors keep their arrays and redistribute in place. A
  /// failed partial attempt falls back to a full restart of the SAME
  /// generation before any SOP rollback (ladder partial -> full ->
  /// generation fallback). Default off: behavior is bit-identical to the
  /// pre-partial supervisor.
  bool partial_restore = false;
  std::uint64_t seed = 1;
  /// Null: ShrinkToSurvivorsPolicy.
  const ReconfigurationPolicy* policy = nullptr;
  /// Exponential backoff base between launches (real time, like
  /// support::retry_io).
  std::chrono::microseconds backoff_base{50};
  /// Target of kTransientFaults schedule events (usually the same object
  /// as env.storage); null disables those events.
  store::FaultInjectionBackend* fault = nullptr;
  obs::Recorder* recorder = nullptr;
  /// Optional checkpoint-service scheduler. When set, the supervisor
  /// registers as a job, submits each deep verify as a RESTORE-class item
  /// (the most urgent class, dequeued ahead of queued drains and
  /// encodes), and holds a RestoreGuard from the start of verify until
  /// the relaunched solver's first iteration hook — background tier
  /// drains are parked for the whole bring-back-up window instead of
  /// contending with it. The restore itself, partial or full, reads on
  /// the restarting tasks.
  svc::IoScheduler* scheduler = nullptr;
  /// Fired after a kNodeLoss schedule event lands, with the failed node's
  /// id. Harness hook for coupling the cluster to a redundancy-encoded
  /// fast tier (RedundantBackend::fail_node + TieredBackend::
  /// reconcile_fast_tier), so the storage side of the node dies with the
  /// processor side.
  std::function<void(int node)> on_node_loss;
  /// When set, runs before the select phase of every restart: scavenge
  /// the redundancy-encoded fast tier so select sees rebuilt generations
  /// instead of falling back to the slow tier. Traced as a
  /// "recover"/"scavenge" span; the report feeds recover.scavenge.*
  /// counters.
  std::function<store::ScavengeReport()> scavenge;
};

/// Host-clock nanoseconds of one recovery, split by phase (the MTTR
/// breakdown). `resume_ns` runs from group launch to the first
/// on_iteration hook of the relaunched solver (restore + redistribution).
struct RecoveryPhases {
  std::uint64_t detect_ns = 0;
  std::uint64_t select_ns = 0;
  std::uint64_t verify_ns = 0;
  std::uint64_t reconfigure_ns = 0;
  std::uint64_t resume_ns = 0;
  /// The resume used RestartScope::kPartial.
  bool partial = false;

  [[nodiscard]] std::uint64_t total_ns() const {
    return detect_ns + select_ns + verify_ns + reconfigure_ns + resume_ns;
  }
};

struct LaunchReport {
  int tasks = 0;
  bool from_checkpoint = false;
  /// This launch restored with RestartScope::kPartial.
  bool partial = false;
  /// Simulated seconds of the restore that brought this launch up (valid
  /// for from_checkpoint launches that reached the solver; deterministic,
  /// unlike the host-clock RecoveryPhases).
  double restore_seconds = 0.0;
  std::string restart_prefix;  // empty for a fresh start
  std::int64_t restart_sop = 0;
  /// Committed candidates rejected before this launch (deep-verify
  /// failures and suspect generations).
  int generations_skipped = 0;
  bool completed = false;
  bool killed = false;
  std::string kill_reason;
  std::vector<std::string> errors;
};

struct RecoveryReport {
  bool completed = false;
  /// Solver outcome of the completing launch (valid when completed).
  apps::SolverOutcome outcome;
  std::vector<LaunchReport> launches;
  /// One entry per recovery (every launch after the first that ran).
  std::vector<RecoveryPhases> recoveries;
  /// Total committed candidates skipped across the run.
  int generation_fallbacks = 0;
  /// Restarts whose t2 differed from the checkpoint's t1.
  int reconfigurations = 0;

  [[nodiscard]] std::uint64_t total_recovery_ns() const {
    std::uint64_t total = 0;
    for (const auto& r : recoveries) {
      total += r.total_ns();
    }
    return total;
  }
};

class RecoverySupervisor {
 public:
  RecoverySupervisor(arch::Cluster& cluster, arch::EventLog* log = nullptr);

  /// Run the job to completion under the schedule. Blocking; returns when
  /// the solver finished or the launch budget is exhausted.
  RecoveryReport run(const SupervisorOptions& options,
                     const FailureSchedule& schedule = {});

  /// "base.g000042" — the per-SOP generation prefix.
  [[nodiscard]] static std::string generation_prefix(const std::string& base,
                                                     std::int64_t iteration);

 private:
  arch::Cluster& cluster_;
  arch::EventLog* log_;
};

}  // namespace drms::recovery
