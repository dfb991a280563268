#include "recovery/supervisor.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>

#include "adapt/controller.hpp"
#include "core/checkpoint_catalog.hpp"
#include "core/checkpoint_format.hpp"
#include "core/partial_restore.hpp"
#include "rt/task_group.hpp"
#include "support/error.hpp"

namespace drms::recovery {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  if (b <= a) {
    return 0;
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Newest committed generation of the app in the given layout, if any.
const core::CheckpointRecord* newest_of_layout(
    const std::vector<core::CheckpointRecord>& candidates, bool spmd) {
  for (const auto& c : candidates) {
    if (c.spmd == spmd) {
      return &c;
    }
  }
  return nullptr;
}

}  // namespace

RecoverySupervisor::RecoverySupervisor(arch::Cluster& cluster,
                                       arch::EventLog* log)
    : cluster_(cluster), log_(log) {}

std::string RecoverySupervisor::generation_prefix(const std::string& base,
                                                  std::int64_t iteration) {
  DRMS_EXPECTS(iteration >= 0);
  std::string digits = std::to_string(iteration);
  if (digits.size() < 6) {
    digits.insert(0, 6 - digits.size(), '0');
  }
  return base + ".g" + digits;
}

RecoveryReport RecoverySupervisor::run(const SupervisorOptions& options,
                                       const FailureSchedule& schedule_in) {
  // Determinism guard: fire order for same-iteration events is the
  // normalized (launch, at_iteration, insertion) order, never the
  // caller's construction order.
  FailureSchedule schedule = schedule_in;
  schedule.normalize();
  DRMS_EXPECTS_MSG(options.env.storage != nullptr,
                   "supervisor needs a storage backend");
  DRMS_EXPECTS_MSG(!options.solver.prefix.empty(),
                   "supervisor needs a checkpoint prefix");
  DRMS_EXPECTS(options.max_launches >= 1 && options.min_tasks >= 1 &&
               options.preferred_tasks >= options.min_tasks);

  static const ShrinkToSurvivorsPolicy kDefaultPolicy;
  const ReconfigurationPolicy& policy =
      options.policy != nullptr ? *options.policy : kDefaultPolicy;
  store::StorageBackend& storage = *options.env.storage;
  const std::string base = options.solver.prefix;
  const std::string filter = base + ".g";
  const std::string app = options.solver.spec.name;
  const bool spmd = options.env.mode == core::CheckpointMode::kSpmd;
  obs::Recorder* rec = options.recorder;

  // Checkpoint-service session (optional): the supervisor is one job of
  // the shared scheduler, so its verify reads queue at RESTORE priority.
  svc::IoScheduler* io = options.scheduler;
  svc::JobToken io_job;
  if (io != nullptr) {
    io_job = io->register_job(options.job_name + ".recovery");
  }

  RecoveryReport report;
  std::set<std::string> suspects;  // generations whose restore errored
  std::vector<char> fired(schedule.events.size(), 0);
  auto outcome_slot = std::make_shared<apps::SolverOutcome>();

  // ---- localized-recovery state ---------------------------------------------
  // The retained snapshot is (re)captured at every checkpoint of the
  // CURRENT launch and consulted when deciding the NEXT launch's scope;
  // slot indices are only meaningful for the launch that captured them,
  // so the snapshot is consumed (moved into a per-launch plan) or
  // invalidated at every scope decision.
  const bool partial_enabled = options.partial_restore && !spmd;
  core::RetainedJobState retained;
  std::vector<int> live_nodes;  // node id per slot of the current launch
  std::set<int> lost_slots;     // current launch's slots on failed nodes
  bool pool_killed = false;     // kKillPool: every slot's memory is gone
  bool force_full_next = false;  // failed partial attempt: retry full
  // Generations a chosen restore may still read (or re-read on a retry);
  // passed as gc pins from one selection to the NEXT, so retention can
  // never reclaim a generation mid-restore, nor the fallback target of a
  // failed launch while newer-but-corrupt generations occupy the
  // keep-newest slots. Lifetime is deliberately a full launch: dropping
  // the pin at the first post-restore SOP would let the between-attempt
  // retention pass (which runs before the next selection can re-pin)
  // retire the only generation the next attempt can actually verify.
  std::vector<std::string> pinned;

  // Pending MTTR record of the recovery in flight: detect_ns is filled
  // when the failed launch returns, the middle phases while preparing the
  // relaunch, resume_ns once the relaunched solver reaches its first
  // iteration hook.
  RecoveryPhases pending;
  bool have_pending = false;
  // Wall timestamp (ns since run() entry) of the fatal schedule event of
  // the current launch; -1 when none fired. Written by rank 0's hook.
  const Clock::time_point epoch = Clock::now();
  std::atomic<std::int64_t> fatal_event_ns{-1};
  // First-hook timestamp of the current launch, for resume_ns.
  std::atomic<std::int64_t> first_hook_ns{-1};

  const auto fire_event = [&](const FailureEvent& ev) {
    obs::ScopedSpan span(rec, "recover", "inject", -1, -1.0,
                         {obs::Attr::str("kind", to_string(ev.kind))});
    try {
      switch (ev.kind) {
        case FailureKind::kKillPool:
          fatal_event_ns.store(
              static_cast<std::int64_t>(ns_between(epoch, Clock::now())));
          pool_killed = true;
          cluster_.kill_pool(options.job_name, "injected failure: task kill");
          break;
        case FailureKind::kNodeLoss: {
          const std::vector<int> nodes = cluster_.nodes_of(options.job_name);
          if (nodes.empty()) {
            break;
          }
          fatal_event_ns.store(
              static_cast<std::int64_t>(ns_between(epoch, Clock::now())));
          const int victim =
              nodes[static_cast<std::size_t>(ev.node_ordinal) % nodes.size()];
          // Slots placed on the victim lose their in-memory state; the
          // slot list is read by the scope decision after the group joins.
          for (std::size_t i = 0; i < live_nodes.size(); ++i) {
            if (live_nodes[i] == victim) {
              lost_slots.insert(static_cast<int>(i));
            }
          }
          cluster_.fail_node(victim);
          if (options.on_node_loss) {
            options.on_node_loss(victim);
          }
          break;
        }
        case FailureKind::kTransientFaults:
          if (options.fault != nullptr) {
            options.fault->inject_transient_faults(
                std::max(1, ev.transient_count));
          }
          break;
        case FailureKind::kTornNewest: {
          const auto candidates =
              core::restart_candidates(storage, app, filter);
          const core::CheckpointRecord* newest =
              newest_of_layout(candidates, spmd);
          if (newest != nullptr) {
            core::decommit_checkpoint(storage, newest->prefix);
          }
          break;
        }
        case FailureKind::kCorruptNewest: {
          const auto candidates =
              core::restart_candidates(storage, app, filter);
          const core::CheckpointRecord* newest =
              newest_of_layout(candidates, spmd);
          if (newest == nullptr) {
            break;
          }
          std::string victim;
          if (newest->spmd) {
            victim = core::spmd_task_file_name(newest->prefix, 0);
          } else if (!newest->meta.arrays.empty()) {
            victim = core::array_file_name(newest->prefix,
                                           newest->meta.arrays.front().name);
          } else {
            victim = core::segment_file_name(newest->prefix);
          }
          auto file = storage.open(victim);
          const std::uint64_t offset = file.size() / 2;
          std::vector<std::byte> byte = file.read_at(offset, 1);
          byte[0] ^= std::byte{0xff};
          file.write_at(offset, byte);
          break;
        }
      }
      if (rec != nullptr) {
        rec->count(std::string("recover.inject.") + to_string(ev.kind));
      }
    } catch (const support::Error&) {
      // Chaos injection is best-effort: a fault that cannot land (e.g.
      // nothing to corrupt yet) must not error the application.
      if (rec != nullptr) {
        rec->count("recover.inject.failed");
      }
    }
  };

  for (int launch = 0; launch < options.max_launches; ++launch) {
    const bool is_restart = launch > 0;
    LaunchReport lr;

    // ---- scavenge: rebuild the redundancy-encoded fast tier ----------------
    // Runs before select so rebuilt fast-tier generations are candidates;
    // without it a survivable node loss would silently fall back to the
    // slow tier.
    if (is_restart && options.scavenge) {
      obs::ScopedSpan scavenge_span(rec, "recover", "scavenge", -1, -1.0);
      const store::ScavengeReport sr = options.scavenge();
      if (rec != nullptr) {
        rec->count("recover.scavenge.intact",
                   static_cast<std::uint64_t>(sr.files_intact));
        rec->count("recover.scavenge.rebuilt",
                   static_cast<std::uint64_t>(sr.files_rebuilt));
        rec->count("recover.scavenge.lost",
                   static_cast<std::uint64_t>(sr.files_lost));
        rec->count("recover.scavenge.bytes", sr.bytes_recovered);
      }
    }

    // ---- select: enumerate restart candidates, newest first ----------------
    Clock::time_point t0 = Clock::now();
    obs::ScopedSpan select_span(rec, "recover", "select", -1, -1.0);
    const std::vector<core::CheckpointRecord> candidates =
        core::restart_candidates(storage, app, filter);
    select_span.end(-1.0);
    Clock::time_point t1 = Clock::now();
    if (have_pending) {
      pending.select_ns += ns_between(t0, t1);
    }

    // ---- verify: deep-check the newest, fall back across generations -------
    // With a scheduler, drains are parked from here until the relaunched
    // solver's first iteration: the restore path must never queue behind
    // background tier traffic.
    auto restore_guard = std::make_shared<svc::IoScheduler::RestoreGuard>();
    if (io != nullptr && is_restart) {
      *restore_guard = io->preempt_drains();
    }
    obs::ScopedSpan verify_span(rec, "recover", "verify", -1, -1.0);
    const core::CheckpointRecord* chosen = nullptr;
    for (const auto& c : candidates) {
      if (c.spmd != spmd) {
        continue;  // other layout: not this job's state
      }
      if (suspects.count(c.prefix) != 0) {
        ++lr.generations_skipped;
        if (rec != nullptr) {
          rec->count("recover.suspect_skipped");
        }
        continue;  // escalating SOP rollback past a failed restore
      }
      core::VerifyResult v;
      if (io != nullptr) {
        // RESTORE-class item: dequeued ahead of queued drains and encodes.
        io->submit(io_job, svc::Priority::kRestore, c.prefix, 0, 0.0, [&] {
            v = core::verify_checkpoint(storage, c, /*deep=*/true);
          }).wait();
      } else {
        v = core::verify_checkpoint(storage, c, /*deep=*/true);
      }
      if (!v.ok) {
        ++lr.generations_skipped;
        if (rec != nullptr) {
          rec->count("recover.generation_fallback");
        }
        if (log_ != nullptr) {
          log_->record(arch::EventKind::kGenerationFallback,
                       "prefix=" + c.prefix + " " +
                           (v.problems.empty() ? "corrupt"
                                               : v.problems.front()));
        }
        continue;
      }
      chosen = &c;
      break;
    }
    verify_span.end(-1.0);
    // Pin the chosen generation (gc_superseded_states keeps a pin's whole
    // chain): the relaunch is about to read it, and retention must not
    // reclaim it — neither mid-restore nor between attempts while
    // newer-but-corrupt generations hold the keep-newest slots. The pin
    // drops once the resumed run commits its first new SOP (the iteration
    // hook clears it after that gc) or at the next selection.
    pinned.clear();
    if (chosen != nullptr) {
      pinned.push_back(chosen->prefix);
    }
    report.generation_fallbacks += lr.generations_skipped;
    Clock::time_point t2 = Clock::now();
    if (have_pending) {
      pending.verify_ns += ns_between(t1, t2);
    }

    // ---- reconfigure: pick t2 from the survivors and allocate ---------------
    obs::ScopedSpan reconf_span(rec, "recover", "reconfigure", -1, -1.0);
    ReconfigInput in;
    in.survivors = cluster_.available_processors();
    in.checkpoint_tasks = chosen != nullptr ? chosen->meta.task_count : 0;
    in.min_tasks = options.min_tasks;
    in.preferred_tasks = options.preferred_tasks;
    int want = policy.choose_tasks(in);
    if (spmd && chosen != nullptr) {
      // Conventional per-task states restore only onto t2 == t1.
      want = chosen->meta.task_count;
    }
    std::vector<int> nodes;
    if (want >= 1) {
      const int floor_tasks =
          spmd && chosen != nullptr ? want : options.min_tasks;
      nodes = cluster_.allocate(floor_tasks, want, options.job_name);
    }
    reconf_span.end(-1.0);
    Clock::time_point t3 = Clock::now();
    if (have_pending) {
      pending.reconfigure_ns += ns_between(t2, t3);
    }

    if (nodes.empty()) {
      // Cannot field this attempt from the surviving resources; back off
      // and retry (counts against the launch budget).
      lr.errors.push_back("allocation failed: " + std::to_string(want) +
                          " tasks wanted, " + std::to_string(in.survivors) +
                          " processors available");
      report.launches.push_back(std::move(lr));
      if (rec != nullptr) {
        rec->count("recover.allocation_failed");
      }
      std::this_thread::sleep_for(options.backoff_base *
                                  (1 << std::min(launch, 10)));
      continue;
    }

    const int tasks = static_cast<int>(nodes.size());
    lr.tasks = tasks;
    lr.from_checkpoint = chosen != nullptr;
    if (chosen != nullptr) {
      lr.restart_prefix = chosen->prefix;
      lr.restart_sop = chosen->meta.sop;
      if (tasks != chosen->meta.task_count) {
        ++report.reconfigurations;
        if (rec != nullptr) {
          rec->count("recover.reconfigured");
        }
        if (log_ != nullptr) {
          log_->record(arch::EventKind::kReconfigured,
                       "job=" + options.job_name + " t1=" +
                           std::to_string(chosen->meta.task_count) +
                           " t2=" + std::to_string(tasks));
        }
      }
    }

    // ---- restart scope: partial only when the retained snapshot mirrors
    // the chosen generation and some of its capturing slots survived --------
    const RestartScope scope =
        partial_enabled && is_restart && chosen != nullptr &&
                retained.valid && retained.prefix == chosen->prefix &&
                !force_full_next && !pool_killed && !lost_slots.empty() &&
                static_cast<int>(lost_slots.size()) < retained.t1
            ? RestartScope::kPartial
            : RestartScope::kFull;
    force_full_next = false;
    const bool scope_partial = scope == RestartScope::kPartial;
    lr.partial = scope_partial;

    // A partial restart consumes the snapshot: after the adoption the
    // slot-to-memory mapping belongs to the NEW launch, which recaptures
    // at its first checkpoint. Full restarts discard any stale snapshot
    // for the same reason.
    core::RetainedJobState plan_snapshot;
    core::PartialRestorePlan plan;
    if (scope_partial) {
      for (const int s : lost_slots) {
        retained.drop_slot(s);  // the failed nodes' memory is gone
      }
      plan_snapshot = std::move(retained);
      plan.retained = &plan_snapshot;
      plan.slot_lost.assign(static_cast<std::size_t>(plan_snapshot.t1), 0);
      for (const int s : lost_slots) {
        if (s >= 0 && s < plan_snapshot.t1) {
          plan.slot_lost[static_cast<std::size_t>(s)] = 1;
        }
      }
      if (rec != nullptr) {
        rec->count("recover.partial.attempted");
      }
      if (log_ != nullptr) {
        log_->record(arch::EventKind::kReconfigured,
                     "job=" + options.job_name + " partial_restore lost=" +
                         std::to_string(plan.lost_count()) + "/" +
                         std::to_string(plan_snapshot.t1));
      }
    }
    retained.invalidate();

    core::DrmsEnv env = options.env;
    env.restart_prefix = chosen != nullptr ? chosen->prefix : "";
    env.retain = partial_enabled ? &retained : nullptr;
    env.partial = scope_partial ? &plan : nullptr;

    apps::SolverOptions sopts = options.solver;
    sopts.prefix_for_iteration = [base](std::int64_t it) {
      return generation_prefix(base, it);
    };
    fatal_event_ns.store(-1);
    first_hook_ns.store(-1);
    const Clock::time_point launch_tp = Clock::now();
    sopts.on_iteration = [&, launch, restore_guard](std::int64_t it,
                                                    rt::TaskContext& ctx) {
      // Resume marker: the relaunched solver reached its first iteration
      // (restore + redistribution done).
      std::int64_t unset = -1;
      first_hook_ns.compare_exchange_strong(
          unset,
          static_cast<std::int64_t>(ns_between(epoch, Clock::now())));
      if (ctx.rank() == 0) {
        // The job is back up: background drains may flow again. Idempotent
        // and rank-0-only, so the release is single-threaded.
        restore_guard->release();
        // Retention first (the SOP of this iteration has committed), then
        // the schedule's chaos events for this launch.
        if (it > 0 && options.solver.checkpoint_every > 0 &&
            it % options.solver.checkpoint_every == 0) {
          (void)core::gc_superseded_states(storage, app, filter,
                                           options.keep_last_k, pinned);
        }
        for (std::size_t e = 0; e < schedule.events.size(); ++e) {
          if (fired[e] == 0 && schedule.events[e].launch == launch &&
              it >= schedule.events[e].at_iteration) {
            fired[e] = 1;
            fire_event(schedule.events[e]);
          }
        }
      }
      if (options.solver.on_iteration) {
        options.solver.on_iteration(it, ctx);
      }
    };

    // Per-launch failure trackers: events fired during THIS launch feed
    // the NEXT launch's scope decision (group join orders the accesses).
    live_nodes = nodes;
    lost_slots.clear();
    pool_killed = false;

    std::unique_ptr<core::DrmsProgram> program =
        apps::make_program(sopts, env, tasks);
    rt::TaskGroup group(
        sim::Placement(cluster_.machine(), nodes),
        options.seed + static_cast<std::uint64_t>(launch) * 7919);
    cluster_.register_pool(options.job_name, &group);
    if (log_ != nullptr) {
      log_->record(lr.from_checkpoint ? arch::EventKind::kJobRestarted
                                      : arch::EventKind::kJobLaunched,
                   "job=" + options.job_name + " tasks=" +
                       std::to_string(tasks) +
                       (lr.from_checkpoint ? " from=" + lr.restart_prefix
                                           : " fresh"));
    }
    obs::ScopedSpan resume_span(
        rec, "recover", is_restart ? "resume" : "launch", -1, -1.0,
        {obs::Attr::num("tasks", tasks),
         obs::Attr::str("from", lr.restart_prefix)});

    const rt::TaskGroupResult result = group.run([&](rt::TaskContext& ctx) {
      const apps::SolverOutcome out = apps::run_solver(*program, ctx, sopts);
      if (ctx.rank() == 0) {
        *outcome_slot = out;
      }
    });
    resume_span.end(-1.0);
    cluster_.deregister_pool(options.job_name);
    cluster_.release(options.job_name);
    // All tasks have joined; if the first hook never fired (the launch
    // died during restore) the guard is still held — drop it now.
    restore_guard->release();

    if (have_pending) {
      // Resume cost of the recovery that produced THIS launch: launch to
      // first solver iteration (whole launch when it died earlier).
      const std::int64_t hook_ns = first_hook_ns.load();
      const std::uint64_t launch_off = ns_between(epoch, launch_tp);
      pending.resume_ns =
          hook_ns >= 0 && static_cast<std::uint64_t>(hook_ns) > launch_off
              ? static_cast<std::uint64_t>(hook_ns) - launch_off
              : ns_between(launch_tp, Clock::now());
      pending.partial = scope_partial;
      report.recoveries.push_back(pending);
      pending = RecoveryPhases{};
      have_pending = false;
    }

    if (lr.from_checkpoint) {
      // Simulated restore cost of this launch (deterministic MTTR signal,
      // unlike the host-clock phase times).
      lr.restore_seconds = program->last_restart_timing().total_seconds();
    }
    if (scope_partial && first_hook_ns.load() >= 0 && rec != nullptr) {
      rec->count("recover.partial.completed");
    }
    lr.completed = result.completed;
    lr.killed = result.killed;
    lr.kill_reason = result.kill_reason;
    lr.errors.insert(lr.errors.end(), result.errors.begin(),
                     result.errors.end());
    report.launches.push_back(lr);

    if (result.completed) {
      report.completed = true;
      report.outcome = *outcome_slot;
      if (log_ != nullptr) {
        log_->record(arch::EventKind::kJobCompleted,
                     "job=" + options.job_name);
      }
      if (rec != nullptr) {
        rec->count("recover.completed");
      }
      break;
    }

    // ---- detect: the failure is established once the group unwound ---------
    obs::ScopedSpan detect_span(rec, "recover", "detect", -1, -1.0);
    const std::int64_t fatal_ns = fatal_event_ns.load();
    pending = RecoveryPhases{};
    const std::uint64_t now_ns = ns_between(epoch, Clock::now());
    pending.detect_ns =
        fatal_ns >= 0 && static_cast<std::uint64_t>(fatal_ns) < now_ns
            ? now_ns - static_cast<std::uint64_t>(fatal_ns)
            : 0;
    have_pending = true;
    detect_span.end(-1.0);
    if (rec != nullptr) {
      rec->count("recover.detected");
    }
    if (options.env.adapt != nullptr) {
      // Adaptive scheduling failure feed: the dead group's simulated
      // clocks are unreachable, so the failure is stamped at the
      // controller's stream high-water mark (the newest cost/query
      // observation — the crash happened at or after it).
      options.env.adapt->record_failure_at_stream_now();
    }

    if (!result.errors.empty() && chosen != nullptr) {
      if (scope_partial) {
        // Fallback ladder: a failed partial attempt retries the SAME
        // generation with full scope before any SOP rollback — the
        // generation deep-verified clean, so the suspect is the partial
        // path (stale adoption state), not the data.
        force_full_next = true;
        if (rec != nullptr) {
          rec->count("recover.partial.fallback_full");
        }
      } else {
        // The restore (or the run it fed) errored: roll the next attempt
        // back one generation further.
        suspects.insert(chosen->prefix);
        if (rec != nullptr) {
          rec->count("recover.suspect_marked");
        }
      }
    }
    // Trim superseded generations between attempts too, so a kill before
    // the first SOP of a relaunch cannot grow storage unboundedly. The
    // pin keeps the generation the next attempt will re-read. Best
    // effort: after a storage-level crash the backend may still be
    // unreachable here — retention must not kill the supervisor; the
    // next attempt's select surfaces a storage that stays down.
    try {
      (void)core::gc_superseded_states(storage, app, filter,
                                       options.keep_last_k, pinned);
    } catch (const support::Error&) {
    }
    std::this_thread::sleep_for(options.backoff_base *
                                (1 << std::min(launch, 10)));
  }

  if (!report.completed && log_ != nullptr) {
    log_->record(arch::EventKind::kRecoveryGaveUp,
                 "job=" + options.job_name + " launches=" +
                     std::to_string(report.launches.size()));
  }
  return report;
}

}  // namespace drms::recovery
