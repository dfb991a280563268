// Availability analysis — the Wong & Franklin result ([19]) the paper
// leans on: "checkpoint/recovery WITHOUT load redistribution has limited
// use for applications requiring a large number of processors. When
// recovery with load redistribution is possible, application performance
// degradation in the presence of failures is negligibly small, as long as
// the checkpointing and load-redistribution overheads are small."
//
// Model: an application needs W hours of useful work on P of N
// processors. Processor failures are independent with MTBF M per node
// (exponential), repairs take R hours. Checkpoints cost c hours every tau
// hours of progress.
//
//   rigid    — restart requires exactly P processors: after a failure the
//              application WAITS for the repair, then resumes from the
//              last checkpoint.
//   reconfig — DRMS-style: the application restarts immediately on the
//              surviving processors (work rate scales with processors),
//              returning to P when the repair completes.
//
// Expected-dilation is estimated by a seeded Monte Carlo simulation of
// the failure/repair process (10k trials per cell).
//
// `--chaos [count] [base_seed]` switches to the MEASURED counterpart of
// the model: a seeded chaos campaign that runs `count` randomized failure
// schedules (task kills, node loss, transient storage faults, torn and
// corrupt newest generations) through the RecoverySupervisor, across
// {DRMS, SPMD} x {memory, PIOFS, tiered} storage, asserting every run
// recovers WITHOUT manual intervention to the failure-free field
// fingerprint, and emits BENCH_recovery.json with the per-phase MTTR
// breakdown (detect / select / verify / reconfigure / resume).
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/solver.hpp"
#include "arch/cluster.hpp"
#include "core/checkpoint_format.hpp"
#include "json_writer.hpp"
#include "obs/instrumented_backend.hpp"
#include "obs/recorder.hpp"
#include "piofs/volume.hpp"
#include "recovery/failure_schedule.hpp"
#include "recovery/reconfig_policy.hpp"
#include "recovery/supervisor.hpp"
#include "sim/cost_model.hpp"
#include "rt/task_group.hpp"
#include "store/fault_injection_backend.hpp"
#include "store/memory_backend.hpp"
#include "store/piofs_backend.hpp"
#include "store/redundant_backend.hpp"
#include "store/tiered_backend.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace {

using drms::support::Rng;
using drms::support::format_fixed;

struct Scenario {
  double work_hours = 100.0;   // useful work at full speed
  double mtbf_hours = 2000.0;  // per processor
  double repair_hours = 8.0;
  double tau_hours = 1.0;      // checkpoint interval (in progress time)
  double overhead_hours = 0.01;  // checkpoint cost
  int processors = 16;
  bool reconfigurable = false;
};

/// Simulate one run; returns the wall-clock hours to finish.
double simulate_run(const Scenario& s, Rng& rng) {
  double wall = 0.0;
  double progress = 0.0;          // useful work completed
  double last_checkpoint = 0.0;   // progress at the last checkpoint
  int up = s.processors;          // processors currently healthy
  // Repair completion times (wall clock), one per failed processor.
  std::vector<double> repairs;

  auto draw_failure_gap = [&](int procs) {
    // Time to the next failure among `procs` processors.
    const double rate = procs / s.mtbf_hours;
    double u = rng.next_double();
    if (u <= 0.0) {
      u = 1e-12;
    }
    return -std::log(u) / rate;
  };

  while (progress < s.work_hours) {
    // Next repair completion, if any.
    const double next_repair =
        repairs.empty() ? std::numeric_limits<double>::infinity()
                        : *std::min_element(repairs.begin(), repairs.end());
    if (up == 0 || (!s.reconfigurable && up < s.processors)) {
      // Rigid application (or nothing left): wait for the repair.
      wall = next_repair;
      repairs.erase(std::min_element(repairs.begin(), repairs.end()));
      ++up;
      continue;
    }

    // Work proceeds at up/P of full speed (reconfigured restart keeps
    // the surviving processors busy; rigid mode only reaches here with
    // up == P).
    const double speed = static_cast<double>(up) / s.processors;
    // Time until the next interesting event.
    const double work_left = s.work_hours - progress;
    const double next_ckpt_progress =
        last_checkpoint + s.tau_hours - progress;
    const double to_next_stop = std::min(work_left, next_ckpt_progress);
    const double run_time = to_next_stop / speed;
    const double failure_gap = draw_failure_gap(up);

    const double until_repair = next_repair - wall;
    if (failure_gap < run_time && failure_gap < until_repair) {
      // A processor fails mid-stretch: progress since the last checkpoint
      // is lost, the failed node enters repair.
      wall += failure_gap;
      progress = last_checkpoint;
      repairs.push_back(wall + s.repair_hours);
      --up;
      continue;
    }
    if (until_repair < run_time) {
      // A repair completes first: partial progress is kept (no restart
      // needed to grow in this model — DRMS would checkpoint/restart to
      // expand; the growth overhead is one checkpoint, charged below).
      progress += speed * until_repair;
      wall = next_repair;
      repairs.erase(std::min_element(repairs.begin(), repairs.end()));
      ++up;
      if (s.reconfigurable) {
        wall += s.overhead_hours;  // expand via checkpoint/restart
      }
      continue;
    }
    // Reached the checkpoint (or the end).
    wall += run_time;
    progress += to_next_stop;
    if (progress < s.work_hours) {
      wall += s.overhead_hours / speed;
      last_checkpoint = progress;
    }
  }
  return wall;
}

double expected_dilation(const Scenario& s, int trials, Rng& rng) {
  double total = 0;
  for (int t = 0; t < trials; ++t) {
    total += simulate_run(s, rng);
  }
  return (total / trials) / s.work_hours;
}

// ---- measured chaos campaign (--chaos) --------------------------------------

namespace chaos {

using namespace drms;

constexpr int kIterations = 12;
constexpr int kCheckpointEvery = 3;
constexpr int kPreferredTasks = 4;

enum class BackendKind { kMemory, kPiofs, kTiered };

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMemory: return "memory";
    case BackendKind::kPiofs: return "piofs";
    case BackendKind::kTiered: return "tiered";
  }
  return "?";
}

/// A fresh storage stack with the fault decorator on top, like the
/// crash-consistency suite's.
struct Stack {
  std::unique_ptr<piofs::Volume> volume;
  std::unique_ptr<store::PiofsBackend> piofs;
  std::unique_ptr<store::MemoryBackend> memory;
  std::unique_ptr<store::TieredBackend> tiered;
  std::unique_ptr<store::FaultInjectionBackend> fault;
};

Stack make_stack(BackendKind kind) {
  Stack s;
  store::StorageBackend* inner = nullptr;
  switch (kind) {
    case BackendKind::kMemory:
      s.memory = std::make_unique<store::MemoryBackend>();
      inner = s.memory.get();
      break;
    case BackendKind::kPiofs:
      s.volume = std::make_unique<piofs::Volume>(4);
      s.piofs = std::make_unique<store::PiofsBackend>(*s.volume);
      inner = s.piofs.get();
      break;
    case BackendKind::kTiered:
      s.volume = std::make_unique<piofs::Volume>(4);
      s.piofs = std::make_unique<store::PiofsBackend>(*s.volume);
      s.memory = std::make_unique<store::MemoryBackend>();
      s.tiered = std::make_unique<store::TieredBackend>(*s.memory, *s.piofs);
      inner = s.tiered.get();
      break;
  }
  s.fault = std::make_unique<store::FaultInjectionBackend>(*inner);
  return s;
}

/// SP with most of its inventory trimmed away: the campaign measures the
/// recovery loop, not the Table-4 data volume.
apps::SolverOptions solver_options() {
  apps::SolverOptions o;
  o.spec = apps::AppSpec::sp();
  o.spec.arrays.resize(2);
  o.spec.private_bytes = 4 * 1024;
  o.spec.system_bytes = 4 * 1024;
  o.spec.text_bytes = 4 * 1024;
  o.n = 8;
  o.iterations = kIterations;
  o.checkpoint_every = kCheckpointEvery;
  o.prefix = "job";
  return o;
}

/// The failure-free fingerprint at field size `n`. ONE baseline per size
/// suffices: the solver's numerics are distribution-invariant, so the CRC
/// is identical across task counts, storage backends and restart paths.
std::uint32_t baseline_crc_for(core::Index n) {
  store::MemoryBackend storage;
  apps::SolverOptions o = solver_options();
  o.n = n;
  o.prefix.clear();
  core::DrmsEnv env;
  env.storage = &storage;
  auto program = apps::make_program(o, env, kPreferredTasks);
  std::uint32_t crc = 0;
  rt::TaskGroup group(sim::Placement::one_per_node(
      sim::Machine::paper_sp16(), kPreferredTasks));
  group.run([&](rt::TaskContext& ctx) {
    const auto out = apps::run_solver(*program, ctx, o);
    if (ctx.rank() == 0) {
      crc = out.field_crc;
    }
  });
  return crc;
}

struct CampaignRow {
  std::uint64_t seed = 0;
  bool spmd = false;
  BackendKind backend = BackendKind::kMemory;
  std::string schedule;
  bool ok = false;
  int launches = 0;
  int generation_fallbacks = 0;
  int reconfigurations = 0;
  recovery::RecoveryPhases phases;  // summed over the run's recoveries
  int recoveries = 0;
};

// ---- redundancy-encoded fast tier: scavenge vs PIOFS fallback ---------------

/// One node-loss-before-drain trial of the redundant fast tier. The
/// cluster maps its processors one-to-one onto the fast tier's store
/// nodes (arch/placement.hpp), so a kNodeLoss schedule event takes the
/// storage down with the processor.
struct ScavengeRow {
  std::string scheme;
  std::string scenario;  // "scavenge" or "piofs_fallback"
  bool ok = false;
  int recoveries = 0;
  std::uint64_t mttr_ns = 0;
  std::uint64_t slow_reads = 0;    // store.slow.read_at.ops over the run
  std::uint64_t files_rebuilt = 0; // recover.scavenge.rebuilt
  std::uint64_t files_lost = 0;    // recover.scavenge.lost
  std::string problem;
};

/// Run the supervisor under a single node-loss-before-drain schedule.
/// `beyond_tolerance` additionally kills a second store node of the same
/// redundancy group (without a second processor loss): the group is then
/// unrecoverable and restore must fall back to the drained PIOFS copies.
ScavengeRow run_scavenge_trial(store::RedundancyScheme scheme,
                               bool beyond_tolerance, std::uint32_t baseline,
                               std::uint64_t seed) {
  ScavengeRow row;
  row.scheme = scheme.describe();
  row.scenario = beyond_tolerance ? "piofs_fallback" : "scavenge";

  sim::Machine machine;
  machine.node_count = kPreferredTasks;
  machine.server_count = machine.node_count;
  arch::Cluster cluster(machine, nullptr);

  obs::Recorder rec;
  piofs::Volume volume(4);
  store::PiofsBackend piofs_backend(volume);
  obs::InstrumentedBackend slow(piofs_backend, &rec, "slow");
  store::RedundantBackend fast(kPreferredTasks, scheme);
  store::TieredBackend tiered(fast, slow);

  recovery::SupervisorOptions o;
  o.solver = solver_options();
  // Background protection, driven from the solver's iteration hook: the
  // fast tier is always encoded by the time a failure can land, and only
  // the fallback scenario ever drains to PIOFS.
  o.solver.on_iteration = [&](std::int64_t, rt::TaskContext& ctx) {
    if (ctx.rank() != 0) {
      return;
    }
    fast.encode_all();
    if (beyond_tolerance) {
      tiered.drain();
    }
  };
  o.env.storage = &tiered;
  o.env.mode = core::CheckpointMode::kDrms;
  o.preferred_tasks = kPreferredTasks;
  o.min_tasks = 1;
  o.seed = seed;
  o.backoff_base = std::chrono::microseconds(1);
  o.recorder = &rec;
  o.on_node_loss = [&](int node) {
    const int victim = node % kPreferredTasks;
    fast.fail_node(victim);
    if (beyond_tolerance) {
      // A second storage-only loss inside the victim's redundancy group:
      // one more than either scheme tolerates.
      const int base = (victim / scheme.group_size) * scheme.group_size;
      fast.fail_node(base + ((victim - base) + 1) % scheme.group_size);
    }
    tiered.reconcile_fast_tier();
  };
  o.scavenge = [&] { return fast.scavenge(); };

  recovery::FailureSchedule schedule;
  recovery::FailureEvent ev;
  ev.kind = recovery::FailureKind::kNodeLoss;
  ev.launch = 0;
  // After the first generation committed (and was encoded by the hook),
  // before the next SOP.
  ev.at_iteration = kCheckpointEvery + 1;
  ev.node_ordinal = 0;
  schedule.events.push_back(ev);

  recovery::RecoverySupervisor supervisor(cluster);
  const recovery::RecoveryReport report = supervisor.run(o, schedule);

  row.recoveries = static_cast<int>(report.recoveries.size());
  row.mttr_ns = report.total_recovery_ns();
  row.slow_reads = rec.counter("store.slow.read_at.ops");
  row.files_rebuilt = rec.counter("recover.scavenge.rebuilt");
  row.files_lost = rec.counter("recover.scavenge.lost");

  if (!report.completed) {
    row.problem = "did not complete";
  } else if (report.outcome.field_crc != baseline) {
    row.problem = "fingerprint mismatch";
  } else if (row.recoveries == 0) {
    row.problem = "node loss never fired";
  } else if (!beyond_tolerance && row.slow_reads != 0) {
    // The whole point: a tolerated loss recovers from the fast tier
    // alone — not one byte comes back from PIOFS.
    row.problem = "read PIOFS despite scavengeable fast tier";
  } else if (!beyond_tolerance && row.files_rebuilt == 0) {
    row.problem = "scavenge rebuilt nothing";
  } else if (beyond_tolerance && row.slow_reads == 0) {
    row.problem = "beyond-tolerance loss never touched PIOFS";
  } else if (beyond_tolerance && row.files_lost == 0) {
    row.problem = "beyond-tolerance loss lost no fast-tier file";
  }
  row.ok = row.problem.empty();
  return row;
}

// ---- base+delta chain recovery ----------------------------------------------

/// One supervised kill/recover run with delta generations enabled: the
/// failure lands right after the chain's first delta committed, so
/// select/verify/restore must walk a base+delta chain. The launch
/// reports' restart prefixes are checked against the on-storage metas —
/// at least one recovery must come back through a delta-kind generation.
struct DeltaChainRow {
  bool ok = false;
  int recoveries = 0;
  int chain_restarts = 0;  // restarts whose generation was a delta
  std::int64_t max_chain_depth = 0;
  std::uint64_t mttr_ns = 0;
  std::string problem;
};

DeltaChainRow run_delta_chain_trial(std::uint32_t baseline,
                                    std::uint64_t seed) {
  DeltaChainRow row;

  sim::Machine machine;
  machine.node_count = kPreferredTasks;
  machine.server_count = machine.node_count;
  arch::Cluster cluster(machine, nullptr);
  store::MemoryBackend storage;

  recovery::SupervisorOptions o;
  o.solver = solver_options();
  o.env.storage = &storage;
  o.env.mode = core::CheckpointMode::kDrms;
  o.env.delta = true;
  // g3 is the chain's full base; g6/g9/g12 are deltas, so the kill below
  // leaves a delta as the newest committed generation.
  o.env.delta_full_every_k = 4;
  o.env.delta_block_bytes = 64 * 1024;
  o.preferred_tasks = kPreferredTasks;
  o.min_tasks = 1;
  o.seed = seed;
  o.backoff_base = std::chrono::microseconds(1);

  recovery::FailureSchedule schedule;
  recovery::FailureEvent ev;
  ev.kind = recovery::FailureKind::kKillPool;
  ev.launch = 0;
  // After the second generation — the chain's first delta — committed.
  ev.at_iteration = 2 * kCheckpointEvery + 1;
  schedule.events.push_back(ev);

  recovery::RecoverySupervisor supervisor(cluster);
  const recovery::RecoveryReport report = supervisor.run(o, schedule);

  row.recoveries = static_cast<int>(report.recoveries.size());
  row.mttr_ns = report.total_recovery_ns();
  for (const auto& launch : report.launches) {
    if (!launch.from_checkpoint) {
      continue;
    }
    const core::CheckpointMeta meta =
        core::read_checkpoint_meta(storage, launch.restart_prefix);
    if (meta.kind == core::GenerationKind::kDelta) {
      ++row.chain_restarts;
      row.max_chain_depth = std::max(row.max_chain_depth, meta.chain_depth);
    }
  }

  if (!report.completed) {
    row.problem = "did not complete";
  } else if (report.outcome.field_crc != baseline) {
    row.problem = "fingerprint mismatch";
  } else if (row.recoveries == 0) {
    row.problem = "kill never fired";
  } else if (row.chain_restarts == 0) {
    row.problem = "no restart walked a base+delta chain";
  }
  row.ok = row.problem.empty();
  return row;
}

// ---- localized recovery: partial vs full restart ----------------------------

/// One directed single-node-loss trial of the partial-restore path,
/// run TWICE on identical fresh stacks — once with partial_restore off
/// (the matched full-restart control) and once with it on. Both runs must
/// reproduce the failure-free fingerprint; the partial run must keep the
/// survivors off storage entirely and its simulated restore time must be
/// strictly below the control's — the paper's localized-recovery claim
/// (restart cost scales with the failed fraction) in one number.
struct PartialRow {
  std::string scenario;  // "shrink" or "same_count"
  BackendKind backend = BackendKind::kPiofs;
  core::Index n = 8;
  bool ok = false;
  double full_restore_seconds = 0.0;
  double partial_restore_seconds = 0.0;
  std::uint64_t restore_read_bytes = 0;   // replacement-task section reads
  std::uint64_t survivor_read_bytes = 0;  // must stay 0
  std::uint64_t adopted_sections = 0;
  std::string problem;
};

PartialRow run_partial_trial(bool same_count, BackendKind kind,
                             core::Index n, std::uint32_t baseline,
                             std::uint64_t seed) {
  PartialRow row;
  row.scenario = same_count ? "same_count" : "shrink";
  row.backend = kind;
  row.n = n;

  // Simulated storage time makes restore_seconds a deterministic MTTR
  // signal; every tier of every stack charges the same paper model.
  const sim::CostModel cost = sim::CostModel::paper_sp16();
  const recovery::SameCountPolicy same_count_policy;

  const auto run_once = [&](bool partial, double* restore_seconds,
                            obs::Recorder* rec) {
    sim::Machine machine;
    // The shrink scenario has no spare: losing a node forces t2 = t1 - 1.
    // The same-count scenario keeps one spare so SameCountPolicy can
    // refill the lost slot at t2 == t1.
    machine.node_count = kPreferredTasks + (same_count ? 1 : 0);
    machine.server_count = machine.node_count;
    arch::Cluster cluster(machine, nullptr);

    piofs::Volume volume(4);
    store::PiofsBackend piofs_backend(volume, &cost);
    store::MemoryBackend memory(0, &cost);
    std::unique_ptr<store::TieredBackend> tiered;
    store::StorageBackend* storage = &piofs_backend;
    if (kind == BackendKind::kTiered) {
      tiered = std::make_unique<store::TieredBackend>(memory, piofs_backend);
      storage = tiered.get();
    }

    recovery::SupervisorOptions o;
    o.solver = solver_options();
    o.solver.n = n;
    o.env.storage = storage;
    o.env.mode = core::CheckpointMode::kDrms;
    o.env.recorder = rec;
    o.preferred_tasks = kPreferredTasks;
    o.min_tasks = 1;
    o.seed = seed;
    o.backoff_base = std::chrono::microseconds(1);
    o.partial_restore = partial;
    o.recorder = rec;
    if (same_count) {
      o.policy = &same_count_policy;
    }

    recovery::FailureSchedule schedule;
    recovery::FailureEvent ev;
    ev.kind = recovery::FailureKind::kNodeLoss;
    ev.launch = 0;
    ev.at_iteration = kCheckpointEvery + 1;  // after the first commit
    ev.node_ordinal = 2;
    schedule.events.push_back(ev);

    recovery::RecoverySupervisor supervisor(cluster);
    const recovery::RecoveryReport report = supervisor.run(o, schedule);
    if (!report.completed) {
      return std::string(partial ? "partial" : "full") +
             " run did not complete";
    }
    if (report.outcome.field_crc != baseline) {
      return std::string(partial ? "partial" : "full") +
             " run fingerprint mismatch";
    }
    if (report.launches.size() != 2) {
      return std::string("expected exactly one recovery, saw ") +
             std::to_string(report.launches.size() - 1);
    }
    if (report.launches[1].partial != partial) {
      return std::string(partial ? "partial scope not chosen"
                                 : "control run restarted partially");
    }
    *restore_seconds = report.launches[1].restore_seconds;
    return std::string();
  };

  obs::Recorder control_rec;
  row.problem = run_once(false, &row.full_restore_seconds, &control_rec);
  if (!row.problem.empty()) {
    row.ok = false;
    return row;
  }
  obs::Recorder rec;
  row.problem = run_once(true, &row.partial_restore_seconds, &rec);
  row.restore_read_bytes = rec.counter("recover.partial.restore_read_bytes");
  row.survivor_read_bytes =
      rec.counter("recover.partial.survivor_read_bytes");
  row.adopted_sections = rec.counter("recover.partial.adopted_sections");

  if (row.problem.empty()) {
    if (row.survivor_read_bytes != 0) {
      // The whole point: survivors keep their arrays — zero checkpoint
      // reads while the replacement slot streams its sections in.
      row.problem = "survivors read checkpoint data";
    } else if (row.restore_read_bytes == 0) {
      row.problem = "replacement task read nothing";
    } else if (row.adopted_sections == 0) {
      row.problem = "survivors adopted nothing";
    } else if (row.full_restore_seconds <= 0.0 ||
               row.partial_restore_seconds <= 0.0) {
      row.problem = "restore charged no simulated time";
    } else if (row.partial_restore_seconds >= row.full_restore_seconds) {
      row.problem = "partial restore not cheaper than full";
    }
  }
  row.ok = row.problem.empty();
  return row;
}

int run_campaign(int count, std::uint64_t base_seed) {
  std::cout << "Chaos campaign: " << count
            << " seeded failure schedules x {DRMS, SPMD} x {memory, "
               "piofs, tiered}\n";
  const std::uint32_t baseline = baseline_crc_for(8);
  std::cout << "failure-free baseline field CRC: " << baseline << "\n\n";

  recovery::ScheduleShape shape;
  shape.iterations = kIterations;
  shape.checkpoint_every = kCheckpointEvery;

  std::vector<CampaignRow> rows;
  bool kind_seen[5] = {};
  int failures = 0;
  for (int i = 0; i < count; ++i) {
    CampaignRow row;
    row.seed = base_seed + static_cast<std::uint64_t>(i);
    row.spmd = i % 2 == 1;
    row.backend = static_cast<BackendKind>((i / 2) % 3);
    const recovery::FailureSchedule schedule =
        recovery::FailureSchedule::random(row.seed, shape);
    row.schedule = schedule.describe();
    for (int k = 0; k < 5; ++k) {
      if (schedule.has_kind(static_cast<recovery::FailureKind>(k))) {
        kind_seen[k] = true;
      }
    }

    // DRMS runs on a machine with NO spare nodes, so node loss forces a
    // reconfigured restart (t2 < t1); SPMD — which can only restart on
    // t2 == t1 — gets spares to shrink into.
    sim::Machine machine;
    machine.node_count = row.spmd ? kPreferredTasks + 2 : kPreferredTasks;
    machine.server_count = machine.node_count;
    arch::Cluster cluster(machine, nullptr);
    Stack stack = make_stack(row.backend);

    recovery::SupervisorOptions o;
    o.solver = solver_options();
    o.env.storage = stack.fault.get();
    o.env.mode = row.spmd ? core::CheckpointMode::kSpmd
                          : core::CheckpointMode::kDrms;
    o.preferred_tasks = kPreferredTasks;
    o.min_tasks = 1;
    o.seed = row.seed;
    o.fault = stack.fault.get();
    o.backoff_base = std::chrono::microseconds(1);

    recovery::RecoverySupervisor supervisor(cluster);
    const recovery::RecoveryReport report = supervisor.run(o, schedule);
    row.ok = report.completed && report.outcome.field_crc == baseline;
    row.launches = static_cast<int>(report.launches.size());
    row.generation_fallbacks = report.generation_fallbacks;
    row.reconfigurations = report.reconfigurations;
    row.recoveries = static_cast<int>(report.recoveries.size());
    for (const auto& r : report.recoveries) {
      row.phases.detect_ns += r.detect_ns;
      row.phases.select_ns += r.select_ns;
      row.phases.verify_ns += r.verify_ns;
      row.phases.reconfigure_ns += r.reconfigure_ns;
      row.phases.resume_ns += r.resume_ns;
    }
    if (!row.ok) {
      ++failures;
      std::cout << "FAILED seed " << row.seed << " ("
                << (row.spmd ? "SPMD" : "DRMS") << "/"
                << to_string(row.backend) << "): " << row.schedule
                << (report.completed ? " — fingerprint mismatch"
                                     : " — did not complete")
                << "\n";
    }
    rows.push_back(row);
  }

  drms::support::TextTable table({"seed", "mode", "backend", "schedule",
                                  "launches", "fallbacks", "reconfigs",
                                  "MTTR us", "result"});
  recovery::RecoveryPhases total;
  int total_recoveries = 0;
  int fallback_runs = 0;
  int reconfig_runs = 0;
  for (const auto& row : rows) {
    table.add_row({std::to_string(row.seed), row.spmd ? "SPMD" : "DRMS",
                   to_string(row.backend), row.schedule,
                   std::to_string(row.launches),
                   std::to_string(row.generation_fallbacks),
                   std::to_string(row.reconfigurations),
                   std::to_string(row.phases.total_ns() / 1000),
                   row.ok ? "OK" : "FAILED"});
    total.detect_ns += row.phases.detect_ns;
    total.select_ns += row.phases.select_ns;
    total.verify_ns += row.phases.verify_ns;
    total.reconfigure_ns += row.phases.reconfigure_ns;
    total.resume_ns += row.phases.resume_ns;
    total_recoveries += row.recoveries;
    fallback_runs += row.generation_fallbacks > 0 ? 1 : 0;
    reconfig_runs += row.reconfigurations > 0 ? 1 : 0;
  }
  table.print(std::cout);

  const auto mean_us = [&](std::uint64_t ns) {
    return total_recoveries == 0
               ? 0.0
               : static_cast<double>(ns) / total_recoveries / 1000.0;
  };
  std::cout << "\n"
            << total_recoveries << " recoveries; mean MTTR breakdown: detect "
            << format_fixed(mean_us(total.detect_ns), 1) << "us, select "
            << format_fixed(mean_us(total.select_ns), 1) << "us, verify "
            << format_fixed(mean_us(total.verify_ns), 1)
            << "us, reconfigure "
            << format_fixed(mean_us(total.reconfigure_ns), 1)
            << "us, resume " << format_fixed(mean_us(total.resume_ns), 1)
            << "us\n";

  // Coverage: the campaign must actually exercise every failure class,
  // at least one generation fallback and at least one t2 != t1 restart.
  bool covered = true;
  for (int k = 0; k < 5; ++k) {
    if (!kind_seen[k]) {
      std::cout << "COVERAGE GAP: no schedule of kind "
                << recovery::to_string(
                       static_cast<recovery::FailureKind>(k))
                << "\n";
      covered = false;
    }
  }
  if (fallback_runs == 0) {
    std::cout << "COVERAGE GAP: no run exercised generation fallback\n";
    covered = false;
  }
  if (reconfig_runs == 0) {
    std::cout << "COVERAGE GAP: no run exercised reconfiguration\n";
    covered = false;
  }

  // Redundant fast tier: node loss BEFORE any drain must recover from
  // surviving fragments alone (zero PIOFS reads); losing more nodes of a
  // group than the scheme tolerates must fall back to the drained PIOFS
  // copies. The MTTR pair is the paper's scalable-recovery argument in
  // one number.
  std::cout << "\nRedundant fast tier: scavenge vs PIOFS fallback\n";
  std::vector<ScavengeRow> scavenge_rows;
  for (const auto& scheme :
       {store::RedundancyScheme{store::RedundancyKind::kPartner, 2},
        store::RedundancyScheme{store::RedundancyKind::kXor, 4}}) {
    for (const bool beyond : {false, true}) {
      scavenge_rows.push_back(
          run_scavenge_trial(scheme, beyond, baseline, base_seed));
    }
  }
  drms::support::TextTable stable({"scheme", "scenario", "recoveries",
                                   "MTTR us", "slow reads", "rebuilt",
                                   "lost", "result"});
  int scavenge_failures = 0;
  for (const auto& row : scavenge_rows) {
    stable.add_row({row.scheme, row.scenario, std::to_string(row.recoveries),
                    std::to_string(row.mttr_ns / 1000),
                    std::to_string(row.slow_reads),
                    std::to_string(row.files_rebuilt),
                    std::to_string(row.files_lost),
                    row.ok ? "OK" : "FAILED"});
    if (!row.ok) {
      ++scavenge_failures;
      std::cout << "FAILED " << row.scheme << "/" << row.scenario << ": "
                << row.problem << "\n";
    }
  }
  stable.print(std::cout);

  // Base+delta chain recovery: one supervised kill with delta generations
  // enabled. The delta subsystem's recovery bar: at least one restart
  // must restore through a delta-kind generation (full base replayed,
  // then the chain's dirty blocks), bit-exact against the baseline.
  std::cout << "\nDelta-chain recovery trial (delta generations on)\n";
  const DeltaChainRow delta_row = run_delta_chain_trial(baseline, base_seed);
  std::cout << "  recoveries " << delta_row.recoveries << ", chain restarts "
            << delta_row.chain_restarts << ", max chain depth "
            << delta_row.max_chain_depth << ", MTTR "
            << delta_row.mttr_ns / 1000 << "us — "
            << (delta_row.ok ? std::string("OK")
                             : "FAILED: " + delta_row.problem)
            << "\n";

  // Localized recovery: the partial-restore path vs the matched full
  // restart, across reconfiguration scenarios and storage stacks, plus a
  // size-scaling pair — growing the job must NOT grow the partial/full
  // cost ratio, because a partial restart pays for the failed fraction,
  // not for the job.
  std::cout << "\nLocalized recovery: partial vs full restart (single node "
               "loss)\n";
  std::vector<PartialRow> partial_rows;
  for (const bool same_count : {false, true}) {
    for (const BackendKind kind : {BackendKind::kPiofs,
                                   BackendKind::kTiered}) {
      partial_rows.push_back(
          run_partial_trial(same_count, kind, 8, baseline, base_seed));
    }
  }
  partial_rows.push_back(run_partial_trial(/*same_count=*/false,
                                           BackendKind::kPiofs, 16,
                                           baseline_crc_for(16), base_seed));

  drms::support::TextTable ptable({"scenario", "backend", "n", "full ms",
                                   "partial ms", "ratio", "restore KiB",
                                   "survivor reads", "result"});
  int partial_failures = 0;
  double ratio_small = 0.0;
  double ratio_large = 0.0;
  for (const auto& row : partial_rows) {
    const double ratio =
        row.full_restore_seconds > 0.0
            ? row.partial_restore_seconds / row.full_restore_seconds
            : 0.0;
    if (row.scenario == "shrink" && row.backend == BackendKind::kPiofs) {
      (row.n == 8 ? ratio_small : ratio_large) = ratio;
    }
    ptable.add_row({row.scenario, to_string(row.backend),
                    std::to_string(row.n),
                    format_fixed(row.full_restore_seconds * 1e3, 3),
                    format_fixed(row.partial_restore_seconds * 1e3, 3),
                    format_fixed(ratio, 3),
                    std::to_string(row.restore_read_bytes / 1024),
                    std::to_string(row.survivor_read_bytes),
                    row.ok ? "OK" : "FAILED"});
    if (!row.ok) {
      ++partial_failures;
      std::cout << "FAILED " << row.scenario << "/" << to_string(row.backend)
                << " n=" << row.n << ": " << row.problem << "\n";
    }
  }
  ptable.print(std::cout);
  const bool partial_scales =
      ratio_small > 0.0 && ratio_large > 0.0 &&
      ratio_large <= ratio_small + 0.05;
  if (!partial_scales) {
    std::cout << "FAILED scaling: partial/full ratio grew with job size ("
              << format_fixed(ratio_small, 3) << " at n=8 -> "
              << format_fixed(ratio_large, 3) << " at n=16)\n";
  }

  std::ofstream out("BENCH_recovery.json");
  bench::JsonWriter json(out);
  json.begin_object();
  json.field("bench", "recovery_chaos");
  json.field("schedules", count);
  json.field("base_seed", base_seed);
  json.field("baseline_crc", static_cast<std::uint64_t>(baseline));
  json.begin_array("rows");
  for (const auto& row : rows) {
    json.begin_object();
    json.field("seed", row.seed);
    json.field("mode", row.spmd ? "SPMD" : "DRMS");
    json.field("backend", to_string(row.backend));
    json.field("schedule", row.schedule);
    json.field("ok", row.ok);
    json.field("launches", row.launches);
    json.field("recoveries", row.recoveries);
    json.field("generation_fallbacks", row.generation_fallbacks);
    json.field("reconfigurations", row.reconfigurations);
    json.field("detect_ns", row.phases.detect_ns);
    json.field("select_ns", row.phases.select_ns);
    json.field("verify_ns", row.phases.verify_ns);
    json.field("reconfigure_ns", row.phases.reconfigure_ns);
    json.field("resume_ns", row.phases.resume_ns);
    json.field("total_ns", row.phases.total_ns());
    json.end_object();
  }
  json.end_array();
  json.begin_object("mttr");
  json.field("recoveries", total_recoveries);
  json.field("mean_detect_us", mean_us(total.detect_ns));
  json.field("mean_select_us", mean_us(total.select_ns));
  json.field("mean_verify_us", mean_us(total.verify_ns));
  json.field("mean_reconfigure_us", mean_us(total.reconfigure_ns));
  json.field("mean_resume_us", mean_us(total.resume_ns));
  json.field("mean_total_us", mean_us(total.total_ns()));
  json.end_object();
  json.begin_object("coverage");
  for (int k = 0; k < 5; ++k) {
    json.field(recovery::to_string(static_cast<recovery::FailureKind>(k)),
               kind_seen[k]);
  }
  json.field("fallback_runs", fallback_runs);
  json.field("reconfig_runs", reconfig_runs);
  json.end_object();
  json.begin_array("scavenge");
  for (const auto& row : scavenge_rows) {
    json.begin_object();
    json.field("scheme", row.scheme);
    json.field("scenario", row.scenario);
    json.field("ok", row.ok);
    json.field("recoveries", row.recoveries);
    json.field("mttr_ns", row.mttr_ns);
    json.field("slow_read_ops", row.slow_reads);
    json.field("files_rebuilt", row.files_rebuilt);
    json.field("files_lost", row.files_lost);
    json.end_object();
  }
  json.end_array();
  json.begin_object("delta_chain");
  json.field("ok", delta_row.ok);
  json.field("recoveries", delta_row.recoveries);
  json.field("chain_restarts", delta_row.chain_restarts);
  json.field("max_chain_depth",
             static_cast<std::uint64_t>(delta_row.max_chain_depth));
  json.field("mttr_ns", delta_row.mttr_ns);
  json.end_object();
  json.begin_array("partial");
  for (const auto& row : partial_rows) {
    json.begin_object();
    json.field("scenario", row.scenario);
    json.field("backend", to_string(row.backend));
    json.field("n", static_cast<std::uint64_t>(row.n));
    json.field("ok", row.ok);
    json.field("full_restore_seconds", row.full_restore_seconds);
    json.field("partial_restore_seconds", row.partial_restore_seconds);
    json.field("restore_read_bytes", row.restore_read_bytes);
    json.field("survivor_read_bytes", row.survivor_read_bytes);
    json.field("adopted_sections", row.adopted_sections);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << "\n";
  std::cout << "wrote BENCH_recovery.json\n";

  if (failures > 0 || scavenge_failures > 0 || !covered || !delta_row.ok ||
      partial_failures > 0 || !partial_scales) {
    std::cout << "\nCHAOS CAMPAIGN FAILED: " << failures << " of " << count
              << " schedules did not recover"
              << (scavenge_failures > 0 ? " (and the scavenge gate failed)"
                                        : "")
              << (covered ? "" : " (and coverage gaps remain)")
              << (delta_row.ok ? "" : " (and the delta-chain trial failed)")
              << (partial_failures > 0 || !partial_scales
                      ? " (and the partial-restore gate failed)"
                      : "")
              << "\n";
    return 1;
  }
  std::cout << "\nall " << count
            << " schedules recovered to the failure-free fingerprint.\n";
  return 0;
}

}  // namespace chaos

/// The original no-argument mode: the Wong & Franklin dilation table
/// (byte-identical output to the pre-campaign version of this bench).
int availability_table();

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << "                 (the dilation table)\n"
      << "       " << argv0 << " --chaos [count] [base_seed]\n"
      << "Unknown flags and malformed numeric arguments are errors.\n";
  return 2;
}

/// Strict numeric parsing: the whole argument must be a number —
/// "12abc", "", and out-of-range values are rejected (exit 2 via
/// usage), never silently defaulted.
bool parse_int_strict(const char* arg, int min_value, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0' || errno == ERANGE ||
      v < static_cast<long>(min_value) ||
      v > static_cast<long>(std::numeric_limits<int>::max())) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool parse_u64_strict(const char* arg, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  if (arg[0] == '-') {
    return false;
  }
  const unsigned long long v = std::strtoull(arg, &end, 10);
  if (end == arg || *end != '\0' || errno == ERANGE) {
    return false;
  }
  *out = static_cast<std::uint64_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc <= 1) {
    return availability_table();
  }
  const std::string cmd = argv[1];
  if (cmd == "--chaos") {
    int count = 32;
    std::uint64_t base_seed = 1;
    if (argc > 4) {
      return usage(argv[0]);
    }
    if (argc > 2 && !parse_int_strict(argv[2], 1, &count)) {
      return usage(argv[0]);
    }
    if (argc > 3 && !parse_u64_strict(argv[3], &base_seed)) {
      return usage(argv[0]);
    }
    return chaos::run_campaign(count, base_seed);
  }
  return usage(argv[0]);
}

namespace {

int availability_table() {
  std::cout
      << "Availability model (Wong & Franklin [19]): expected completion\n"
      << "dilation vs. partition size, rigid restart vs. reconfigurable\n"
      << "restart (100 h of work, 2000 h/node MTBF, 8 h repairs, 1 h\n"
      << "checkpoint interval, 36 s checkpoint overhead; 10k trials)\n\n";

  Rng rng(0xD0C5EED);
  drms::support::TextTable table(
      {"processors", "rigid dilation", "reconfig dilation", "advantage"});
  for (const int p : {8, 16, 32, 64, 128, 256}) {
    Scenario rigid;
    rigid.processors = p;
    rigid.reconfigurable = false;
    Scenario reconfig = rigid;
    reconfig.reconfigurable = true;
    const double dr = expected_dilation(rigid, 10000, rng);
    const double dc = expected_dilation(reconfig, 10000, rng);
    table.add_row({std::to_string(p), format_fixed(dr, 3),
                   format_fixed(dc, 3),
                   format_fixed(100.0 * (dr - dc) / dr, 1) + "%"});
  }
  table.print(std::cout);
  std::cout
      << "\nShapes: the rigid scheme's dilation grows quickly with the\n"
      << "partition (every failure idles the WHOLE application for the\n"
      << "repair time), while reconfigurable recovery stays within a few\n"
      << "percent of failure-free execution — the paper's §7 citation of\n"
      << "[19] and the motivation for scalable recovery.\n";
  return 0;
}

}  // namespace
