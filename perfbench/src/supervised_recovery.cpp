// supervised_recovery: repeated RecoverySupervisor jobs of the SP solver.
//
// Each job runs SP class A at 2 tasks on an arch::Cluster with two spare
// nodes. Checkpoints land in a TieredBackend whose fast tier is a
// partner-replicated RedundantBackend over a PIOFS slow tier (paper cost
// model); after every SOP the benchmark encodes and drains through a
// 1-shard IoScheduler and waits for both (IoScheduler::barrier). The
// job's seeded schedule loses one node after the first commit; recovery
// scavenges the fast tier, keeps the task count (SameCountPolicy) and
// restores only the lost slot (partial restore). Every job must end at
// the failure-free field CRC.
//
// The supervisor is driven only through its public options: the solver's
// on_iteration hook, on_node_loss, scavenge and a timing wrapper around
// the reconfiguration policy mark the instants measured here.
#include <malloc.h>

#include <string>
#include <vector>

#include "apps/app_spec.hpp"
#include "apps/solver.hpp"
#include "arch/cluster.hpp"
#include "core/checkpoint_catalog.hpp"
#include "core/checkpoint_format.hpp"
#include "counting_backend.hpp"
#include "piofs/volume.hpp"
#include "probes.hpp"
#include "recovery/failure_schedule.hpp"
#include "recovery/reconfig_policy.hpp"
#include "recovery/supervisor.hpp"
#include "sim/cost_model.hpp"
#include "sim/machine.hpp"
#include "state.hpp"
#include "store/piofs_backend.hpp"
#include "store/redundant_backend.hpp"
#include "store/tiered_backend.hpp"
#include "svc/drain_service.hpp"
#include "svc/io_scheduler.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = drms::core;
namespace recovery = drms::recovery;
namespace store = drms::store;
namespace svc = drms::svc;

namespace {

constexpr int kTasks = 2;
constexpr int kNodes = 4;  // 2 spares; a multiple of the partner group size
constexpr int kShards = 1;
constexpr int kIterations = 8;
constexpr int kCheckpointEvery = 4;
constexpr int kSetups = 5;
const std::string kApp = "SP";
const std::string kBase = "sp";
const std::string kFilter = "sp.g";

/// SameCountPolicy that also stamps the instant the supervisor's
/// reconfigure phase asks it for t2 (the start of every launch), with the
/// engine-facing store counters at that instant.
class StampedPolicy final : public recovery::ReconfigurationPolicy {
 public:
  explicit StampedPolicy(const CountingBackend& top) : top_(top) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] int choose_tasks(
      const recovery::ReconfigInput& in) const override {
    stamp_ = Stamp::now();
    stamp_ns_ = steady_ns();
    counts_ = top_.counts();
    new_launch_ = true;
    return inner_.choose_tasks(in);
  }
  mutable Stamp stamp_;
  mutable std::int64_t stamp_ns_ = 0;
  mutable StoreCounts counts_;
  mutable bool new_launch_ = false;

 private:
  const CountingBackend& top_;
  recovery::SameCountPolicy inner_;
};

/// Per-run samples, all taken on rank 0's hook thread or the main thread.
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> sop_gap_ms, sop_gap_cpu_ms;    // SOP iterations
  std::vector<double> iter_gap_ms, iter_gap_cpu_ms;  // plain iterations
  std::vector<double> restart_ms, restart_cpu_ms;
  std::vector<double> recover_ms, recover_cpu_ms;
  std::vector<double> job_s, job_cpu_s;
  std::vector<double> job_traced_s, job_untraced_s;
  std::vector<double> stored_per_state;
};

class SupervisedRun {
 public:
  explicit SupervisedRun(const Args& args)
      : args_(args), tracer_(args.trace), report_(args.trace) {}

  int run(const Stamp& process_start);

 private:
  /// One supervised job on a fresh stack. `failure` injects the seeded
  /// node loss; returns the final field CRC (0 when the job failed).
  std::uint32_t job(std::uint64_t index, bool failure, bool record,
                    bool traced);
  void report_end_to_end();
  void report_layers();

  Args args_;
  Tracer tracer_;
  Report report_;
  Measured m_;
  Samples layers_;
  std::uint32_t reference_crc_ = 0;
};

int SupervisedRun::run(const Stamp& process_start) {
  // Set-up: a failure-free job on a fresh stack (allocation, initial
  // fill, first distribute, warm-up generations) whose field CRC is the
  // reference every later job must reproduce.
  for (int s = 0; s < kSetups; ++s) {
    const Stamp start = s == 0 ? process_start : Stamp::now();
    const std::uint32_t crc = job(static_cast<std::uint64_t>(s), false, false, false);
    m_.setup_s.push_back(wall_s() - start.wall);
    if (s == 0) {
      reference_crc_ = crc;
    }
    report_.attempt(crc != 0 && crc == reference_crc_,
                    "failure-free reference jobs disagree on the field CRC");
  }
  const double measure_start = wall_s();
  const StealReading steal_at_start = read_steal();
  for (std::uint64_t j = 0; wall_s() - measure_start < args_.seconds; ++j) {
    const bool traced = tracer_.enabled() && j % 2 == 0;
    (void)job(kSetups + j, true, true, traced);
  }
  report_.info(steal_since(steal_at_start));
  if (args_.trace) {
    report_layers();
  } else {
    report_end_to_end();
  }
  return report_.finish();
}

std::uint32_t SupervisedRun::job(std::uint64_t index, bool failure,
                                 bool record, bool traced) {
  // Each job starts from a trimmed heap, as a fresh job process would, so
  // peak RSS is the largest single job and not the allocator's history.
  malloc_trim(0);
  const Stamp job_start = Stamp::now();
  const Tracer::Op jop = traced ? tracer_.begin("job") : Tracer::Op{};

  const drms::sim::CostModel cost = drms::sim::CostModel::paper_sp16();
  drms::sim::Machine machine;
  machine.node_count = kNodes;
  machine.server_count = kNodes;
  drms::arch::Cluster cluster(machine, nullptr);
  drms::piofs::Volume volume(4);
  store::PiofsBackend piofs(volume, &cost);
  CountingBackend slow(piofs, "slow");
  store::RedundantBackend fast(kNodes, store::RedundancyScheme{}, 0, &cost);
  store::TieredBackend tiered(fast, slow);
  CountingBackend top(tiered, "tiered");
  slow.set_tracing(traced, tracer_.recorder());
  top.set_tracing(traced, tracer_.recorder());
  slow.set_parent(static_cast<std::int64_t>(jop.span), jop.id);
  top.set_parent(static_cast<std::int64_t>(jop.span), jop.id);

  svc::IoScheduler::Options io_options;
  io_options.shard_count = kShards;
  svc::IoScheduler io(io_options);
  const svc::JobToken protect = io.register_job("sp.protect");
  StampedPolicy policy(top);

  // Hook state (rank 0 only).
  bool have_prev = false;
  Stamp prev_exit;
  StoreCounts counts_at_prev_exit;
  bool failed = false;
  Stamp failure_at;
  StoreCounts at_failure_top, at_failure_slow;
  std::int64_t launch_start_it = -1;

  recovery::SupervisorOptions o;
  o.solver.spec = drms::apps::AppSpec::sp();
  o.solver.n = kGrid;
  o.solver.iterations = kIterations;
  o.solver.checkpoint_every = kCheckpointEvery;
  o.solver.prefix = kBase;
  o.solver.compute_field_crc = true;
  o.solver.on_iteration = [&](std::int64_t it, drms::rt::TaskContext& ctx) {
    if (ctx.rank() != 0) {
      return;
    }
    const Stamp enter = Stamp::now();
    if (policy.new_launch_) {
      // First iteration of a launch: the restore is done.
      policy.new_launch_ = false;
      launch_start_it = it;
      if (failed && record) {
        m_.recover_ms.push_back((enter.wall - failure_at.wall) * 1e3);
        m_.recover_cpu_ms.push_back((enter.cpu - failure_at.cpu) * 1e3);
        m_.restart_cpu_ms.push_back((enter.cpu - policy.stamp_.cpu) * 1e3);
        const StoreCounts read = top.counts() - at_failure_top;
        const StoreCounts resumed = top.counts() - policy.counts_;
        layers_.add("store.read_ops", static_cast<double>(read.read_ops));
        layers_.add("store.read_mb", static_cast<double>(read.read_bytes) / 1e6);
        layers_.add("recovery.restore_mb",
                    static_cast<double>(resumed.read_bytes) / 1e6);
        layers_.add("store.slow.read_mb",
                    static_cast<double>(
                        (slow.counts() - at_failure_slow).read_bytes) / 1e6);
        if (traced) {
          const double wall_ms = (enter.wall - policy.stamp_.wall) * 1e3;
          layers_.add("store.read_ms", static_cast<double>(read.read_ns) / 1e6);
          layers_.add("core.restore_self_ms",
                      wall_ms - static_cast<double>(top.covered_ns(
                                    policy.stamp_ns_, steady_ns())) / 1e6);
        }
      }
      failed = false;
      have_prev = true;
      prev_exit = Stamp::now();
      counts_at_prev_exit = top.counts();
      return;
    }
    if (failed) {
      return;  // the group is being torn down
    }
    const bool sop = it % kCheckpointEvery == 0 && it != launch_start_it;
    if (!sop) {
      if (have_prev && record) {
        m_.iter_gap_ms.push_back((enter.wall - prev_exit.wall) * 1e3);
        m_.iter_gap_cpu_ms.push_back((enter.cpu - prev_exit.cpu) * 1e3);
      }
      prev_exit = Stamp::now();
      counts_at_prev_exit = top.counts();
      return;
    }
    // The SOP's writes: everything the engine-facing store saw since the
    // previous hook.
    const StoreCounts written = top.counts() - counts_at_prev_exit;
    const StoreCounts slow_before = slow.counts();
    // After the SOP: protect the new generation — encode the fast tier,
    // then drain it to PIOFS — waiting in IoScheduler::barrier for each.
    const double t0 = wall_s();
    const svc::EncodeTicket enc = svc::submit_encode(io, protect, fast);
    const double b0 = wall_s();
    io.barrier(protect);
    const double t1 = wall_s();
    const svc::DrainTicket drain = svc::submit_drain(io, protect, tiered);
    const double b1 = wall_s();
    io.barrier(protect);
    const Stamp exit = Stamp::now();
    const svc::EncodeReport er = enc.wait();
    const store::TieredBackend::DrainReport dr = drain.wait();
    report_.attempt(er.files_encoded > 0 && dr.files_drained > 0,
                    "SOP " + std::to_string(it) + " encoded or drained nothing");
    if (record) {
      m_.sop_gap_ms.push_back((exit.wall - prev_exit.wall) * 1e3);
      m_.sop_gap_cpu_ms.push_back((exit.cpu - prev_exit.cpu) * 1e3);
      layers_.add("store.encode_ms", (t1 - t0) * 1e3);
      layers_.add("store.drain_ms", (exit.wall - t1) * 1e3);
      layers_.add("store.drain_mb", static_cast<double>(dr.bytes_drained) / 1e6);
      layers_.add("svc.barrier_ms", ((t1 - b0) + (exit.wall - b1)) * 1e3);
      layers_.add("sop.protect_ms", (exit.wall - t0) * 1e3);
    }
    if (record && traced) {
      layers_.add("store.write_ops", static_cast<double>(written.write_ops));
      layers_.add("store.write_mb",
                  static_cast<double>(written.write_bytes) / 1e6);
      layers_.add("store.write_ms", static_cast<double>(written.write_ns) / 1e6);
      layers_.add("store.ns_ops", static_cast<double>(written.ns_ops));
      layers_.add("store.slow.write_mb",
                  static_cast<double>(
                      (slow.counts() - slow_before).write_bytes) / 1e6);
    }
    prev_exit = exit;
    counts_at_prev_exit = top.counts();
  };
  o.env.storage = &top;
  o.env.mode = core::CheckpointMode::kDrms;
  o.job_name = "sp";
  o.min_tasks = 1;
  o.preferred_tasks = kTasks;
  o.max_launches = 4;
  o.keep_last_k = 2;
  o.partial_restore = true;
  o.seed = mix(args_.seed, index);
  o.policy = &policy;
  o.backoff_base = std::chrono::microseconds(1);
  o.scheduler = &io;
  o.on_node_loss = [&](int node) {
    failure_at = Stamp::now();
    failed = true;
    at_failure_top = top.counts();
    at_failure_slow = slow.counts();
    fast.fail_node(node % kNodes);
    tiered.reconcile_fast_tier();
  };
  double scavenge_ms = 0.0;
  o.scavenge = [&] {
    const double t0 = wall_s();
    store::ScavengeReport sr = fast.scavenge();
    scavenge_ms += (wall_s() - t0) * 1e3;
    return sr;
  };

  recovery::FailureSchedule schedule;
  if (failure) {
    const std::uint64_t h = mix(args_.seed, 1000 + index);
    recovery::FailureEvent ev;
    ev.kind = recovery::FailureKind::kNodeLoss;
    ev.launch = 0;
    // After the only SOP (iterations 5-7): every job then recovers from
    // that generation and redoes the same work, so the seed changes when
    // and where the loss lands, not the job's cost. (A loss at an SOP
    // iteration would land before the benchmark encodes that generation
    // and force a full restore.)
    ev.at_iteration = kCheckpointEvery + 1 +
                      static_cast<std::int64_t>(h % (kCheckpointEvery - 1));
    ev.node_ordinal = static_cast<int>((h >> 32) % kTasks);
    schedule.events.push_back(ev);
  }

  recovery::RecoverySupervisor supervisor(cluster);
  const recovery::RecoveryReport rep = supervisor.run(o, schedule);

  std::string problem;
  if (!rep.completed) {
    problem = "did not complete";
  } else if (rep.outcome.field_crc == 0 ||
             (reference_crc_ != 0 && rep.outcome.field_crc != reference_crc_)) {
    problem = "field CRC differs from the failure-free run";
  }
  if (failure) {
    const bool one = rep.recoveries.size() == 1;
    const bool partial = one && rep.recoveries.front().partial;
    report_.attempt(partial, "job " + std::to_string(index) +
                                 ": expected one partial recovery, saw " +
                                 std::to_string(rep.recoveries.size()) +
                                 (one ? " full" : ""));
    if (!one && problem.empty()) {
      problem = "recovered " + std::to_string(rep.recoveries.size()) + " times";
    }
    if (record && one) {
      const recovery::RecoveryPhases& p = rep.recoveries.front();
      m_.restart_ms.push_back(static_cast<double>(p.resume_ns) / 1e6);
      layers_.add("recovery.detect_ms", static_cast<double>(p.detect_ns) / 1e6);
      layers_.add("recovery.select_ms", static_cast<double>(p.select_ns) / 1e6);
      layers_.add("recovery.verify_ms", static_cast<double>(p.verify_ns) / 1e6);
      layers_.add("recovery.reconfigure_ms",
                  static_cast<double>(p.reconfigure_ns) / 1e6);
      layers_.add("recovery.resume_ms", static_cast<double>(p.resume_ns) / 1e6);
      layers_.add("recovery.partial", p.partial ? 1.0 : 0.0);
      layers_.add("recovery.scavenge_ms", scavenge_ms);
      if (traced && rep.launches.size() == 2) {
        layers_.add("core.chain_depth",
                    static_cast<double>(
                        core::read_checkpoint_meta(
                            tiered, rep.launches.back().restart_prefix)
                            .chain_depth +
                        1));
      }
      layers_.add("recovery.accounted_ms",
                  static_cast<double>(p.total_ns()) / 1e6 + scavenge_ms);
    }
  }
  if (record) {
    const auto held = core::restart_candidates(tiered, kApp, kFilter);
    if (!held.empty()) {
      const double generation = static_cast<double>(tiered.total_size(held.front().prefix));
      m_.stored_per_state.push_back(
          (static_cast<double>(fast.used_bytes()) +
           static_cast<double>(piofs.total_size(kFilter))) /
          static_cast<double>(held.size()) / generation);
    }
    std::uint64_t items = 0;
    std::uint64_t failed_items = 0;
    double wait_s = 0.0;
    for (const svc::Priority p : {svc::Priority::kRestore,
                                  svc::Priority::kForeground,
                                  svc::Priority::kDrain}) {
      const svc::ClassStats cs = io.class_stats(p);
      items += cs.completed;
      failed_items += cs.failed;
      wait_s += cs.total_wait_seconds;
    }
    layers_.add("svc.items", static_cast<double>(items));
    layers_.add("svc.failed", static_cast<double>(failed_items));
    layers_.add("svc.queue_wait_ms", items > 0 ? wait_s * 1e3 / items : 0.0);
  }
  tracer_.end(jop);
  const Stamp job_end = Stamp::now();
  const bool ok = problem.empty();
  report_.attempt(ok, "job " + std::to_string(index) + ": " + problem);
  if (record) {
    m_.job_s.push_back(job_end.wall - job_start.wall);
    m_.job_cpu_s.push_back(job_end.cpu - job_start.cpu);
    (traced ? m_.job_traced_s : m_.job_untraced_s)
        .push_back(job_end.wall - job_start.wall);
  }
  return ok ? rep.outcome.field_crc : 0;
}

void SupervisedRun::report_end_to_end() {
  Report& r = report_;
  // SOP blocked time: the SOP iteration (checkpoint, retention, encode +
  // drain) minus a plain iteration's compute.
  const double iter_ms = median(m_.iter_gap_ms);
  const double iter_cpu = median(m_.iter_gap_cpu_ms);
  r.metric("setup_s", median(m_.setup_s), m_.setup_s.size());
  r.metric("ckpt_ms_p50", median(m_.sop_gap_ms) - iter_ms, m_.sop_gap_ms.size());
  r.metric("ckpt_cpu_ms", median(m_.sop_gap_cpu_ms) - iter_cpu,
           m_.sop_gap_cpu_ms.size());
  r.metric("restart_ms_p50", median(m_.restart_ms), m_.restart_ms.size());
  r.metric("restart_cpu_ms", median(m_.restart_cpu_ms), m_.restart_cpu_ms.size());
  r.metric("recover_ms_p50", median(m_.recover_ms), m_.recover_ms.size());
  r.metric("recover_cpu_ms", median(m_.recover_cpu_ms), m_.recover_cpu_ms.size());
  r.metric("job_s_p50", median(m_.job_s), m_.job_s.size());
  r.metric("job_cpu_s", median(m_.job_cpu_s), m_.job_cpu_s.size());
  r.metric("stored_per_state", mean(m_.stored_per_state),
           m_.stored_per_state.size());
  r.metric("peak_rss_mb", peak_rss_mb(), 1);
  r.info("# plain iteration " + std::to_string(iter_ms) + " ms wall, " +
         std::to_string(iter_cpu) + " ms CPU (n=" +
         std::to_string(m_.iter_gap_ms.size()) + ")");
  r.tail("recover_ms", m_.recover_ms, "ms");
  r.tail("job_s", m_.job_s, "s");
}

void SupervisedRun::report_layers() {
  Report& r = report_;
  const auto [launch_ms, join_ms] = probe_launch_join_ms(kTasks);
  const auto [gather, scatter] = probe_gather_scatter_gbps(kTasks);
  r.metric("rt.launch_ms", launch_ms, 50);
  r.metric("rt.join_ms", join_ms, 50);
  r.metric("rt.barrier_us", probe_barrier_us(kTasks), 1);
  r.metric("core.rounds", stream_rounds(kTasks), 1);
  r.metric("core.exchange_gbps", probe_exchange_gbps(kTasks), 1);
  r.metric("core.gather_gbps", gather, 1);
  r.metric("core.scatter_gbps", scatter, 1);
  r.metric("support.crc_gbps", probe_crc_gbps(), 1);

  // Checkpoint self time: SOP blocked time minus its store spans and the
  // scheduler-side protect work.
  const double blocked = median(m_.sop_gap_ms) - median(m_.iter_gap_ms);
  r.metric("core.ckpt_self_ms",
           blocked - median(layers_.of("store.write_ms")) -
               median(layers_.of("sop.protect_ms")),
           m_.sop_gap_ms.size());
  for (const char* name :
       {"core.restore_self_ms", "store.write_ops", "store.write_mb",
        "store.write_ms", "store.read_ops", "store.read_mb", "store.read_ms",
        "store.ns_ops", "store.slow.write_mb", "store.slow.read_mb",
        "store.drain_ms", "store.encode_ms", "store.drain_mb", "svc.items",
        "svc.failed", "svc.queue_wait_ms", "svc.barrier_ms",
        "recovery.detect_ms", "recovery.select_ms", "recovery.verify_ms",
        "recovery.reconfigure_ms", "recovery.resume_ms",
        "recovery.scavenge_ms", "recovery.restore_mb", "core.chain_depth"}) {
    layers_.report_median(r, name);
  }
  const auto& partial = layers_.of("recovery.partial");
  r.metric("recovery.partial_frac", mean(partial), partial.size());
  r.metric("apps.iter_ms", median(m_.iter_gap_ms), m_.iter_gap_ms.size());
  // The delta layers are not on this workload's path.
  for (const char* name : {"core.dirty_frac", "support.encode_gbps",
                           "support.decode_gbps", "support.codec_ratio"}) {
    r.metric(name, 0.0, 0);
  }
  const double untraced = median(m_.job_untraced_s);
  r.metric("obs.overhead_frac",
           untraced > 0.0 ? median(m_.job_traced_s) / untraced - 1.0 : 0.0,
           m_.job_s.size());
  // Residual: recovery wall (failure -> first resumed iteration) that
  // neither the supervisor's phase record nor the scavenge span accounts
  // for.
  const double wall = mean(m_.recover_ms);
  const double accounted = mean(layers_.of("recovery.accounted_ms"));
  r.metric("obs.residual_frac", wall > 0.0 ? 1.0 - accounted / wall : 0.0,
           m_.recover_ms.size());
  tracer_.write(args_.trace_out);
}

}  // namespace

int run_supervised_recovery(const Args& args, const Stamp& process_start) {
  require_thread_budget("supervised_recovery", kTasks + kShards);
  SupervisedRun run(args);
  return run.run(process_start);
}

}  // namespace perfbench
