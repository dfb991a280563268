// full_reconfig and delta_chain: checkpoint at 2 tasks, restart at 3.
//
// One long-lived 2-task group owns the application state. Each cycle it
// rewrites the state and takes the cycle's SOPs (1 full generation, or a
// full base plus 3 deltas); rank 0 then recovers the newest generation
// the way an operator would (catalog select, deep verify) and launches a
// fresh 3-task group that restores it, while rank 1 waits at a barrier.
// The 3-task group checks the restored arrays' canonical-stream CRCs
// against the checkpointed state and exits.
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/app_spec.hpp"
#include "core/checkpoint_catalog.hpp"
#include "core/checkpoint_format.hpp"
#include "core/drms_context.hpp"
#include "counting_backend.hpp"
#include "probes.hpp"
#include "rt/task_group.hpp"
#include "sim/machine.hpp"
#include "state.hpp"
#include "store/memory_backend.hpp"
#include "support/units.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = drms::core;
namespace rt = drms::rt;

namespace {

constexpr int kCkptTasks = 2;
constexpr int kRestartTasks = 3;
constexpr int kSetups = 5;
const std::string kApp = "SP";
const std::string kFilter = "sp.g";

struct Config {
  bool delta;
  int sops_per_cycle;
  Update update;
};

std::string generation(std::int64_t sop) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "sp.g%06lld", static_cast<long long>(sop));
  return buf;
}

drms::sim::Placement placement(int tasks) {
  return drms::sim::Placement::one_per_node(drms::sim::Machine::paper_sp16(),
                                            tasks);
}

void bump_max(std::atomic<double>& slot, double v) {
  double cur = slot.load();
  while (v > cur && !slot.compare_exchange_weak(cur, v)) {
  }
}

/// Everything rank 0 of the checkpointing group measures over a run.
struct Measured {
  std::vector<double> setup_s;
  // One entry per measured cycle.
  std::vector<double> ckpt_wall_ms, ckpt_cpu_ms;  // cycle mean per SOP
  std::vector<double> restart_wall_ms, restart_cpu_ms;
  std::vector<double> recover_wall_ms, recover_cpu_ms;
  std::vector<double> job_wall_s, job_cpu_s;
  std::vector<double> stored_per_state;
  // Per SOP, split by whether the op was traced (overhead check).
  std::vector<double> ckpt_traced_ms, ckpt_untraced_ms;
  std::uint64_t full_generation_bytes = 0;
};

class ReconfigRun {
 public:
  ReconfigRun(const Args& args, Config cfg)
      : args_(args), cfg_(cfg), tracer_(args.trace), report_(args.trace) {}

  int run(const Stamp& process_start);

 private:
  void body(rt::TaskContext& ctx, core::DrmsProgram& program,
            CountingBackend& store, drms::store::MemoryBackend& memory,
            const Stamp& setup_start, bool last);
  void cycle(rt::TaskContext& ctx, core::DrmsContext& drms,
             core::DrmsProgram& program, CountingBackend& store,
             drms::store::MemoryBackend& memory,
             const std::vector<core::DistArray*>& arrays, std::int64_t& sop,
             bool record);
  /// Rank 0 only: select + verify the newest generation and restore it on
  /// a fresh 3-task group; returns whether everything checked out.
  bool recover(core::DrmsProgram& program, CountingBackend& store,
               drms::store::MemoryBackend& memory,
               const std::vector<std::uint32_t>& expected, std::int64_t sop,
               bool record, bool traced);
  void report_end_to_end();
  void report_layers();

  Args args_;
  Config cfg_;
  Tracer tracer_;
  Report report_;
  drms::apps::AppSpec spec_ = drms::apps::AppSpec::sp();
  Measured m_;
  Samples layers_;
  std::int64_t cycles_ = 0;
  std::atomic<bool> stop_{false};
  double measure_start_ = 0.0;
  StealReading steal_at_start_;
};

int ReconfigRun::run(const Stamp& process_start) {
  for (int s = 0; s < kSetups; ++s) {
    const bool last = s == kSetups - 1;
    const Stamp setup_start = s == 0 ? process_start : Stamp::now();
    drms::store::MemoryBackend memory;  // unlimited, no cost model
    CountingBackend store(memory, "memory");
    core::DrmsEnv env;
    env.storage = &store;
    env.delta = cfg_.delta;
    env.delta_full_every_k = 4;
    env.delta_block_bytes = 256 * drms::support::kKiB;
    env.delta_codec = drms::support::BlockCodec::kLz;
    core::DrmsProgram program(kApp, env, spec_.segment_model(kGrid),
                              kCkptTasks);
    rt::TaskGroup group(placement(kCkptTasks), mix(args_.seed, 100 + s));
    const rt::TaskGroupResult result = group.run([&](rt::TaskContext& ctx) {
      body(ctx, program, store, memory, setup_start, last);
    });
    if (!result.completed) {
      std::string why = result.kill_reason;
      for (const auto& e : result.errors) {
        why += "; " + e;
      }
      report_.attempt(false, "checkpointing group failed: " + why);
      return report_.finish();
    }
  }
  report_.info(steal_since(steal_at_start_));
  if (args_.trace) {
    report_layers();
  } else {
    report_end_to_end();
  }
  return report_.finish();
}

void ReconfigRun::body(rt::TaskContext& ctx, core::DrmsProgram& program,
                       CountingBackend& store,
                       drms::store::MemoryBackend& memory,
                       const Stamp& setup_start, bool last) {
  core::DrmsContext drms(program, ctx);
  std::int64_t sop = 0;
  drms.store().register_i64("sop", &sop);
  drms.initialize();
  const std::vector<core::DistArray*> arrays = declare_arrays(drms, spec_);
  update_state(arrays, ctx.rank(), args_.seed, sop, cfg_.update, true);
  ctx.barrier();
  // Warm-up cycle: every path (engine buffers, restart group, codec) runs
  // once before anything is timed.
  cycle(ctx, drms, program, store, memory, arrays, sop, false);
  if (ctx.rank() == 0) {
    m_.setup_s.push_back(wall_s() - setup_start.wall);
    measure_start_ = wall_s();
    steal_at_start_ = read_steal();
  }
  if (!last) {
    return;
  }
  for (;;) {
    if (ctx.rank() == 0) {
      stop_.store(wall_s() - measure_start_ >= args_.seconds);
    }
    ctx.barrier();
    if (stop_.load()) {
      break;
    }
    cycle(ctx, drms, program, store, memory, arrays, sop, true);
  }
}

void ReconfigRun::cycle(rt::TaskContext& ctx, core::DrmsContext& drms,
                        core::DrmsProgram& program, CountingBackend& store,
                        drms::store::MemoryBackend& memory,
                        const std::vector<core::DistArray*>& arrays,
                        std::int64_t& sop, bool record) {
  const bool rank0 = ctx.rank() == 0;
  // Traced runs alternate traced and untraced cycles, so the tracing
  // overhead is measured inside one process.
  const bool traced = tracer_.enabled() && record && cycles_ % 2 == 0;
  Stamp job_start;
  if (rank0) {
    store.set_tracing(traced, tracer_.recorder());
    job_start = Stamp::now();
  }
  double ckpt_wall = 0.0;
  double ckpt_cpu = 0.0;
  bool cycle_ok = true;
  for (int i = 0; i < cfg_.sops_per_cycle; ++i) {
    ++sop;
    update_state(arrays, ctx.rank(), args_.seed, sop, cfg_.update, false);
    ctx.barrier();
    Tracer::Op op;
    Stamp a;
    StoreCounts before;
    std::int64_t a_ns = 0;
    if (rank0) {
      op = traced ? tracer_.begin("checkpoint") : Tracer::Op{};
      store.set_parent(static_cast<std::int64_t>(op.span), op.id);
      before = store.counts();
      a_ns = steady_ns();
      a = Stamp::now();
    }
    const core::ReconfigResult r = drms.reconfig_checkpoint(generation(sop));
    ctx.barrier();
    if (!rank0) {
      ctx.barrier();
      continue;
    }
    const Stamp b = Stamp::now();
    const std::int64_t b_ns = steady_ns();
    tracer_.end(op);
    const double wall = (b.wall - a.wall) * 1e3;
    ckpt_wall += wall;
    ckpt_cpu += (b.cpu - a.cpu) * 1e3;
    report_.attempt(r.checkpoint_written,
                    "checkpoint " + generation(sop) + " not written");
    cycle_ok = cycle_ok && r.checkpoint_written;
    if (m_.full_generation_bytes == 0) {
      m_.full_generation_bytes = memory.total_size(generation(sop));
    }
    if (cfg_.delta) {
      const core::DeltaChainState chain = program.delta_chain_state();
      if (record && chain.last_kind == core::GenerationKind::kDelta &&
          chain.last_total_blocks > 0) {
        layers_.add("core.dirty_frac",
                    static_cast<double>(chain.last_dirty_blocks) /
                        static_cast<double>(chain.last_total_blocks));
      }
    }
    // Retention: keep the newest generation's chain closure only.
    (void)core::gc_superseded_states(store, kApp, kFilter, 1);
    const StoreCounts used = store.counts() - before;
    if (record) {
      (traced ? m_.ckpt_traced_ms : m_.ckpt_untraced_ms).push_back(wall);
    }
    if (traced) {
      const double covered_ms = static_cast<double>(store.covered_ns(a_ns, b_ns)) / 1e6;
      layers_.add("core.ckpt_self_ms", wall - covered_ms);
      layers_.add("ckpt.covered_ms", covered_ms);
      layers_.add("ckpt.wall_ms", wall);
      layers_.add("store.write_ops", static_cast<double>(used.write_ops));
      layers_.add("store.write_mb", static_cast<double>(used.write_bytes) / 1e6);
      layers_.add("store.write_ms", static_cast<double>(used.write_ns) / 1e6);
      layers_.add("store.ns_ops", static_cast<double>(used.ns_ops));
    }
    ctx.barrier();  // retention done before the next write
  }

  const std::vector<std::uint32_t> expected = canonical_crcs(ctx, arrays);
  ctx.barrier();
  if (rank0) {
    cycle_ok = recover(program, store, memory, expected, sop, record,
                       traced) &&
               cycle_ok;
    const Stamp job_end = Stamp::now();
    report_.attempt(cycle_ok, "cycle ending at " + generation(sop));
    if (record) {
      const double n = cfg_.sops_per_cycle;
      m_.ckpt_wall_ms.push_back(ckpt_wall / n);
      m_.ckpt_cpu_ms.push_back(ckpt_cpu / n);
      m_.job_wall_s.push_back(job_end.wall - job_start.wall);
      m_.job_cpu_s.push_back(job_end.cpu - job_start.cpu);
      const auto held = core::restart_candidates(memory, kApp, kFilter);
      if (!held.empty() && m_.full_generation_bytes > 0) {
        m_.stored_per_state.push_back(
            static_cast<double>(memory.total_size(kFilter)) /
            static_cast<double>(held.size()) /
            static_cast<double>(m_.full_generation_bytes));
      }
      ++cycles_;
    }
  }
  ctx.barrier();
}

bool ReconfigRun::recover(core::DrmsProgram& program, CountingBackend& store,
                          drms::store::MemoryBackend& memory,
                          const std::vector<std::uint32_t>& expected,
                          std::int64_t sop, bool record, bool traced) {
  const Tracer::Op rop = traced ? tracer_.begin("recover") : Tracer::Op{};
  store.set_parent(static_cast<std::int64_t>(rop.span), rop.id);
  const StoreCounts before = store.counts();
  const Stamp r0 = Stamp::now();

  const Tracer::Op sel = traced ? tracer_.begin("select", &rop) : Tracer::Op{};
  const auto latest = core::latest_checkpoint(store, kApp, kFilter);
  tracer_.end(sel);
  const Stamp r1 = Stamp::now();
  if (!latest || latest->prefix != generation(sop)) {
    report_.attempt(false, "select did not return " + generation(sop));
    return false;
  }
  const Tracer::Op ver = traced ? tracer_.begin("verify", &rop) : Tracer::Op{};
  const core::VerifyResult verified =
      core::verify_checkpoint(store, *latest, /*deep=*/true);
  tracer_.end(ver);
  report_.attempt(verified.ok, "deep verify of " + latest->prefix + " failed");

  const Tracer::Op rs = traced ? tracer_.begin("restart", &rop) : Tracer::Op{};
  store.set_parent(static_cast<std::int64_t>(rs.span), rs.id);
  const StoreCounts at_launch = store.counts();
  const Stamp launch = Stamp::now();
  const std::int64_t launch_ns = steady_ns();
  core::DrmsEnv env = program.env();
  env.restart_prefix = latest->prefix;
  core::DrmsProgram restarted(kApp, env, spec_.segment_model(kGrid),
                              kRestartTasks);
  rt::TaskGroup group(placement(kRestartTasks),
                      mix(args_.seed, 7919 + static_cast<std::uint64_t>(sop)));
  std::atomic<double> last_in{0.0};
  std::atomic<double> last_out{0.0};
  Stamp resident;
  std::int64_t resident_ns = 0;
  std::vector<std::uint32_t> got;
  std::int64_t got_sop = -1;
  bool was_restarted = false;
  const double run_call = wall_s();
  const rt::TaskGroupResult result = group.run([&](rt::TaskContext& ctx) {
    bump_max(last_in, wall_s());
    core::DrmsContext drms(restarted, ctx);
    std::int64_t restored_sop = -1;
    drms.store().register_i64("sop", &restored_sop);
    drms.initialize();
    const std::vector<core::DistArray*> arrays = declare_arrays(drms, spec_);
    ctx.barrier();
    if (ctx.rank() == 0) {
      resident = Stamp::now();
      resident_ns = steady_ns();
      tracer_.end(rs);
    }
    const std::vector<std::uint32_t> crcs = canonical_crcs(ctx, arrays);
    if (ctx.rank() == 0) {
      got = crcs;
      got_sop = restored_sop;
      was_restarted = drms.restarted();
    }
    bump_max(last_out, wall_s());
  });
  const double returned = wall_s();
  tracer_.end(rop);

  const bool ok = result.completed && was_restarted && got_sop == sop &&
                  got == expected;
  report_.attempt(ok, "restart of " + latest->prefix + " at " +
                          std::to_string(kRestartTasks) +
                          " tasks: " +
                          (result.completed ? "canonical-stream CRC or "
                                              "restored SOP mismatch"
                                            : "restart group failed"));
  if (!result.completed || !record) {
    return ok && verified.ok;
  }
  const double wall_ms = (resident.wall - launch.wall) * 1e3;
  m_.restart_wall_ms.push_back(wall_ms);
  m_.restart_cpu_ms.push_back((resident.cpu - launch.cpu) * 1e3);
  m_.recover_wall_ms.push_back((resident.wall - r0.wall) * 1e3);
  m_.recover_cpu_ms.push_back((resident.cpu - r0.cpu) * 1e3);
  layers_.add("rt.launch_ms", (last_in.load() - run_call) * 1e3);
  layers_.add("rt.join_ms", (returned - last_out.load()) * 1e3);
  if (traced) {
    const StoreCounts used = store.counts() - before;
    const double covered_ms =
        static_cast<double>(store.covered_ns(launch_ns, resident_ns)) / 1e6;
    layers_.add("core.restore_self_ms", wall_ms - covered_ms);
    layers_.add("restore.covered_ms", covered_ms);
    layers_.add("restore.wall_ms", wall_ms);
    layers_.add("store.read_ops", static_cast<double>(used.read_ops));
    layers_.add("store.read_mb", static_cast<double>(used.read_bytes) / 1e6);
    layers_.add("store.read_ms", static_cast<double>(used.read_ns) / 1e6);
    layers_.add("recovery.select_ms", (r1.wall - r0.wall) * 1e3);
    layers_.add("recovery.verify_ms", (launch.wall - r1.wall) * 1e3);
    layers_.add("recovery.resume_ms", wall_ms);
    layers_.add("recovery.restore_mb",
                static_cast<double>((store.counts() - at_launch).read_bytes) /
                    1e6);
    layers_.add("core.chain_depth",
                static_cast<double>(
                    core::read_checkpoint_meta(memory, latest->prefix)
                        .chain_depth +
                    1));
  }
  return ok && verified.ok;
}

void ReconfigRun::report_end_to_end() {
  Report& r = report_;
  r.metric("setup_s", median(m_.setup_s), m_.setup_s.size());
  r.metric("ckpt_ms_p50", median(m_.ckpt_wall_ms), m_.ckpt_wall_ms.size());
  r.metric("ckpt_cpu_ms", median(m_.ckpt_cpu_ms), m_.ckpt_cpu_ms.size());
  r.metric("restart_ms_p50", median(m_.restart_wall_ms),
           m_.restart_wall_ms.size());
  r.metric("restart_cpu_ms", median(m_.restart_cpu_ms),
           m_.restart_cpu_ms.size());
  r.metric("recover_ms_p50", median(m_.recover_wall_ms),
           m_.recover_wall_ms.size());
  r.metric("recover_cpu_ms", median(m_.recover_cpu_ms),
           m_.recover_cpu_ms.size());
  r.metric("job_s_p50", median(m_.job_wall_s), m_.job_wall_s.size());
  r.metric("job_cpu_s", median(m_.job_cpu_s), m_.job_cpu_s.size());
  r.metric("stored_per_state", mean(m_.stored_per_state),
           m_.stored_per_state.size());
  r.metric("peak_rss_mb", peak_rss_mb(), 1);
  r.tail("ckpt_ms", m_.ckpt_wall_ms, "ms");
  r.tail("restart_ms", m_.restart_wall_ms, "ms");
}

void ReconfigRun::report_layers() {
  Report& r = report_;
  const CodecProbe codec =
      cfg_.delta ? probe_codec(args_.seed, 1) : CodecProbe{};
  const auto [gather, scatter] = probe_gather_scatter_gbps(kCkptTasks);
  const double exchange = probe_exchange_gbps(kCkptTasks);
  const double crc = probe_crc_gbps();
  const double barrier_us = probe_barrier_us(kCkptTasks);


  for (const char* name :
       {"rt.launch_ms", "rt.join_ms", "core.ckpt_self_ms",
        "core.restore_self_ms", "core.dirty_frac", "core.chain_depth",
        "store.write_ops", "store.write_mb", "store.write_ms",
        "store.read_ops", "store.read_mb", "store.read_ms", "store.ns_ops",
        "recovery.select_ms", "recovery.verify_ms", "recovery.resume_ms",
        "recovery.restore_mb"}) {
    layers_.report_median(r, name);
  }
  r.metric("rt.barrier_us", barrier_us, 1);
  r.metric("core.rounds", stream_rounds(kCkptTasks), 1);
  r.metric("core.exchange_gbps", exchange, 1);
  r.metric("core.gather_gbps", gather, 1);
  r.metric("core.scatter_gbps", scatter, 1);
  r.metric("support.crc_gbps", crc, 1);
  r.metric("support.encode_gbps", codec.encode_gbps, cfg_.delta ? 1 : 0);
  r.metric("support.decode_gbps", codec.decode_gbps, cfg_.delta ? 1 : 0);
  r.metric("support.codec_ratio", codec.ratio, cfg_.delta ? 1 : 0);
  // Layers this workload bypasses: zero by construction (the controls).
  for (const char* name :
       {"store.slow.write_mb", "store.slow.read_mb", "store.drain_ms",
        "store.encode_ms", "store.drain_mb", "svc.items", "svc.failed",
        "svc.queue_wait_ms", "svc.barrier_ms", "recovery.detect_ms",
        "recovery.reconfigure_ms", "recovery.partial_frac", "apps.iter_ms"}) {
    r.metric(name, 0.0, 0);
  }

  // Tracing overhead: traced vs untraced checkpoints of the same run.
  const double untraced = median(m_.ckpt_untraced_ms);
  r.metric("obs.overhead_frac",
           untraced > 0.0 ? median(m_.ckpt_traced_ms) / untraced - 1.0 : 0.0,
           m_.ckpt_traced_ms.size() + m_.ckpt_untraced_ms.size());

  // Residual: traced checkpoint + restart wall that neither the store
  // spans nor the probe-rated layers (gather/scatter, exchange, CRC,
  // codec, from computed bytes) account for. Negative when the pipelined
  // streamer overlaps layers.
  const double state_bytes = static_cast<double>(spec_.arrays_bytes(kGrid));
  const double dirty = cfg_.delta ? median(layers_.of("core.dirty_frac")) : 1.0;
  // Bytes per SOP and per restart through gather/scatter, exchange and
  // CRC; only delta blocks pass the codec (a cycle: 1 full + 3 deltas).
  const double ckpt_bytes =
      state_bytes * (cfg_.delta ? (1.0 + 3.0 * dirty) / 4.0 : 1.0);
  const double restore_bytes =
      state_bytes * (cfg_.delta ? 1.0 + 3.0 * dirty : 1.0);
  const double codec_ckpt_bytes = cfg_.delta ? state_bytes * 3.0 * dirty / 4.0 : 0.0;
  const double codec_restore_bytes = cfg_.delta ? state_bytes * 3.0 * dirty : 0.0;
  const double ckpt_layers_ms =
      1e3 * (ckpt_bytes * (1.0 / (gather * 1e9 * kCkptTasks) +
                           1.0 / (exchange * 1e9) +
                           1.0 / (crc * 1e9 * kCkptTasks)) +
             (cfg_.delta
                  ? codec_ckpt_bytes / (codec.encode_gbps * 1e9 * kCkptTasks)
                  : 0.0));
  const double restore_layers_ms =
      1e3 * (restore_bytes * (1.0 / (scatter * 1e9 * kRestartTasks) +
                              1.0 / (exchange * 1e9) +
                              1.0 / (crc * 1e9 * kRestartTasks)) +
             (cfg_.delta ? codec_restore_bytes /
                               (codec.decode_gbps * 1e9 * kRestartTasks)
                         : 0.0));
  double wall = 0.0;
  double accounted = 0.0;
  const auto& cw = layers_.of("ckpt.wall_ms");
  const auto& cc = layers_.of("ckpt.covered_ms");
  for (std::size_t i = 0; i < cw.size(); ++i) {
    wall += cw[i];
    accounted += cc[i] + ckpt_layers_ms;
  }
  const auto& rw = layers_.of("restore.wall_ms");
  const auto& rc = layers_.of("restore.covered_ms");
  for (std::size_t i = 0; i < rw.size(); ++i) {
    wall += rw[i];
    accounted += rc[i] + restore_layers_ms;
  }
  r.metric("obs.residual_frac", wall > 0.0 ? 1.0 - accounted / wall : 0.0,
           cw.size() + rw.size());
  r.info("# residual_frac: store spans + probe-rated layers from computed "
         "bytes (labelled computed, not measured per op)");
  r.metric("recovery.scavenge_ms", 0.0, 0);
  tracer_.write(args_.trace_out);
}

}  // namespace

int run_full_reconfig(const Args& args, const Stamp& process_start) {
  require_thread_budget("full_reconfig", kRestartTasks);
  ReconfigRun run(args, {false, 1, Update::kEveryComponent});
  return run.run(process_start);
}

int run_delta_chain(const Args& args, const Stamp& process_start) {
  require_thread_budget("delta_chain", kRestartTasks);
  ReconfigRun run(args, {true, 4, Update::kSolverLike});
  return run.run(process_start);
}

}  // namespace perfbench
