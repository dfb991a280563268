// Perf gate — block-level delta generations with the pipelined codec
// stage vs plain full dumps, on a BT-like steady state.
//
// Every array starts as a smooth solver-shaped field over its global
// (component, x, y, z) index. The application mutates its solution array
// everywhere each step (the raw-span path: conservative mark-all),
// touches only a thin slab of the rhs array (a precise insert: only the
// covered blocks go dirty), and never writes the forcing/lhs arrays after
// initialization. Under `env.delta` the engine stores one full base, then
// `full_every_k - 1` delta generations holding only the dirtied blocks,
// each run through the block codec inside the double-buffered streaming
// pass.
//
// Gates (exit 1 on failure):
//   bytes    steady-state delta generations write >= 30% fewer array
//            payload bytes than a full dump
//   time     their simulated checkpoint time is >= 10% below a full dump
//   restore  restarting from the chain tip reproduces the failure-free
//            canonical-stream CRCs of BOTH legs (each block taken from
//            the newest link that holds it)
//   reads    that restart reads fewer storage bytes than replaying every
//            link would: the base's array bytes plus every delta's
//            stored blocks
//   verify   deep verify of the chain tip walks the whole chain clean
//
// The table and BENCH_delta.json report the two reductions apart: dirty
// tracking (raw bytes of the dirty blocks against a full dump) and the
// codec (raw over stored bytes of those blocks). They also report the
// restart's storage reads and simulated time.
// The simulated-time tables of the paper runs are untouched: delta mode
// defaults off everywhere else.
#include <array>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint_catalog.hpp"
#include "core/drms_context.hpp"
#include "core/streamer.hpp"
#include "json_writer.hpp"
#include "piofs/volume.hpp"
#include "rt/task_group.hpp"
#include "sim/cost_model.hpp"
#include "solver_field.hpp"
#include "store/memory_backend.hpp"
#include "store/piofs_backend.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace {

using namespace drms;
using core::DistArray;
using core::DistSpec;
using core::DrmsContext;
using core::DrmsEnv;
using core::DrmsProgram;
using core::Index;
using support::format_fixed;
using support::kKiB;
using support::kMiB;

constexpr int kTasks = 8;
constexpr int kFullEveryK = 4;

struct Params {
  Index n = 32;
  int generations = 8;
};

core::Slice grid_box(Index n) {
  const std::array<Index, 4> lo{0, 0, 0, 0};
  const std::array<Index, 4> hi{4, n - 1, n - 1, n - 1};
  return core::Slice::box(lo, hi);
}

core::AppSegmentModel segment() {
  core::AppSegmentModel m;
  m.static_local_bytes = 8 * kMiB;
  m.private_bytes = kMiB;
  m.system_bytes = 4 * kMiB;
  m.text_bytes = kMiB;
  return m;
}

/// The BT-like step, identical in both legs: u rewritten everywhere
/// through the raw typed view (mark-all), one z-plane slab of rhs
/// updated through a precise insert, forcing and lhs untouched.
void mutate_step(DistArray& u, DistArray& rhs, int rank, int gen) {
  auto view = u.local(rank).as_f64();
  for (std::size_t i = 0; i < view.size(); ++i) {
    view[i] = view[i] * 1.01 + 0.125 * static_cast<double>(gen + 1);
  }

  const core::Slice& assigned = rhs.distribution().assigned(rank);
  if (assigned.empty()) {
    return;
  }
  std::vector<Index> lo;
  std::vector<Index> hi;
  for (int k = 0; k < assigned.rank(); ++k) {
    lo.push_back(assigned.range(k).first());
    hi.push_back(k == assigned.rank() - 1 ? assigned.range(k).first()
                                          : assigned.range(k).last());
  }
  const core::Slice slab = core::Slice::box(lo, hi);
  core::LocalArray& local = rhs.local(rank);
  std::vector<std::byte> buf(
      static_cast<std::size_t>(slab.element_count()) * sizeof(double));
  local.extract(slab, buf);
  auto* vals = reinterpret_cast<double*>(buf.data());
  for (std::size_t i = 0; i < buf.size() / sizeof(double); ++i) {
    vals[i] = vals[i] * 0.99 + 0.0625 * static_cast<double>(gen + 1);
  }
  local.insert(slab, buf);
}

/// COLLECTIVE: the CRC-32C of each array's canonical (column-major,
/// distribution-independent) element stream, identical on every task.
/// The untimed streamer writes the streams into `sink`, a scratch file.
std::vector<std::uint32_t> stream_crcs(rt::TaskContext& ctx,
                                       std::span<DistArray* const> arrays,
                                       const store::FileHandle& sink) {
  const core::ArrayStreamer streamer(nullptr, {});
  std::vector<std::uint32_t> crcs;
  for (DistArray* a : arrays) {
    std::uint32_t crc = 0;
    streamer.write_section(ctx, *a, a->global_box(), sink, 0, ctx.size(),
                           &crc);
    crcs.push_back(crc);
  }
  return crcs;
}

struct GenRecord {
  std::string kind;
  double seconds = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t dirty_blocks = 0;
  std::uint64_t total_blocks = 0;
};

struct LegResult {
  std::vector<GenRecord> gens;
  /// Canonical-stream CRCs of u, rhs, forcing, lhs after the last
  /// generation.
  std::vector<std::uint32_t> final_crcs;
  /// Delta leg only: the CRCs after restoring from the chain tip in a
  /// fresh program, and the chain-tip deep-verify outcome.
  std::vector<std::uint32_t> restored_crcs;
  bool verify_ok = true;
  std::vector<std::string> verify_problems;
  std::string tip_prefix;
  /// Delta leg only: storage bytes the restart read, what replaying every
  /// chain link whole would read, and the restart's simulated seconds.
  std::uint64_t restore_bytes_read = 0;
  std::uint64_t replay_all_bytes = 0;
  double restore_seconds = 0.0;
};

LegResult run_leg(bool delta, const Params& p) {
  piofs::Volume volume(16);
  const sim::CostModel cost = sim::CostModel::paper_sp16();
  store::PiofsBackend storage(volume, &cost);
  const std::string app = delta ? "delta-bench" : "full-bench";
  DrmsEnv env;
  env.storage = &storage;
  env.cost = &cost;
  env.delta = delta;
  env.delta_full_every_k = kFullEveryK;
  env.delta_block_bytes = 64 * kKiB;
  env.delta_codec = support::BlockCodec::kLz;
  DrmsProgram program(app, env, segment(), kTasks);
  store::MemoryBackend scratch;
  const store::FileHandle sink = scratch.create("stream");

  LegResult result;
  const std::array<int, 4> grid{1, 2, 2, 2};
  const std::array<Index, 4> shadow{0, 0, 0, 0};
  const DistSpec spec = DistSpec::block(grid_box(p.n), grid, shadow);

  rt::TaskGroup group(
      sim::Placement::one_per_node(sim::Machine::paper_sp16(), kTasks));
  const auto run = group.run([&](rt::TaskContext& ctx) {
    DrmsContext drms(program, ctx);
    std::int64_t it = 0;
    drms.store().register_i64("it", &it);
    drms.initialize();

    std::vector<Index> lo(4, 0);
    std::vector<Index> hi{4, p.n - 1, p.n - 1, p.n - 1};
    DistArray& u = drms.create_array("u", lo, hi);
    DistArray& rhs = drms.create_array("rhs", lo, hi);
    DistArray& forcing = drms.create_array("forcing", lo, hi);
    DistArray& lhs = drms.create_array("lhs", lo, hi);
    const std::array<DistArray*, 4> arrays{&u, &rhs, &forcing, &lhs};
    for (std::size_t a = 0; a < arrays.size(); ++a) {
      drms.distribute(*arrays[a], spec);
      core::LocalArray& local = arrays[a]->local(ctx.rank());
      spec.assigned(ctx.rank()).for_each_column_major(
          [&](std::span<const Index> p) {
            local.set_f64(p, bench::solver_value(a, p));
          });
    }
    ctx.barrier();

    const std::uint64_t all_array_bytes = 4 * u.global_byte_count();
    for (int g = 0; g < p.generations; ++g) {
      mutate_step(u, rhs, ctx.rank(), g);
      ++it;
      ctx.barrier();
      char name[32];
      std::snprintf(name, sizeof(name), "%s.g%03d", app.c_str(), g);
      (void)drms.reconfig_checkpoint(name);
      if (ctx.rank() == 0) {
        GenRecord rec;
        rec.seconds = program.last_checkpoint_timing().total_seconds();
        if (delta) {
          const auto state = program.delta_chain_state();
          rec.kind = core::to_string(state.last_kind);
          rec.bytes = state.last_stored_bytes;
          rec.raw_bytes = state.last_raw_bytes;
          rec.dirty_blocks = state.last_dirty_blocks;
          rec.total_blocks = state.last_total_blocks;
        } else {
          rec.kind = "full";
          rec.bytes = all_array_bytes;
          rec.raw_bytes = all_array_bytes;
        }
        result.gens.push_back(rec);
        result.tip_prefix = name;
      }
      ctx.barrier();
    }
    const std::vector<std::uint32_t> crcs = stream_crcs(ctx, arrays, sink);
    if (ctx.rank() == 0) {
      result.final_crcs = crcs;
    }
  });
  if (!run.completed) {
    throw support::Error("delta bench write leg failed: " + run.kill_reason);
  }
  if (!delta) {
    return result;
  }

  // Deep verify walks the chain from the tip: the tip's own delta files,
  // then every base link down to the full generation.
  const auto tip = core::latest_checkpoint(storage, app);
  if (!tip.has_value() || tip->prefix != result.tip_prefix) {
    result.verify_ok = false;
    result.verify_problems.push_back("chain tip is not the newest candidate");
  } else {
    const core::VerifyResult v =
        core::verify_checkpoint(storage, *tip, /*deep=*/true);
    result.verify_ok = v.ok;
    result.verify_problems = v.problems;
  }

  // Replaying every link would read the base's arrays whole and every
  // delta's stored blocks.
  const std::vector<std::string> chain =
      core::resolve_checkpoint_chain(storage, result.tip_prefix);
  for (const std::string& link : chain) {
    for (const core::ArrayMeta& am :
         core::read_checkpoint_meta(storage, link).arrays) {
      result.replay_all_bytes +=
          link == chain.front() ? am.stream_bytes : am.stored_bytes;
    }
  }

  // Restore leg: a fresh program restarts from the chain tip and must
  // reproduce the failure-free stream CRCs exactly.
  const std::uint64_t read_before = storage.stats().bytes_read;
  DrmsEnv renv = env;
  renv.restart_prefix = result.tip_prefix;
  DrmsProgram restarted(app, renv, segment(), kTasks);
  rt::TaskGroup rgroup(
      sim::Placement::one_per_node(sim::Machine::paper_sp16(), kTasks));
  const auto rrun = rgroup.run([&](rt::TaskContext& ctx) {
    DrmsContext drms(restarted, ctx);
    std::int64_t it = 0;
    drms.store().register_i64("it", &it);
    drms.initialize();
    std::vector<Index> lo(4, 0);
    std::vector<Index> hi{4, p.n - 1, p.n - 1, p.n - 1};
    DistArray& u = drms.create_array("u", lo, hi);
    DistArray& rhs = drms.create_array("rhs", lo, hi);
    DistArray& forcing = drms.create_array("forcing", lo, hi);
    DistArray& lhs = drms.create_array("lhs", lo, hi);
    for (DistArray* a : {&u, &rhs, &forcing, &lhs}) {
      drms.distribute(*a, spec);
    }
    ctx.barrier();
    const std::array<DistArray*, 4> arrays{&u, &rhs, &forcing, &lhs};
    const std::vector<std::uint32_t> crcs = stream_crcs(ctx, arrays, sink);
    if (ctx.rank() == 0) {
      result.restored_crcs = crcs;
    }
  });
  if (!rrun.completed) {
    throw support::Error("delta bench restore leg failed: " +
                         rrun.kill_reason);
  }
  result.restore_bytes_read = storage.stats().bytes_read - read_before;
  result.restore_seconds = restarted.last_restart_timing().total_seconds();
  return result;
}

/// Mean of `field` over the generations the predicate selects.
template <typename Pred, typename Field>
double mean(const LegResult& leg, Pred&& pred, Field&& field) {
  double sum = 0.0;
  int count = 0;
  for (const GenRecord& g : leg.gens) {
    if (pred(g)) {
      sum += static_cast<double>(field(g));
      ++count;
    }
  }
  return count > 0 ? sum / count : 0.0;
}

void write_json(const std::string& path, const Params& p,
                const LegResult& full, const LegResult& delta,
                double bytes_reduction, double dirty_reduction,
                double codec_ratio, double time_reduction, bool restore_ok,
                bool fingerprints_match) {
  std::ofstream out(path);
  bench::JsonWriter json(out);
  json.begin_object();
  json.field("benchmark", "delta_generations");
  json.field("tasks", kTasks);
  json.field("n", static_cast<std::uint64_t>(p.n));
  json.field("generations", p.generations);
  json.field("full_every_k", kFullEveryK);
  json.field("block_bytes", static_cast<std::uint64_t>(64 * kKiB));
  json.field("codec", "lz");
  for (const auto* leg : {&full, &delta}) {
    json.begin_array(leg == &full ? "full" : "delta");
    for (const GenRecord& g : leg->gens) {
      json.begin_object();
      json.field("kind", g.kind);
      json.field("seconds", g.seconds);
      json.field("bytes", g.bytes);
      json.field("raw_bytes", g.raw_bytes);
      json.field("dirty_blocks", g.dirty_blocks);
      json.field("total_blocks", g.total_blocks);
      json.end_object();
    }
    json.end_array();
  }
  json.field("dirty_tracking_reduction_percent", dirty_reduction);
  json.field("codec_ratio", codec_ratio);
  json.field("restore_bytes_read", delta.restore_bytes_read);
  json.field("restore_replay_all_bytes", delta.replay_all_bytes);
  json.field("restore_seconds", delta.restore_seconds);
  json.begin_object("gates");
  json.field("bytes_reduction_percent", bytes_reduction);
  json.field("time_reduction_percent", time_reduction);
  json.field("restore_fingerprints_match", restore_ok);
  json.field("cross_leg_fingerprints_match", fingerprints_match);
  json.field("chain_deep_verify_ok", delta.verify_ok);
  json.field("restore_reads_below_replay_all",
             delta.restore_bytes_read < delta.replay_all_bytes);
  json.end_object();
  json.end_object();
  out << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      p.n = 16;
      p.generations = 6;
    }
  }

  std::cout << "Delta generations vs full dumps (BT-like steady state: u "
               "fully dirty,\none rhs z-plane dirty, forcing/lhs frozen; "
               "full base every " << kFullEveryK << " generations)\n\n";

  const LegResult full = run_leg(/*delta=*/false, p);
  const LegResult delta = run_leg(/*delta=*/true, p);

  // "dirty" is what dirty tracking saves (raw bytes of the dirty blocks
  // against a full dump), "codec" what the codec then saves (raw over
  // stored bytes), "saved" both together.
  const auto percent_below = [](double base, double v) {
    return base > 0.0 ? 100.0 * (base - v) / base : 0.0;
  };
  const auto ratio = [](double raw, double stored) {
    return stored > 0.0 ? raw / stored : 0.0;
  };
  support::TextTable table({"gen", "kind", "full (s)", "full (MB)",
                            "delta (s)", "delta (MB)", "blocks", "dirty",
                            "codec", "saved"});
  for (std::size_t i = 0; i < full.gens.size(); ++i) {
    const GenRecord& f = full.gens[i];
    const GenRecord& d = delta.gens[i];
    const auto fb = static_cast<double>(f.bytes);
    const auto db = static_cast<double>(d.bytes);
    const auto dr = static_cast<double>(d.raw_bytes);
    table.add_row({std::to_string(i + 1), d.kind, format_fixed(f.seconds, 2),
                   format_fixed(support::to_mib(f.bytes), 2),
                   format_fixed(d.seconds, 2),
                   format_fixed(support::to_mib(d.bytes), 2),
                   std::to_string(d.dirty_blocks) + "/" +
                       std::to_string(d.total_blocks),
                   format_fixed(percent_below(fb, dr), 0) + "%",
                   format_fixed(ratio(dr, db), 2) + "x",
                   format_fixed(percent_below(fb, db), 0) + "%"});
  }
  table.print(std::cout);

  const auto is_delta = [](const GenRecord& g) { return g.kind == "delta"; };
  const auto any = [](const GenRecord&) { return true; };
  const auto bytes = [](const GenRecord& g) { return g.bytes; };
  const auto raw_bytes = [](const GenRecord& g) { return g.raw_bytes; };
  const auto seconds = [](const GenRecord& g) { return g.seconds; };
  const double full_bytes = mean(full, any, bytes);
  const double delta_bytes = mean(delta, is_delta, bytes);
  const double delta_raw = mean(delta, is_delta, raw_bytes);
  const double full_seconds = mean(full, any, seconds);
  const double delta_seconds = mean(delta, is_delta, seconds);
  const double bytes_reduction = percent_below(full_bytes, delta_bytes);
  const double dirty_reduction = percent_below(full_bytes, delta_raw);
  const double codec_ratio = ratio(delta_raw, delta_bytes);
  const double time_reduction = percent_below(full_seconds, delta_seconds);
  const bool fingerprints_match = full.final_crcs == delta.final_crcs;
  const bool restore_ok = !delta.restored_crcs.empty() &&
                          delta.restored_crcs == delta.final_crcs;

  std::cout << "\nsteady-state delta generation: "
            << format_fixed(bytes_reduction, 1) << "% fewer bytes ("
            << format_fixed(dirty_reduction, 1)
            << "% from dirty tracking, codec ratio "
            << format_fixed(codec_ratio, 2) << "x), "
            << format_fixed(time_reduction, 1)
            << "% less simulated checkpoint time than a full dump\n";
  std::cout << "restore from the chain tip: read " << delta.restore_bytes_read
            << " B (replaying every link: " << delta.replay_all_bytes
            << " B), " << format_fixed(delta.restore_seconds, 2)
            << " s simulated\n";

  write_json("BENCH_delta.json", p, full, delta, bytes_reduction,
             dirty_reduction, codec_ratio, time_reduction, restore_ok,
             fingerprints_match);
  std::cout << "wrote BENCH_delta.json\n";

  bool ok = true;
  if (bytes_reduction < 30.0) {
    std::cerr << "REGRESSION: delta generations only save "
              << format_fixed(bytes_reduction, 1)
              << "% of the bytes written (expected >= 30%)\n";
    ok = false;
  }
  if (time_reduction < 10.0) {
    std::cerr << "REGRESSION: delta generations only save "
              << format_fixed(time_reduction, 1)
              << "% of the checkpoint time (expected >= 10%)\n";
    ok = false;
  }
  if (!fingerprints_match) {
    std::cerr << "REGRESSION: the delta leg's final state differs from the "
                 "full leg's\n";
    ok = false;
  }
  if (!restore_ok) {
    std::cerr << "REGRESSION: restoring from the chain tip ("
              << delta.tip_prefix
              << ") did not reproduce the failure-free stream CRCs\n";
    ok = false;
  }
  if (delta.restore_bytes_read >= delta.replay_all_bytes) {
    std::cerr << "REGRESSION: restoring from the chain tip read "
              << delta.restore_bytes_read
              << " B, no fewer than replaying every link ("
              << delta.replay_all_bytes << " B)\n";
    ok = false;
  }
  if (!delta.verify_ok) {
    std::cerr << "REGRESSION: deep verify of the chain tip failed:\n";
    for (const std::string& s : delta.verify_problems) {
      std::cerr << "  " << s << "\n";
    }
    ok = false;
  }
  if (ok) {
    std::cout << "all delta gates passed (>= 30% bytes, >= 10% time, "
                 "restore + verify clean)\n";
  }
  return ok ? 0 : 1;
}
