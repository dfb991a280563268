// Data-plane microbenchmark — host wall-clock throughput of the byte-
// moving layers under the checkpoint engines, at the paper's 64^3 array
// shape:
//
//   crc          CRC-32C kernels (bytewise / slicing-by-16 / hardware)
//                over a 64 MiB buffer, plus the runtime-dispatched one
//   gather       LocalArray::extract into a stream-ordered buffer (the
//                whole block, and one stream chunk of a shadowed SP local)
//   scatter      LocalArray::insert back from the stream
//   exchange     one exchange_sections round across an 8-task group
//   checkpoint   full DrmsCheckpoint write / restore against the memory
//                backend (null cost model: pure host data plane)
//   codec        kLz encode and decode of one SP stream chunk of
//                solver-shaped doubles (incompressible: the encoder's
//                skip path) and of a compressible block, with the ratio
//
// All numbers are HOST wall-clock GB/s — the simulated-time tables are
// untouched by definition (this bench charges no simulated seconds). A
// machine-readable BENCH_dataplane.json is written alongside the table.
// Exit status is 1 when the dispatched CRC kernel fails to beat the
// bytewise reference by at least 4x (the hardware/slicing paths are the
// point of the fast data plane).
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "core/drms_checkpoint.hpp"
#include "core/exchange.hpp"
#include "core/streamer.hpp"
#include "json_writer.hpp"
#include "obs/instrumented_backend.hpp"
#include "obs/recorder.hpp"
#include "obs/trace_export.hpp"
#include "rt/task_group.hpp"
#include "sim/machine.hpp"
#include "solver_field.hpp"
#include "store/memory_backend.hpp"
#include "support/block_codec.hpp"
#include "support/crc32.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace {

using namespace drms;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double gbps(std::uint64_t bytes, double seconds) {
  return seconds <= 0.0 ? 0.0
                        : static_cast<double>(bytes) / seconds / 1.0e9;
}

std::string fmt_gbps(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Deterministic non-trivial fill (no RNG state shared with the
/// simulation paths).
void fill_pattern(std::span<std::byte> out) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < out.size(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<std::byte>(x);
  }
}

/// Run `body` enough times to accumulate a measurable interval; returns
/// wall seconds per call.
template <typename F>
double time_per_call(int reps, F&& body) {
  body();  // warm-up (page in buffers, resolve dispatch)
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) {
    body();
  }
  return seconds_since(t0) / reps;
}

struct CrcResult {
  std::string kernel;
  bool available = false;
  double gb_per_s = 0.0;
  double speedup_vs_bytewise = 0.0;
};

std::vector<CrcResult> bench_crc(std::uint64_t buffer_bytes, int reps) {
  std::vector<std::byte> buffer(static_cast<std::size_t>(buffer_bytes));
  fill_pattern(buffer);

  const std::uint32_t reference =
      support::crc32c(support::Crc32cKernel::kBytewise, buffer);

  std::vector<CrcResult> results;
  double bytewise_gbps = 0.0;
  for (const auto kernel : {support::Crc32cKernel::kBytewise,
                            support::Crc32cKernel::kSlicing16,
                            support::Crc32cKernel::kHardware}) {
    CrcResult r;
    r.kernel = support::to_string(kernel);
    r.available = support::crc32c_kernel_available(kernel);
    if (r.available) {
      // Every kernel must agree before being timed — a fast wrong answer
      // is worthless.
      if (support::crc32c(kernel, buffer) != reference) {
        std::cerr << "FATAL: kernel " << r.kernel
                  << " disagrees with the bytewise reference\n";
        std::exit(1);
      }
      volatile std::uint32_t sink = 0;
      const double per_call = time_per_call(
          kernel == support::Crc32cKernel::kBytewise ? std::max(1, reps / 8)
                                                     : reps,
          [&] { sink = support::crc32c(kernel, buffer); });
      (void)sink;
      r.gb_per_s = gbps(buffer_bytes, per_call);
      if (kernel == support::Crc32cKernel::kBytewise) {
        bytewise_gbps = r.gb_per_s;
      }
      r.speedup_vs_bytewise =
          bytewise_gbps > 0.0 ? r.gb_per_s / bytewise_gbps : 0.0;
    }
    results.push_back(r);
  }
  // The kernel the data plane actually uses.
  CrcResult active;
  active.kernel = std::string("dispatched(") +
                  support::to_string(support::crc32c_active_kernel()) + ")";
  active.available = true;
  volatile std::uint32_t sink = 0;
  const double per_call =
      time_per_call(reps, [&] { sink = support::crc32c(buffer); });
  (void)sink;
  active.gb_per_s = gbps(buffer_bytes, per_call);
  active.speedup_vs_bytewise =
      bytewise_gbps > 0.0 ? active.gb_per_s / bytewise_gbps : 0.0;
  results.push_back(active);
  return results;
}

struct PlainResult {
  std::string name;
  std::uint64_t bytes_per_call = 0;
  double gb_per_s = 0.0;
};

/// extract/insert over the paper shape: one task's 64^3 double block.
/// The sub-slice is the whole local, so each call is one run.
std::vector<PlainResult> bench_gather_scatter(int reps) {
  const core::Slice box = core::Slice::box(
      std::vector<core::Index>{0, 0, 0}, std::vector<core::Index>{63, 63, 63});
  core::LocalArray local(box, sizeof(double));
  fill_pattern(local.bytes());
  std::vector<std::byte> stream(local.byte_size());

  std::vector<PlainResult> out;
  {
    PlainResult r;
    r.name = "gather (extract)";
    r.bytes_per_call = local.byte_size();
    const double per_call =
        time_per_call(reps, [&] { local.extract(box, stream); });
    r.gb_per_s = gbps(r.bytes_per_call, per_call);
    out.push_back(r);
  }
  {
    PlainResult r;
    r.name = "scatter (insert)";
    r.bytes_per_call = local.byte_size();
    const double per_call =
        time_per_call(reps, [&] { local.insert(box, stream); });
    r.gb_per_s = gbps(r.bytes_per_call, per_call);
    out.push_back(r);
  }
  return out;
}

/// extract of the first 1 MiB stream chunk from task 0's local of an
/// SP-shaped array: 5 components of 64^3 doubles, block-split over 2
/// tasks along x with SP's 1-cell shadow. The chunk piece spans x of the
/// assigned section only, one cell short of the mapped one, so runs stop
/// at (component, x) rows of 1280 bytes: the partial-axis path, where a
/// whole-box extract is a single run.
PlainResult bench_gather_sp_chunk(int reps) {
  const core::Slice box = core::Slice::box(
      std::vector<core::Index>{0, 0, 0, 0},
      std::vector<core::Index>{4, 63, 63, 63});
  const core::DistSpec dist = core::DistSpec::block(
      box, std::vector<int>{1, 2, 1, 1}, std::vector<core::Index>{0, 1, 1, 1});
  core::LocalArray local(dist.mapped(0), sizeof(double));
  fill_pattern(local.bytes());
  const core::StreamPlan plan =
      core::make_stream_plan(box, sizeof(double), 2, support::kMiB);
  const core::Slice piece = plan.chunks.front().intersect(dist.assigned(0));
  std::vector<std::byte> stream(
      static_cast<std::size_t>(piece.element_count()) * sizeof(double));

  PlainResult r;
  r.name = "gather SP stream chunk (2 tasks)";
  r.bytes_per_call = stream.size();
  const double per_call =
      time_per_call(reps, [&] { local.extract(piece, stream); });
  r.gb_per_s = gbps(r.bytes_per_call, per_call);
  return r;
}

struct CodecResult {
  std::string name;
  std::uint64_t bytes_per_call = 0;
  double encode_gb_per_s = 0.0;
  double decode_gb_per_s = 0.0;
  double ratio = 0.0;  // raw over stored bytes
};

/// kLz both ways over one block, GB/s of raw bytes.
CodecResult bench_codec(std::string name, std::span<const std::byte> block,
                        int reps) {
  support::ByteBuffer stored;
  support::BlockCodec used = support::BlockCodec::kRaw;
  const double encode = time_per_call(reps, [&] {
    stored.clear();
    used = support::block_encode(support::BlockCodec::kLz, block, stored);
  });
  support::ByteBuffer decoded;
  const double decode = time_per_call(reps, [&] {
    decoded.clear();
    support::block_decode(used, stored.bytes(), block.size(), decoded);
  });
  CodecResult r;
  r.name = std::move(name);
  r.bytes_per_call = block.size();
  r.encode_gb_per_s = gbps(block.size(), encode);
  r.decode_gb_per_s = gbps(block.size(), decode);
  r.ratio = static_cast<double>(block.size()) /
            static_cast<double>(stored.size());
  return r;
}

/// The codec on the first stream chunk (640 KiB under a 1 MiB target) of
/// an SP-shaped array of solver-shaped doubles one step after their
/// initial values (no match: the encoder's skip path), and on a
/// compressible block of the same size: those values rounded to float
/// precision, whose low mantissa bytes are zero.
std::vector<CodecResult> bench_codec_blocks(int reps) {
  const core::Slice box = core::Slice::box(
      std::vector<core::Index>{0, 0, 0, 0},
      std::vector<core::Index>{4, 63, 63, 63});
  const core::StreamPlan plan =
      core::make_stream_plan(box, sizeof(double), 2, support::kMiB);
  std::vector<double> chunk;
  std::vector<double> rounded;
  plan.chunks.front().for_each_column_major(
      [&](std::span<const core::Index> p) {
        chunk.push_back(bench::solver_value(0, p, 0.37e-6));
        rounded.push_back(static_cast<float>(chunk.back()));
      });
  return {bench_codec("lz SP stream chunk",
                      std::as_bytes(std::span<const double>(chunk)), reps),
          bench_codec("lz float-precision chunk",
                      std::as_bytes(std::span<const double>(rounded)), reps)};
}

/// One parallel-write exchange round on an 8-task group: block-distributed
/// 64^3 array redistributed into the canonical per-chunk staging locals.
PlainResult bench_exchange(int reps) {
  constexpr int kTasks = 8;
  const core::Slice box = core::Slice::box(
      std::vector<core::Index>{0, 0, 0}, std::vector<core::Index>{63, 63, 63});
  const std::uint64_t total_bytes =
      static_cast<std::uint64_t>(box.element_count()) * sizeof(double);

  rt::TaskGroup group(
      sim::Placement::one_per_node(sim::Machine::paper_sp16(), kTasks));
  core::DistArray array("u", box, sizeof(double), kTasks);

  // Round 0 of an 8-wide stream plan: task q stages chunk q.
  const core::StreamPlan plan =
      core::make_stream_plan(box, sizeof(double), kTasks,
                             total_bytes / kTasks + 1);
  double per_call = 0.0;
  const auto result = group.run([&](rt::TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(core::DistSpec::block_auto(
          box, kTasks, std::vector<core::Index>(3, 0)));
    }
    ctx.barrier();
    fill_pattern(array.local(ctx.rank()).bytes());
    ctx.barrier();

    const core::Slice empty = core::Slice::empty_of_rank(3);
    std::vector<core::Slice> dst_mapped(kTasks, empty);
    for (int q = 0; q < kTasks; ++q) {
      if (static_cast<std::size_t>(q) < plan.chunk_count()) {
        dst_mapped[static_cast<std::size_t>(q)] =
            plan.chunks[static_cast<std::size_t>(q)];
      }
    }
    const core::Slice& mine =
        dst_mapped[static_cast<std::size_t>(ctx.rank())];
    core::LocalArray staging =
        mine.empty() ? core::LocalArray()
                     : core::LocalArray(mine, sizeof(double));
    const std::vector<core::Slice> src_assigned =
        array.distribution().assigned_slices();

    const auto run_once = [&] {
      core::exchange_sections(
          ctx, src_assigned, &array.local(ctx.rank()), dst_mapped,
          staging.element_count() > 0 ? &staging : nullptr, sizeof(double));
    };
    run_once();  // warm-up
    ctx.barrier();
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      run_once();
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      per_call = seconds_since(t0) / reps;
    }
  });
  if (!result.completed) {
    std::cerr << "FATAL: exchange bench group did not complete\n";
    std::exit(1);
  }

  PlainResult r;
  r.name = "exchange round (8 tasks)";
  r.bytes_per_call = total_bytes;
  r.gb_per_s = gbps(r.bytes_per_call, per_call);
  return r;
}

/// Full checkpoint write and restore of a 64^3 double array through the
/// DRMS engine against the in-memory backend (null cost model — the run
/// is pure host data plane: exchange, CRC, write_at, read_at_into).
std::vector<PlainResult> bench_checkpoint(int reps) {
  constexpr int kTasks = 8;
  const core::Slice box = core::Slice::box(
      std::vector<core::Index>{0, 0, 0}, std::vector<core::Index>{63, 63, 63});
  const std::uint64_t array_bytes =
      static_cast<std::uint64_t>(box.element_count()) * sizeof(double);

  store::MemoryBackend backend;  // unlimited, no cost model
  core::DrmsCheckpoint engine(backend, {}, kTasks);
  core::AppSegmentModel segment;
  segment.private_bytes = 1 * support::kMiB;

  rt::TaskGroup group(
      sim::Placement::one_per_node(sim::Machine::paper_sp16(), kTasks));
  core::DistArray array("u", box, sizeof(double), kTasks);
  std::int64_t sop = 42;
  core::ReplicatedStore store;
  store.register_i64("sop", &sop);

  double write_per_call = 0.0;
  double restore_per_call = 0.0;
  const auto result = group.run([&](rt::TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(core::DistSpec::block_auto(
          box, kTasks, std::vector<core::Index>(3, 0)));
    }
    ctx.barrier();
    fill_pattern(array.local(ctx.rank()).bytes());
    ctx.barrier();

    core::DistArray* arrays[] = {&array};
    const auto write_once = [&] {
      engine.write(ctx, "bench/ckpt", "bench", sop, store, arrays, segment);
    };
    write_once();  // warm-up; also leaves a checkpoint for the reads
    ctx.barrier();
    auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      write_once();
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      write_per_call = seconds_since(t0) / reps;
    }

    const auto restore_once = [&] {
      core::RestartTiming timing;
      const core::CheckpointMeta meta =
          engine.restore_segment(ctx, "bench/ckpt", store, segment, timing);
      const core::CheckpointChain chain =
          core::resolve_checkpoint_chain(backend, "bench/ckpt", meta);
      engine.restore_array(ctx, meta, chain, array, timing);
    };
    restore_once();  // warm-up
    ctx.barrier();
    t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      restore_once();
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      restore_per_call = seconds_since(t0) / reps;
    }
  });
  if (!result.completed) {
    std::cerr << "FATAL: checkpoint bench group did not complete\n";
    std::exit(1);
  }

  std::vector<PlainResult> out;
  out.push_back({"checkpoint write (DRMS, memory)", array_bytes,
                 gbps(array_bytes, write_per_call)});
  out.push_back({"checkpoint restore (DRMS, memory)", array_bytes,
                 gbps(array_bytes, restore_per_call)});
  return out;
}

/// --trace: one extra (untimed) checkpoint write + restore with the
/// recorder attached and the store instrumented, dumped as a Chrome
/// trace. Runs after the timed loops so the recording cost (span
/// bookkeeping, store wrapping) cannot touch the reported numbers.
void trace_checkpoint(const std::string& path) {
  constexpr int kTasks = 8;
  const core::Slice box = core::Slice::box(
      std::vector<core::Index>{0, 0, 0}, std::vector<core::Index>{63, 63, 63});

  obs::Recorder recorder;
  store::MemoryBackend memory;
  obs::InstrumentedBackend backend(memory, &recorder, "memory");
  core::DrmsCheckpoint engine(backend, {}, /*io_tasks=*/0, support::kMiB,
                              /*jitter=*/false, &recorder);
  core::AppSegmentModel segment;
  segment.private_bytes = 1 * support::kMiB;

  rt::TaskGroup group(
      sim::Placement::one_per_node(sim::Machine::paper_sp16(), kTasks));
  core::DistArray array("u", box, sizeof(double), kTasks);
  std::int64_t sop = 42;
  core::ReplicatedStore store;
  store.register_i64("sop", &sop);

  const auto result = group.run([&](rt::TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(core::DistSpec::block_auto(
          box, kTasks, std::vector<core::Index>(3, 0)));
    }
    ctx.barrier();
    fill_pattern(array.local(ctx.rank()).bytes());
    ctx.barrier();

    core::DistArray* arrays[] = {&array};
    engine.write(ctx, "bench/trace", "bench", sop, store, arrays, segment);
    core::RestartTiming timing;
    const core::CheckpointMeta meta =
        engine.restore_segment(ctx, "bench/trace", store, segment, timing);
    const core::CheckpointChain chain =
        core::resolve_checkpoint_chain(backend, "bench/trace", meta);
    engine.restore_array(ctx, meta, chain, array, timing);
  });
  if (!result.completed) {
    std::cerr << "FATAL: traced checkpoint group did not complete\n";
    std::exit(1);
  }

  std::ofstream out(path);
  obs::write_chrome_trace(out, recorder);
  out << '\n';
  std::cout << "wrote " << path << " (" << recorder.span_count()
            << " spans)\n";
}

void write_json(const std::string& path, std::uint64_t crc_buffer_bytes,
                const std::vector<CrcResult>& crc,
                const std::vector<PlainResult>& rest,
                const std::vector<CodecResult>& codec) {
  std::ofstream out(path);
  bench::JsonWriter json(out);
  json.begin_object();
  json.field("benchmark", "data_plane");
  json.field("units", "GB_per_second_wall_clock");
  json.field("array_shape", "64x64x64 doubles");
  json.field("crc_buffer_bytes", crc_buffer_bytes);
  json.begin_array("crc");
  for (const auto& r : crc) {
    json.begin_object();
    json.field("kernel", r.kernel);
    json.field("available", r.available);
    json.field("gb_per_s", r.gb_per_s);
    json.field("speedup_vs_bytewise", r.speedup_vs_bytewise);
    json.end_object();
  }
  json.end_array();
  json.begin_array("data_path");
  for (const auto& r : rest) {
    json.begin_object();
    json.field("name", r.name);
    json.field("bytes_per_call", r.bytes_per_call);
    json.field("gb_per_s", r.gb_per_s);
    json.end_object();
  }
  json.end_array();
  json.begin_array("codec");
  for (const auto& r : codec) {
    json.begin_object();
    json.field("name", r.name);
    json.field("bytes_per_call", r.bytes_per_call);
    json.field("encode_gb_per_s", r.encode_gb_per_s);
    json.field("decode_gb_per_s", r.decode_gb_per_s);
    json.field("ratio", r.ratio);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: fewer repetitions (CI perf smoke); numbers are noisier but
  // the >= 4x CRC gate still has an order of magnitude of headroom.
  bool quick = false;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else if (std::string(argv[i]) == "--trace") {
      trace = true;
    }
  }
  const int crc_reps = quick ? 4 : 32;
  const int data_reps = quick ? 8 : 64;
  const std::uint64_t crc_buffer_bytes =
      (quick ? 16 : 64) * support::kMiB;

  const std::vector<CrcResult> crc = bench_crc(crc_buffer_bytes, crc_reps);
  std::vector<PlainResult> rest = bench_gather_scatter(data_reps);
  rest.push_back(bench_gather_sp_chunk(data_reps));
  rest.push_back(bench_exchange(data_reps));
  for (auto& r : bench_checkpoint(quick ? 4 : 16)) {
    rest.push_back(r);
  }
  const std::vector<CodecResult> codec = bench_codec_blocks(data_reps);

  support::TextTable table({"Stage", "GB/s", "vs bytewise"});
  for (const auto& r : crc) {
    table.add_row({"crc32c " + r.kernel,
                   r.available ? fmt_gbps(r.gb_per_s) : "n/a",
                   r.available ? fmt_gbps(r.speedup_vs_bytewise) + "x"
                               : "n/a"});
  }
  table.add_rule();
  for (const auto& r : rest) {
    table.add_row({r.name, fmt_gbps(r.gb_per_s), ""});
  }
  table.add_rule();
  for (const auto& r : codec) {
    const std::string ratio = " (" + fmt_gbps(r.ratio) + "x)";
    table.add_row({r.name + " encode" + ratio, fmt_gbps(r.encode_gb_per_s),
                   ""});
    table.add_row({r.name + " decode" + ratio, fmt_gbps(r.decode_gb_per_s),
                   ""});
  }
  table.print(std::cout);

  write_json("BENCH_dataplane.json", crc_buffer_bytes, crc, rest, codec);
  std::cout << "\nwrote BENCH_dataplane.json\n";
  if (trace) {
    trace_checkpoint("TRACE_dataplane.json");
  }

  const double dispatched_speedup = crc.back().speedup_vs_bytewise;
  if (dispatched_speedup < 4.0) {
    std::cerr << "REGRESSION: dispatched CRC-32C is only "
              << fmt_gbps(dispatched_speedup)
              << "x the bytewise reference (expected >= 4x)\n";
    return 1;
  }
  std::cout << "dispatched CRC-32C speedup: "
            << fmt_gbps(dispatched_speedup) << "x (>= 4x required)\n";
  return 0;
}
