#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "apps/app_spec.hpp"
#include "common.hpp"
#include "core/dist_array.hpp"
#include "core/exchange.hpp"
#include "core/local_array.hpp"
#include "core/streamer.hpp"
#include "rt/task_context.hpp"
#include "rt/task_group.hpp"
#include "sim/machine.hpp"
#include "state.hpp"
#include "support/block_codec.hpp"
#include "support/byte_buffer.hpp"
#include "support/crc32.hpp"
#include "support/units.hpp"

namespace perfbench {

namespace core = drms::core;
namespace rt = drms::rt;

namespace {

const drms::apps::AppSpec& sp() {
  static const drms::apps::AppSpec spec = drms::apps::AppSpec::sp();
  return spec;
}

const drms::apps::ArrayDecl& u_decl() { return sp().arrays.front(); }

void fill_pattern(std::span<std::byte> out) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::byte>(x);
  }
}

/// Keeps the timed CRC calls observable, so they are not optimized away.
std::atomic<std::uint32_t> g_crc_sink{0};

double gbps(std::uint64_t bytes, double seconds) {
  return seconds > 0.0 ? static_cast<double>(bytes) / seconds / 1e9 : 0.0;
}

}  // namespace

int stream_rounds(int tasks) {
  int rounds = 0;
  for (const auto& decl : sp().arrays) {
    const core::StreamPlan plan = core::make_stream_plan(
        sp().array_box(decl, kGrid), sizeof(double), tasks,
        drms::support::kMiB);
    rounds += static_cast<int>((plan.chunk_count() + tasks - 1) /
                               static_cast<std::size_t>(tasks));
  }
  return rounds;
}

double probe_barrier_us(int tasks) {
  constexpr int kRounds = 2000;
  rt::TaskGroup group(drms::sim::Placement::one_per_node(
      drms::sim::Machine::paper_sp16(), tasks));
  double per_round = 0.0;
  group.run([&](rt::TaskContext& ctx) {
    for (int i = 0; i < 100; ++i) {
      ctx.barrier();
    }
    const double t0 = wall_s();
    for (int i = 0; i < kRounds; ++i) {
      ctx.barrier();
    }
    if (ctx.rank() == 0) {
      per_round = (wall_s() - t0) / kRounds;
    }
  });
  return per_round * 1e6;
}

std::pair<double, double> probe_launch_join_ms(int tasks) {
  constexpr int kReps = 50;
  std::vector<double> launch;
  std::vector<double> join;
  for (int r = 0; r < kReps; ++r) {
    rt::TaskGroup group(drms::sim::Placement::one_per_node(
        drms::sim::Machine::paper_sp16(), tasks));
    std::atomic<double> last_in{0.0};
    std::atomic<double> last_out{0.0};
    const auto bump = [](std::atomic<double>& slot, double v) {
      double cur = slot.load();
      while (v > cur && !slot.compare_exchange_weak(cur, v)) {
      }
    };
    const double t0 = wall_s();
    group.run([&](rt::TaskContext&) {
      bump(last_in, wall_s());
      bump(last_out, wall_s());
    });
    const double t1 = wall_s();
    launch.push_back((last_in.load() - t0) * 1e3);
    join.push_back((t1 - last_out.load()) * 1e3);
  }
  return {median(launch), median(join)};
}

double probe_exchange_gbps(int tasks) {
  constexpr int kReps = 8;
  const core::Slice box = sp().array_box(u_decl(), kGrid);
  const core::DistSpec dist = sp().array_distribution(u_decl(), kGrid, tasks);
  const core::StreamPlan plan =
      core::make_stream_plan(box, sizeof(double), tasks, drms::support::kMiB);
  core::DistArray array("u", box, sizeof(double), tasks);
  rt::TaskGroup group(drms::sim::Placement::one_per_node(
      drms::sim::Machine::paper_sp16(), tasks));
  double seconds = 0.0;
  group.run([&](rt::TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(dist);
    }
    ctx.barrier();
    fill_pattern(array.local(ctx.rank()).bytes());
    ctx.barrier();
    const std::vector<core::Slice> src = dist.assigned_slices();
    const core::Slice empty = core::Slice::empty_of_rank(box.rank());
    // One stream round: task q stages chunk round * tasks + q.
    const auto one_pass = [&] {
      for (std::size_t first = 0; first < plan.chunk_count();
           first += static_cast<std::size_t>(tasks)) {
        std::vector<core::Slice> dst(static_cast<std::size_t>(tasks), empty);
        for (int q = 0; q < tasks; ++q) {
          const std::size_t c = first + static_cast<std::size_t>(q);
          if (c < plan.chunk_count()) {
            dst[static_cast<std::size_t>(q)] = plan.chunks[c];
          }
        }
        const core::Slice& mine = dst[static_cast<std::size_t>(ctx.rank())];
        core::LocalArray staging = mine.empty()
                                       ? core::LocalArray()
                                       : core::LocalArray(mine, sizeof(double));
        core::exchange_sections(ctx, src, &array.local(ctx.rank()), dst,
                                mine.empty() ? nullptr : &staging,
                                sizeof(double));
      }
    };
    one_pass();  // warm-up
    ctx.barrier();
    const double t0 = wall_s();
    for (int r = 0; r < kReps; ++r) {
      one_pass();
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      seconds = (wall_s() - t0) / kReps;
    }
  });
  return gbps(plan.total_bytes, seconds);
}

std::pair<double, double> probe_gather_scatter_gbps(int tasks) {
  constexpr int kReps = 20;
  const core::DistSpec dist = sp().array_distribution(u_decl(), kGrid, tasks);
  const core::Slice& assigned = dist.assigned(0);
  core::LocalArray local(dist.mapped(0), sizeof(double));
  fill_pattern(local.bytes());
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(assigned.element_count()) * sizeof(double);
  std::vector<std::byte> stream(bytes);
  local.extract(assigned, stream);  // warm-up
  double t0 = wall_s();
  for (int r = 0; r < kReps; ++r) {
    local.extract(assigned, stream);
  }
  const double gather = (wall_s() - t0) / kReps;
  local.insert(assigned, stream);
  t0 = wall_s();
  for (int r = 0; r < kReps; ++r) {
    local.insert(assigned, stream);
  }
  const double scatter = (wall_s() - t0) / kReps;
  return {gbps(bytes, gather), gbps(bytes, scatter)};
}

double probe_crc_gbps() {
  constexpr int kReps = 20;
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(
          sp().array_box(u_decl(), kGrid).element_count()) *
      sizeof(double);
  std::vector<std::byte> stream(bytes);
  fill_pattern(stream);
  std::uint32_t sink = drms::support::crc32c(stream);
  const double t0 = wall_s();
  for (int r = 0; r < kReps; ++r) {
    sink ^= drms::support::crc32c(stream);
  }
  const double seconds = (wall_s() - t0) / kReps;
  g_crc_sink.store(sink, std::memory_order_relaxed);
  return gbps(bytes, seconds);
}

CodecProbe probe_codec(std::uint64_t seed, std::int64_t sop) {
  constexpr std::size_t kBlock = 256 * 1024;
  const core::Slice box = sp().array_box(u_decl(), kGrid);
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(box.element_count()));
  for (core::Index z = 0; z < kGrid; ++z) {
    for (core::Index y = 0; y < kGrid; ++y) {
      for (core::Index x = 0; x < kGrid; ++x) {
        for (core::Index c = 0; c < u_decl().components; ++c) {
          values.push_back(solver_like_value(seed, sop, 0, c, x, y, z));
        }
      }
    }
  }
  const auto raw = std::as_bytes(std::span<const double>(values));

  using drms::support::BlockCodec;
  using drms::support::ByteBuffer;
  std::vector<ByteBuffer> stored;
  std::vector<BlockCodec> used;
  std::vector<std::size_t> raw_sizes;
  std::uint64_t stored_bytes = 0;
  double t0 = wall_s();
  for (std::size_t off = 0; off < raw.size(); off += kBlock) {
    const auto block = raw.subspan(off, std::min(kBlock, raw.size() - off));
    ByteBuffer out;
    used.push_back(drms::support::block_encode(BlockCodec::kLz, block, out));
    raw_sizes.push_back(block.size());
    stored_bytes += out.size();
    stored.push_back(std::move(out));
  }
  const double encode_s = wall_s() - t0;
  t0 = wall_s();
  ByteBuffer decoded;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    decoded.clear();
    drms::support::block_decode(used[i], stored[i].bytes(), raw_sizes[i],
                                decoded);
  }
  const double decode_s = wall_s() - t0;
  CodecProbe p;
  p.encode_gbps = gbps(raw.size(), encode_s);
  p.decode_gbps = gbps(raw.size(), decode_s);
  p.ratio = stored_bytes > 0 ? static_cast<double>(raw.size()) /
                                   static_cast<double>(stored_bytes)
                             : 0.0;
  return p;
}

}  // namespace perfbench
