// Tests for array section streaming (§3.2): the distribution-independent
// stream representation, serial/parallel equivalence, the no-seek
// property of serial streaming, and input streaming with scatter.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "core/streamer.hpp"
#include "support/crc32.hpp"
#include "piofs/volume.hpp"
#include "rt/task_group.hpp"
#include "store/fault_injection_backend.hpp"
#include "store/memory_backend.hpp"
#include "support/page_pool.hpp"
#include "test_helpers.hpp"

namespace {

using namespace drms::core;
using Volume = drms::test::TestVolume;
using drms::rt::TaskContext;
using drms::rt::TaskGroup;
using drms::store::FileHandle;
using drms::test::count_mapped_mismatches;
using drms::test::cube;
using drms::test::fill_assigned_tagged;
using drms::test::placement_of;
using drms::test::tag_of;

/// Expected stream: tags of every element of `x` in column-major order.
std::vector<double> expected_stream(const Slice& x) {
  std::vector<double> out;
  x.for_each_column_major(
      [&](std::span<const Index> p) { out.push_back(tag_of(p)); });
  return out;
}

std::vector<double> file_as_doubles(const Volume& volume,
                                    const std::string& name) {
  const auto handle = volume.open(name);
  const auto bytes = handle.read_at(0, handle.size());
  std::vector<double> out(bytes.size() / sizeof(double));
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

/// Run a group that distributes a tagged array and streams section x out.
void stream_out_test(int tasks, int io_tasks, const Slice& box,
                     const Slice& x, Index shadow_w,
                     std::uint64_t chunk_bytes, Volume& volume) {
  TaskGroup group(placement_of(tasks));
  DistArray array("u", box, sizeof(double), tasks);
  volume.create("out");
  std::vector<Index> shadow(static_cast<std::size_t>(box.rank()), shadow_w);

  const auto result = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(
          DistSpec::block_auto(box, tasks, shadow));
    }
    ctx.barrier();
    fill_assigned_tagged(array, ctx.rank());
    ctx.barrier();

    const ArrayStreamer streamer(nullptr, {}, chunk_bytes);
    const std::uint64_t written = streamer.write_section(
        ctx, array, x, volume.open("out"), 0, io_tasks);
    EXPECT_EQ(written, static_cast<std::uint64_t>(x.element_count()) *
                           sizeof(double));
  });
  ASSERT_TRUE(result.completed);
}

TEST(StreamPlan, OffsetsAreDenseAndOrdered) {
  const StreamPlan plan =
      make_stream_plan(cube(16), sizeof(double), 4, 1024);
  ASSERT_GE(plan.chunk_count(), 4u);
  std::uint64_t expected_offset = 0;
  for (std::size_t i = 0; i < plan.chunk_count(); ++i) {
    EXPECT_EQ(plan.offsets[i], expected_offset)
        << "serial streaming must be append-only (no seek)";
    expected_offset += static_cast<std::uint64_t>(
                           plan.chunks[i].element_count()) *
                       sizeof(double);
  }
  EXPECT_EQ(plan.total_bytes, expected_offset);
  EXPECT_EQ(plan.total_bytes, 16ull * 16 * 16 * sizeof(double));
}

TEST(StreamPlan, ChunksRespectTargetSize) {
  const StreamPlan plan =
      make_stream_plan(cube(16), sizeof(double), 1, 1000);
  for (const auto& chunk : plan.chunks) {
    EXPECT_LE(chunk.element_count() * static_cast<Index>(sizeof(double)),
              1000);
  }
}

TEST(StreamPlan, AtLeastIoTasksChunks) {
  // Even a small section yields >= io_tasks chunks when splittable.
  const StreamPlan plan =
      make_stream_plan(cube(4), sizeof(double), 8, 1 << 20);
  EXPECT_GE(plan.chunk_count(), 8u);
}

TEST(Streamer, FullArrayStreamIsColumnMajor) {
  Volume volume(16);
  const Slice box = cube(8);
  stream_out_test(4, 4, box, box, 0, 512, volume);
  EXPECT_EQ(file_as_doubles(volume, "out"), expected_stream(box));
}

TEST(Streamer, StreamIsDistributionIndependent) {
  // Same section, three different source distributions -> identical bytes.
  const Slice box = cube(8);
  std::vector<std::vector<double>> streams;
  for (const int tasks : {1, 3, 8}) {
    Volume volume(16);
    stream_out_test(tasks, tasks, box, box, 1, 700, volume);
    streams.push_back(file_as_doubles(volume, "out"));
  }
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(streams[0], streams[2]);
  EXPECT_EQ(streams[0], expected_stream(box));
}

TEST(Streamer, SerialAndParallelProduceIdenticalFiles) {
  const Slice box = cube(8);
  Volume serial_volume(16);
  stream_out_test(8, 1, box, box, 0, 600, serial_volume);
  Volume parallel_volume(16);
  stream_out_test(8, 8, box, box, 0, 600, parallel_volume);
  EXPECT_EQ(file_as_doubles(serial_volume, "out"),
            file_as_doubles(parallel_volume, "out"));
}

TEST(Streamer, SubSectionStreaming) {
  // Stream a proper sub-section, including strided axes — the
  // distribution-independent representation covers irregular sections.
  const Slice box = cube(8);
  const Slice x{{Range::strided(1, 7, 2), Range::contiguous(2, 5),
                 Range::of_indices({0, 3, 7})}};
  Volume volume(16);
  stream_out_test(4, 4, box, x, 1, 256, volume);
  EXPECT_EQ(file_as_doubles(volume, "out"), expected_stream(x));
}

TEST(Streamer, ReadScattersIntoAllMappedCopies) {
  const Slice box = cube(8);
  // First produce a canonical stream file.
  Volume volume(16);
  stream_out_test(2, 2, box, box, 0, 1024, volume);

  // Now read it into a 4-task array with shadows.
  constexpr int kP = 4;
  TaskGroup group(placement_of(kP));
  DistArray array("v", box, sizeof(double), kP);
  const std::array<Index, 3> shadow{1, 1, 1};
  const auto result = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(DistSpec::block_auto(box, kP, shadow));
    }
    ctx.barrier();
    const ArrayStreamer streamer(nullptr, {}, 512);
    const std::uint64_t read = streamer.read_section(
        ctx, array, box, volume.open("out"), 0, kP);
    EXPECT_EQ(read, static_cast<std::uint64_t>(box.element_count()) *
                        sizeof(double));
    ctx.barrier();
    EXPECT_EQ(count_mapped_mismatches(array, ctx.rank()), 0);
  });
  EXPECT_TRUE(result.completed);
}

TEST(Streamer, WriteReadRoundTripAcrossTaskCounts) {
  // t1-task write, t2-task read — the reconfigurable-restart data path.
  const Slice box = cube(10);
  for (const auto& [t1, t2] : std::vector<std::pair<int, int>>{
           {5, 2}, {2, 7}, {1, 6}, {6, 1}}) {
    Volume volume(16);
    stream_out_test(t1, t1, box, box, 1, 800, volume);

    TaskGroup group(placement_of(t2));
    DistArray array("v", box, sizeof(double), t2);
    std::vector<Index> shadow(3, 1);
    const auto result = group.run([&](TaskContext& ctx) {
      if (ctx.rank() == 0) {
        array.install_distribution(DistSpec::block_auto(box, t2, shadow));
      }
      ctx.barrier();
      const ArrayStreamer streamer(nullptr, {}, 800);
      streamer.read_section(ctx, array, box, volume.open("out"), 0, t2);
      ctx.barrier();
      EXPECT_EQ(count_mapped_mismatches(array, ctx.rank()), 0)
          << "t1=" << t1 << " t2=" << t2;
    });
    EXPECT_TRUE(result.completed);
  }
}

TEST(Streamer, StreamCrcEqualsFileCrcAndIsChunkingInvariant) {
  const Slice box = cube(8);
  std::uint32_t crc_by_width[3] = {0, 0, 0};
  int idx = 0;
  for (const int io_tasks : {1, 3, 8}) {
    Volume volume(16);
    volume.create("out");
    TaskGroup group(placement_of(8));
    DistArray array("u", box, sizeof(double), 8);
    std::uint32_t crc = 0;
    const auto result = group.run([&](TaskContext& ctx) {
      if (ctx.rank() == 0) {
        array.install_distribution(
            DistSpec::block_auto(box, 8, std::vector<Index>(3, 0)));
      }
      ctx.barrier();
      fill_assigned_tagged(array, ctx.rank());
      ctx.barrier();
      const ArrayStreamer streamer(nullptr, {}, 600);
      std::uint32_t my_crc = 0;
      streamer.write_section(ctx, array, box, volume.open("out"), 0,
                             io_tasks, &my_crc);
      if (ctx.rank() == 0) {
        crc = my_crc;
      }
    });
    ASSERT_TRUE(result.completed);
    // The combined chunk CRC is exactly the CRC of the file bytes.
    const auto handle = volume.open("out");
    EXPECT_EQ(crc,
              drms::support::crc32c(handle.read_at(0, handle.size())));
    crc_by_width[idx++] = crc;
  }
  // ...and independent of the I/O width used to produce it.
  EXPECT_EQ(crc_by_width[0], crc_by_width[1]);
  EXPECT_EQ(crc_by_width[0], crc_by_width[2]);
}

TEST(Streamer, ReadCrcDetectsCorruption) {
  const Slice box = cube(8);
  Volume volume(16);
  stream_out_test(4, 4, box, box, 0, 600, volume);
  // Flip one byte mid-file.
  auto f = volume.open("out");
  auto b = f.read_at(777, 1);
  b[0] ^= std::byte{0x40};
  f.write_at(777, b);

  TaskGroup group(placement_of(4));
  DistArray array("v", box, sizeof(double), 4);
  std::uint32_t write_time_crc = 0;
  {
    // Reference CRC of the clean stream (recompute from tags).
    Volume clean(16);
    stream_out_test(4, 4, box, box, 0, 600, clean);
    const auto h = clean.open("out");
    write_time_crc =
        drms::support::crc32c(h.read_at(0, h.size()));
  }
  const auto result = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(
          DistSpec::block_auto(box, 4, std::vector<Index>(3, 0)));
    }
    ctx.barrier();
    const ArrayStreamer streamer(nullptr, {}, 600);
    std::uint32_t read_crc = 0;
    streamer.read_section(ctx, array, box, volume.open("out"), 0, 4,
                          &read_crc);
    EXPECT_NE(read_crc, write_time_crc)
        << "corruption must change the read-side CRC";
  });
  EXPECT_TRUE(result.completed);
}

TEST(Streamer, ChargesSimulatedTimeWhenCostModelPresent) {
  const Slice box = cube(8);
  Volume volume(16);
  volume.create("out");
  constexpr int kP = 4;
  TaskGroup group(placement_of(kP));
  DistArray array("u", box, sizeof(double), kP);
  const drms::sim::CostModel cost = drms::sim::CostModel::paper_sp16();
  drms::sim::LoadContext load;
  load.busy_server_fraction = 0.25;
  load.per_task_resident_bytes = 1 << 20;
  load.server_count = 16;

  const auto result = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      std::vector<Index> shadow(3, 0);
      array.install_distribution(DistSpec::block_auto(box, kP, shadow));
    }
    ctx.barrier();
    const drms::store::PiofsBackend timed(volume.piofs(), &cost);
    const ArrayStreamer streamer(&timed, load, 4096);
    streamer.write_section(ctx, array, box, volume.open("out"), 0, kP);
    EXPECT_GT(ctx.sim_time(), 0.0);
  });
  EXPECT_TRUE(result.completed);
  EXPECT_GT(result.sim_seconds, 0.0);
}

// ---- error paths of the round pipeline -------------------------------------
//
// Each pipelined operation runs at 3 tasks over 16 chunks or blocks (6
// rounds). Failing any one of its storage operations, or corrupting a
// stored delta block, must fail the group with that error and never hang;
// under ASan this also catches a staging slot freed under its worker. An
// injected crash kills the whole store, so the task that reports first
// may report the lost store rather than the armed operation: both
// messages name the injected crash.

constexpr int kSweepTasks = 3;
constexpr std::uint64_t kSweepChunk = 256;  // cube(8) doubles: 16 chunks

using StreamOp = std::function<void(TaskContext&, DistArray&,
                                    const ArrayStreamer&)>;

drms::rt::TaskGroupResult run_stream_op(const StreamOp& op) {
  const Slice box = cube(8);
  TaskGroup group(placement_of(kSweepTasks));
  DistArray array("u", box, sizeof(double), kSweepTasks);
  return group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(DistSpec::block_auto(
          box, kSweepTasks, std::vector<Index>(3, 0)));
    }
    ctx.barrier();
    fill_assigned_tagged(array, ctx.rank());
    ctx.barrier();
    const ArrayStreamer streamer(nullptr, {}, kSweepChunk);
    op(ctx, array, streamer);
  });
}

/// The group failed, and some task's error message contains `what`.
bool failed_with(const drms::rt::TaskGroupResult& result,
                 const std::string& what) {
  return !result.completed &&
         std::any_of(result.errors.begin(), result.errors.end(),
                     [&](const std::string& e) {
                       return e.find(what) != std::string::npos;
                     });
}

/// The delta block plan of cube(8) doubles, every block dirty.
struct SweepBlocks {
  StreamPlan plan = make_stream_plan(cube(8), sizeof(double), 1, kSweepChunk);
  std::vector<std::uint64_t> dirty = [this] {
    std::vector<std::uint64_t> all(plan.chunk_count());
    std::iota(all.begin(), all.end(), 0);
    return all;
  }();
};

TEST(Streamer, EveryFailedPipelinedWriteFailsTheGroup) {
  const SweepBlocks blocks;
  using WriteOp = std::function<void(TaskContext&, DistArray&,
                                     const ArrayStreamer&, FileHandle)>;
  const std::vector<std::pair<std::string, WriteOp>> ops = {
      {"write_section",
       [](TaskContext& ctx, DistArray& a, const ArrayStreamer& s,
          FileHandle f) {
         s.write_section(ctx, a, a.global_box(), f, 0, kSweepTasks);
       }},
      {"write_delta_blocks",
       [&](TaskContext& ctx, DistArray& a, const ArrayStreamer& s,
           FileHandle f) {
         (void)s.write_delta_blocks(ctx, a, blocks.plan, blocks.dirty, f,
                                    kSweepTasks,
                                    drms::support::BlockCodec::kLz);
       }},
  };
  for (const auto& [name, op] : ops) {
    std::uint64_t writes = 0;
    {
      drms::store::MemoryBackend inner;
      drms::store::FaultInjectionBackend storage(inner);
      const FileHandle file = storage.create("out");
      const std::uint64_t before = storage.mutation_ops();
      const auto clean = run_stream_op(
          [&](TaskContext& ctx, DistArray& a, const ArrayStreamer& s) {
            op(ctx, a, s, file);
          });
      ASSERT_TRUE(clean.completed) << name << ": " << clean.kill_reason;
      writes = storage.mutation_ops() - before;
    }
    ASSERT_GE(writes, 16u) << name;
    for (std::uint64_t k = 0; k < writes; ++k) {
      drms::store::MemoryBackend inner;
      drms::store::FaultInjectionBackend storage(inner);
      const FileHandle file = storage.create("out");
      storage.arm_crash(k);
      const auto result = run_stream_op(
          [&](TaskContext& ctx, DistArray& a, const ArrayStreamer& s) {
            op(ctx, a, s, file);
          });
      EXPECT_TRUE(failed_with(result, "injected crash"))
          << name << " write " << k << ": " << result.kill_reason;
    }
  }
}

TEST(Streamer, EveryFailedPipelinedReadFailsTheGroup) {
  const SweepBlocks blocks;
  drms::store::MemoryBackend inner;
  std::vector<DeltaBlockRecord> records;
  const auto written = run_stream_op(
      [&](TaskContext& ctx, DistArray& a, const ArrayStreamer& s) {
        if (ctx.rank() == 0) {
          inner.create("full");
          inner.create("delta");
        }
        ctx.barrier();
        s.write_section(ctx, a, a.global_box(), inner.open("full"), 0,
                        kSweepTasks);
        const auto res = s.write_delta_blocks(
            ctx, a, blocks.plan, blocks.dirty, inner.open("delta"),
            kSweepTasks, drms::support::BlockCodec::kLz);
        if (ctx.rank() == 0) {
          records = res.records;
        }
      });
  ASSERT_TRUE(written.completed) << written.kill_reason;

  using ReadOp = std::function<void(TaskContext&, DistArray&,
                                    const ArrayStreamer&,
                                    const drms::store::StorageBackend&)>;
  const std::vector<std::pair<std::string, ReadOp>> ops = {
      {"read_section",
       [](TaskContext& ctx, DistArray& a, const ArrayStreamer& s,
          const drms::store::StorageBackend& storage) {
         s.read_section(ctx, a, a.global_box(), storage.open("full"), 0,
                        kSweepTasks);
       }},
      {"apply_delta_blocks",
       [&](TaskContext& ctx, DistArray& a, const ArrayStreamer& s,
           const drms::store::StorageBackend& storage) {
         s.apply_delta_blocks(ctx, a, blocks.plan, records,
                              storage.open("delta"), kSweepTasks);
       }},
  };
  for (const auto& [name, op] : ops) {
    std::uint64_t reads = 0;
    {
      drms::store::FaultInjectionBackend storage(inner);
      const auto clean = run_stream_op(
          [&](TaskContext& ctx, DistArray& a, const ArrayStreamer& s) {
            op(ctx, a, s, storage);
          });
      ASSERT_TRUE(clean.completed) << name << ": " << clean.kill_reason;
      reads = storage.read_ops();
    }
    ASSERT_GE(reads, 16u) << name;
    for (std::uint64_t k = 0; k < reads; ++k) {
      drms::store::FaultInjectionBackend storage(inner);
      storage.arm_read_crash(k);
      const auto result = run_stream_op(
          [&](TaskContext& ctx, DistArray& a, const ArrayStreamer& s) {
            op(ctx, a, s, storage);
          });
      EXPECT_TRUE(failed_with(result, "injected crash"))
          << name << " read " << k << ": " << result.kill_reason;
    }
  }

  // One flipped byte in the middle block's stored payload.
  const DeltaBlockRecord& victim = records[records.size() / 2];
  FileHandle delta = inner.open("delta");
  const std::uint64_t at = wire::kDeltaHeaderBytes + victim.payload_offset +
                           victim.stored_bytes / 2;
  std::vector<std::byte> byte = delta.read_at(at, 1);
  byte[0] ^= std::byte{0x10};
  delta.write_at(at, byte);
  const auto corrupt = run_stream_op(
      [&](TaskContext& ctx, DistArray& a, const ArrayStreamer& s) {
        s.apply_delta_blocks(ctx, a, blocks.plan, records, inner.open("delta"),
                             kSweepTasks);
      });
  EXPECT_TRUE(failed_with(corrupt, "delta block " +
                                       std::to_string(victim.block_index) +
                                       ": stored CRC mismatch"))
      << corrupt.kill_reason;
}

// ---- the I/O lane and uninitialized staging --------------------------------

/// A number no other thread of the process gets, unlike a thread id,
/// which the system may hand to a new thread once the old one has exited.
int thread_serial() {
  static std::atomic<int> next{0};
  thread_local const int serial = next++;
  return serial;
}

/// An in-memory file that logs the offset and thread of every positioned
/// read and write.
class ThreadLoggingFile final : public drms::store::FileObject {
 public:
  struct Op {
    std::uint64_t offset;
    int thread;
  };

  void write_at(std::uint64_t offset,
                std::span<const std::byte> data) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (bytes_.size() < offset + data.size()) {
      bytes_.resize(offset + data.size());
    }
    std::copy(data.begin(), data.end(),
              bytes_.begin() + static_cast<std::ptrdiff_t>(offset));
    ops_.push_back({offset, thread_serial()});
  }
  void write_zeros_at(std::uint64_t offset, std::uint64_t count) override {
    write_at(offset, std::vector<std::byte>(count));
  }
  [[nodiscard]] std::vector<std::byte> read_at(
      std::uint64_t offset, std::uint64_t count) const override {
    std::vector<std::byte> out(count);
    read_at_into(offset, out);
    return out;
  }
  void read_at_into(std::uint64_t offset,
                    std::span<std::byte> out) const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (offset + out.size() > bytes_.size()) {
      throw drms::support::IoError("read past end of file");
    }
    std::copy_n(bytes_.begin() + static_cast<std::ptrdiff_t>(offset),
                out.size(), out.begin());
    ops_.push_back({offset, thread_serial()});
  }
  void append(std::span<const std::byte> data) override {
    write_at(size(), data);
  }
  [[nodiscard]] std::uint64_t size() const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return bytes_.size();
  }
  [[nodiscard]] const std::string& name() const override { return name_; }

  std::vector<Op> take_ops() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(ops_, {});
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::byte> bytes_;
  mutable std::vector<Op> ops_;
  std::string name_ = "logged";
};

TEST(Streamer, EachTaskCarriesEveryRoundOnItsOneIoThread) {
  constexpr int kP = 3;
  const Slice box = cube(16);
  constexpr std::uint64_t kChunk = 512;  // 64 chunks: 22 rounds
  const StreamPlan plan = make_stream_plan(box, sizeof(double), kP, kChunk);
  ASSERT_GE(plan.chunk_count(), 60u);
  const auto file = std::make_shared<ThreadLoggingFile>();
  TaskGroup group(placement_of(kP));
  DistArray array("u", box, sizeof(double), kP);
  std::array<int, kP> task_thread{};
  std::vector<ThreadLoggingFile::Op> writes;
  std::vector<ThreadLoggingFile::Op> reads;
  const auto result = group.run([&](TaskContext& ctx) {
    task_thread[static_cast<std::size_t>(ctx.rank())] = thread_serial();
    if (ctx.rank() == 0) {
      array.install_distribution(
          DistSpec::block_auto(box, kP, std::vector<Index>(3, 1)));
    }
    ctx.barrier();
    fill_assigned_tagged(array, ctx.rank());
    ctx.barrier();
    const ArrayStreamer streamer(nullptr, {}, kChunk);
    streamer.write_section(ctx, array, box, FileHandle(file), 0, kP);
    if (ctx.rank() == 0) {
      writes = file->take_ops();
    }
    ctx.barrier();
    streamer.read_section(ctx, array, box, FileHandle(file), 0, kP);
    if (ctx.rank() == 0) {
      reads = file->take_ops();
    }
  });
  ASSERT_TRUE(result.completed) << result.kill_reason;

  // Chunk c is carried by task c mod P.
  for (const auto& [what, ops] :
       {std::pair{"write", &writes}, std::pair{"read", &reads}}) {
    ASSERT_EQ(ops->size(), plan.chunk_count()) << what;
    std::array<std::set<int>, kP> threads;
    for (const ThreadLoggingFile::Op& op : *ops) {
      const auto at = std::lower_bound(plan.offsets.begin(),
                                       plan.offsets.end(), op.offset);
      ASSERT_TRUE(at != plan.offsets.end() && *at == op.offset) << what;
      const auto chunk = static_cast<std::size_t>(at - plan.offsets.begin());
      threads[chunk % kP].insert(op.thread);
    }
    for (std::size_t t = 0; t < kP; ++t) {
      EXPECT_EQ(threads[t].size(), 1u) << what << " task " << t;
      EXPECT_EQ(threads[t].count(task_thread[t]), 0u) << what << " task " << t;
    }
  }
}

/// Fills 4 MiB of page-pool units with 0xA5 and releases them, keeping
/// each slab mapped through the returned buffer of its first unit, so
/// later uninitialized allocations recycle 0xA5 bytes instead of the
/// kernel's zero pages.
std::vector<drms::support::PageBuffer> pollute_page_pool() {
  using drms::support::PageBuffer;
  std::vector<PageBuffer> units;
  for (int i = 0; i < 64; ++i) {
    units.emplace_back(PageBuffer::kUnit, PageBuffer::Init::kUninitialized);
    std::memset(units.back().data(), 0xA5, PageBuffer::kUnit);
  }
  std::vector<PageBuffer> anchors;
  for (PageBuffer& unit : units) {
    if (reinterpret_cast<std::uintptr_t>(unit.data()) % PageBuffer::kSlab ==
        0) {
      anchors.push_back(std::move(unit));
    }
  }
  return anchors;
}

/// Stream-order bytes of the tag pattern over `x`.
std::vector<std::byte> expected_bytes(const Slice& x) {
  const std::vector<double> stream = expected_stream(x);
  std::vector<std::byte> out(stream.size() * sizeof(double));
  std::memcpy(out.data(), stream.data(), out.size());
  return out;
}

TEST(Streamer, StagingFromAPollutedPoolRoundTripsAtOneToFourTasks) {
  // 64 KiB chunks and blocks: every staging slot is a pool unit.
  const Slice box = cube(64);
  constexpr std::uint64_t kChunk = drms::support::PageBuffer::kUnit;
  const std::vector<std::byte> reference = expected_bytes(box);
  const std::uint32_t reference_crc = drms::support::crc32c(reference);
  const StreamPlan blocks = make_stream_plan(box, sizeof(double), 1, kChunk);
  std::vector<std::uint64_t> dirty(blocks.chunk_count());
  std::iota(dirty.begin(), dirty.end(), 0);

  for (int tasks = 1; tasks <= 4; ++tasks) {
    const auto anchors = pollute_page_pool();
    drms::store::MemoryBackend storage;
    const FileHandle full = storage.create("full");
    const FileHandle delta = storage.create("delta");
    TaskGroup group(placement_of(tasks));
    DistArray src("u", box, sizeof(double), tasks);
    DistArray read_back("v", box, sizeof(double), tasks);
    DistArray applied("w", box, sizeof(double), tasks);
    std::uint32_t write_crc = 0;
    std::uint32_t read_crc = 0;
    std::vector<DeltaBlockRecord> records;
    std::atomic<int> mismatches{0};
    const auto result = group.run([&](TaskContext& ctx) {
      if (ctx.rank() == 0) {
        const DistSpec spec =
            DistSpec::block_auto(box, tasks, std::vector<Index>(3, 1));
        for (DistArray* a : {&src, &read_back, &applied}) {
          a->install_distribution(spec);
        }
      }
      ctx.barrier();
      fill_assigned_tagged(src, ctx.rank());
      ctx.barrier();
      const ArrayStreamer streamer(nullptr, {}, kChunk);
      std::uint32_t crc = 0;
      streamer.write_section(ctx, src, box, full, 0, tasks, &crc);
      if (ctx.rank() == 0) {
        write_crc = crc;
      }
      streamer.read_section(ctx, read_back, box, full, 0, tasks, &crc);
      if (ctx.rank() == 0) {
        read_crc = crc;
      }
      const auto written = streamer.write_delta_blocks(
          ctx, src, blocks, dirty, delta, tasks,
          drms::support::BlockCodec::kLz);
      if (ctx.rank() == 0) {
        records = written.records;
      }
      streamer.apply_delta_blocks(ctx, applied, blocks, written.records,
                                  delta, tasks);
      ctx.barrier();
      mismatches += count_mapped_mismatches(read_back, ctx.rank()) +
                    count_mapped_mismatches(applied, ctx.rank());
    });
    ASSERT_TRUE(result.completed) << tasks << ": " << result.kill_reason;
    EXPECT_EQ(mismatches.load(), 0) << tasks;
    EXPECT_EQ(full.read_at(0, full.size()), reference) << tasks;
    EXPECT_EQ(write_crc, reference_crc) << tasks;
    EXPECT_EQ(read_crc, reference_crc) << tasks;
    ASSERT_EQ(records.size(), blocks.chunk_count()) << tasks;
    for (const DeltaBlockRecord& r : records) {
      const auto b = static_cast<std::size_t>(r.block_index);
      const auto raw = std::span(reference).subspan(
          static_cast<std::size_t>(blocks.offsets[b]),
          static_cast<std::size_t>(r.raw_bytes));
      EXPECT_EQ(r.raw_crc, drms::support::crc32c(raw))
          << tasks << " block " << b;
    }
  }
}

TEST(Streamer, PartiallyAssignedArrayStreamsZerosAfterPoolPollution) {
  // Axis 0 values 20..39 are nobody's, so every chunk holds unassigned
  // elements. Their staging is zeroed: both writes read the same, with
  // zeros there.
  const Slice box = cube(64);
  constexpr int kP = 2;
  constexpr std::uint64_t kChunk = drms::support::PageBuffer::kUnit;
  const auto section = [](Index lo, Index hi) {
    return Slice({Range::contiguous(lo, hi), Range::contiguous(0, 63),
                  Range::contiguous(0, 63)});
  };
  const DistSpec spec(box, {TaskSection{section(0, 19), section(0, 20)},
                            TaskSection{section(40, 63), section(39, 63)}});
  ASSERT_FALSE(spec.fully_assigned());
  drms::store::MemoryBackend storage;
  TaskGroup group(placement_of(kP));
  DistArray array("u", box, sizeof(double), kP);
  for (const char* name : {"a", "b"}) {
    const auto anchors = pollute_page_pool();
    const FileHandle file = storage.create(name);
    const auto result = group.run([&](TaskContext& ctx) {
      if (ctx.rank() == 0 && !array.distributed()) {
        array.install_distribution(spec);
      }
      ctx.barrier();
      fill_assigned_tagged(array, ctx.rank());
      ctx.barrier();
      const ArrayStreamer streamer(nullptr, {}, kChunk);
      streamer.write_section(ctx, array, box, file, 0, kP);
    });
    ASSERT_TRUE(result.completed) << name << ": " << result.kill_reason;
  }
  const FileHandle a = storage.open("a");
  const std::vector<std::byte> bytes = a.read_at(0, a.size());
  const FileHandle b = storage.open("b");
  EXPECT_EQ(b.read_at(0, b.size()), bytes);

  std::vector<double> stream(bytes.size() / sizeof(double));
  std::memcpy(stream.data(), bytes.data(), bytes.size());
  std::size_t i = 0;
  int wrong = 0;
  box.for_each_column_major([&](std::span<const Index> p) {
    const bool assigned = p[0] < 20 || p[0] >= 40;
    wrong += stream[i++] != (assigned ? tag_of(p) : 0.0);
  });
  EXPECT_EQ(wrong, 0);
}

}  // namespace
