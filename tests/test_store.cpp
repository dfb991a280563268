// Tests for the pluggable storage layer (drms::store): PIOFS-adapter
// equivalence, the in-memory tier's capacity accounting, and the tiered
// backend's staging semantics — spill on capacity exhaustion, background
// drain, and restart after a simulated fast-tier loss.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint_format.hpp"
#include "core/drms_context.hpp"
#include "piofs/volume.hpp"
#include "rt/task_group.hpp"
#include "store/fault_injection_backend.hpp"
#include "store/memory_backend.hpp"
#include "store/piofs_backend.hpp"
#include "store/redundant_backend.hpp"
#include "store/storage_backend.hpp"
#include "store/tiered_backend.hpp"
#include "support/byte_buffer.hpp"
#include "support/error.hpp"
#include "support/units.hpp"
#include "test_helpers.hpp"

namespace {

using namespace drms;
using store::CapacityExceeded;
using store::FileHandle;
using store::MemoryBackend;
using store::PiofsBackend;
using store::StorageBackend;
using store::TieredBackend;

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string string_of(const std::vector<std::byte>& b) {
  std::string out(b.size(), '\0');
  std::memcpy(out.data(), b.data(), b.size());
  return out;
}

/// Generic round trip every backend must support.
void round_trip(StorageBackend& storage) {
  auto f = storage.create("dir/a");
  f.write_at(0, bytes_of("hello"));
  f.append(bytes_of(" world"));
  f.write_zeros_at(11, 5);
  EXPECT_EQ(f.size(), 16u);
  EXPECT_EQ(string_of(storage.open("dir/a").read_at(0, 11)), "hello world");
  EXPECT_TRUE(storage.exists("dir/a"));
  EXPECT_FALSE(storage.exists("dir/b"));
  EXPECT_THROW((void)storage.open("dir/b"), support::IoError);
  EXPECT_EQ(storage.file_size("dir/a"), 16u);
  EXPECT_EQ(storage.total_size("dir/"), 16u);

  (void)storage.create("dir/b");
  EXPECT_EQ(storage.list("dir/").size(), 2u);
  EXPECT_EQ(storage.remove_prefix("dir/"), 2);
  EXPECT_TRUE(storage.list().empty());
}

TEST(PiofsBackend, RoundTrip) {
  piofs::Volume volume(16);
  PiofsBackend storage(volume);
  round_trip(storage);
  EXPECT_EQ(storage.server_count(), 16);
  EXPECT_FALSE(storage.charges_time());
}

TEST(MemoryBackend, RoundTrip) {
  MemoryBackend storage;
  round_trip(storage);
  EXPECT_EQ(storage.server_count(), 1);
}

TEST(TieredBackend, RoundTrip) {
  piofs::Volume volume(16);
  PiofsBackend slow(volume);
  MemoryBackend fast;
  TieredBackend storage(fast, slow);
  round_trip(storage);
  EXPECT_EQ(storage.server_count(), 16);
}

TEST(PiofsBackend, AdapterIsBitIdenticalWithTheVolume) {
  piofs::Volume volume(16);
  PiofsBackend storage(volume);
  auto f = storage.create("x");
  f.write_at(3, bytes_of("abc"));
  // The same bytes are visible through the raw volume and vice versa.
  EXPECT_EQ(string_of(volume.open("x").read_at(3, 3)), "abc");
  volume.open("x").write_at(0, bytes_of("zzz"));
  EXPECT_EQ(string_of(storage.open("x").read_at(0, 6)), "zzzabc");
}

TEST(PiofsBackend, TimingMatchesTheCostModelExactly) {
  const sim::CostModel cost = sim::CostModel::paper_sp16();
  piofs::Volume volume(16);
  const PiofsBackend storage(volume, &cost);
  ASSERT_TRUE(storage.charges_time());
  sim::LoadContext load;
  load.busy_server_fraction = 0.5;
  load.per_task_resident_bytes = 32 * support::kMiB;
  EXPECT_EQ(storage.single_write_seconds(1 << 20, load, nullptr),
            cost.single_write_seconds(1 << 20, load, nullptr));
  EXPECT_EQ(storage.concurrent_write_seconds(1 << 20, 8, load, nullptr),
            cost.concurrent_write_seconds(1 << 20, 8, load, nullptr));
  EXPECT_EQ(storage.shared_read_seconds(1 << 20, 8, load, nullptr),
            cost.shared_read_seconds(1 << 20, 8, load, nullptr));
  EXPECT_EQ(storage.private_read_seconds(1 << 20, 8, load, nullptr),
            cost.private_read_seconds(1 << 20, 8, load, nullptr));
  EXPECT_EQ(storage.stream_write_round_seconds(1 << 20, 8, load, nullptr),
            cost.stream_write_round_seconds(1 << 20, 8, load, nullptr));
  EXPECT_EQ(storage.stream_read_round_seconds(1 << 20, 8, load, nullptr),
            cost.stream_read_round_seconds(1 << 20, 8, load, nullptr));
}

TEST(MemoryBackend, CapacityExhaustionThrowsBeforeMutating) {
  MemoryBackend storage(/*capacity_bytes=*/64);
  auto f = storage.create("a");
  f.write_at(0, std::vector<std::byte>(48));
  EXPECT_EQ(storage.used_bytes(), 48u);
  // 48 + 32 > 64: refused, and the file is untouched.
  EXPECT_THROW(f.write_at(48, std::vector<std::byte>(32)),
               CapacityExceeded);
  EXPECT_EQ(f.size(), 48u);
  EXPECT_EQ(storage.used_bytes(), 48u);
  // Overwriting in place needs no new capacity.
  f.write_at(0, std::vector<std::byte>(48));
  // Freeing room makes the write admissible again.
  storage.remove("a");
  EXPECT_EQ(storage.used_bytes(), 0u);
  auto g = storage.create("b");
  g.write_at(0, std::vector<std::byte>(64));
  EXPECT_EQ(storage.used_bytes(), 64u);
}

TEST(MemoryBackend, ChargesMemoryBandwidthTime) {
  sim::CostModel cost = sim::CostModel::paper_sp16();
  const MemoryBackend storage(0, &cost);
  sim::LoadContext load;
  const double seconds =
      storage.single_write_seconds(150 * support::kMiB, load, nullptr);
  // 150 MiB at 150 MiB/s + fixed latency.
  EXPECT_NEAR(seconds, 1.0 + cost.memory_op_latency, 1e-9);
  // Far cheaper than the server-limited PIOFS path for the same phase.
  EXPECT_LT(seconds,
            cost.single_write_seconds(150 * support::kMiB, load, nullptr));
}

TEST(TieredBackend, CapacityOverflowSpillsToTheSlowTier) {
  piofs::Volume volume(16);
  PiofsBackend slow(volume);
  MemoryBackend fast(/*capacity_bytes=*/64);
  TieredBackend storage(fast, slow);

  auto small = storage.create("small");
  small.write_at(0, std::vector<std::byte>(40, std::byte{1}));
  // The second file overflows the fast tier mid-write: its staged bytes
  // move to PIOFS and the write completes there.
  auto big = storage.create("big");
  big.write_at(0, std::vector<std::byte>(20, std::byte{2}));
  big.write_at(20, std::vector<std::byte>(40, std::byte{3}));
  EXPECT_EQ(big.size(), 60u);
  EXPECT_EQ(storage.stats().fast_spills, 1u);
  EXPECT_TRUE(volume.exists("big"));       // spilled to PIOFS
  EXPECT_FALSE(fast.exists("big"));        // no longer staged
  EXPECT_TRUE(fast.exists("small"));       // still staged
  EXPECT_FALSE(volume.exists("small"));    // not drained yet
  // Later writes to the spilled file go straight to the slow tier.
  big.append(std::vector<std::byte>(8, std::byte{4}));
  EXPECT_EQ(storage.open("big").size(), 68u);
  EXPECT_EQ(string_of(storage.open("big").read_at(20, 1)),
            std::string(1, '\x03'));
}

TEST(TieredBackend, DrainCopiesStagedFilesToTheSlowTier) {
  piofs::Volume volume(16);
  PiofsBackend slow(volume);
  MemoryBackend fast;
  TieredBackend storage(fast, slow);

  storage.create("a").write_at(0, bytes_of("aaaa"));
  storage.create("b").write_at(0, bytes_of("bb"));
  EXPECT_EQ(storage.drain_backlog_bytes(), 6u);

  const auto report = storage.drain();
  EXPECT_EQ(report.files_drained, 2);
  EXPECT_EQ(report.bytes_drained, 6u);
  EXPECT_EQ(storage.drain_backlog_bytes(), 0u);
  EXPECT_EQ(string_of(volume.open("a").read_at(0, 4)), "aaaa");
  EXPECT_EQ(string_of(volume.open("b").read_at(0, 2)), "bb");
  // A second drain has nothing to do.
  EXPECT_EQ(storage.drain().files_drained, 0);
  // New writes re-dirty the file.
  storage.open("a").append(bytes_of("!"));
  EXPECT_EQ(storage.drain().files_drained, 1);
  EXPECT_EQ(string_of(volume.open("a").read_at(0, 5)), "aaaa!");
}

TEST(TieredBackend, FastTierLossFallsBackToDrainedCopies) {
  piofs::Volume volume(16);
  PiofsBackend slow(volume);
  MemoryBackend fast;
  TieredBackend storage(fast, slow);

  storage.create("drained").write_at(0, bytes_of("safe"));
  (void)storage.drain();
  storage.create("undrained").write_at(0, bytes_of("gone"));

  storage.fail_fast_tier();
  EXPECT_FALSE(storage.fast_holds_data());
  // The drained file survives on PIOFS...
  EXPECT_TRUE(storage.exists("drained"));
  EXPECT_EQ(string_of(storage.open("drained").read_at(0, 4)), "safe");
  // ...the undrained one is lost, loudly.
  EXPECT_FALSE(storage.exists("undrained"));
  EXPECT_THROW((void)storage.open("undrained"), support::IoError);
}

TEST(TieredBackend, FailedRemoveIsSideEffectFree) {
  piofs::Volume volume(16);
  PiofsBackend slow(volume);
  MemoryBackend fast;
  TieredBackend storage(fast, slow);

  storage.create("drained").write_at(0, bytes_of("safe"));
  (void)storage.drain();
  storage.create("lost").write_at(0, bytes_of("gone"));
  storage.fail_fast_tier();

  // The undrained file's bytes died with the fast tier: remove() fails...
  EXPECT_THROW(storage.remove("lost"), support::IoError);
  // ...and fails identically again — the first failure changed nothing.
  EXPECT_THROW(storage.remove("lost"), support::IoError);
  EXPECT_THROW(storage.remove("never-existed"), support::IoError);
  // Other files are untouched and still removable.
  EXPECT_TRUE(storage.exists("drained"));
  EXPECT_EQ(string_of(storage.open("drained").read_at(0, 4)), "safe");
  // The lost name can be re-created and behaves normally afterwards.
  storage.create("lost").write_at(0, bytes_of("new"));
  EXPECT_EQ(string_of(storage.open("lost").read_at(0, 3)), "new");
  storage.remove("lost");
  EXPECT_FALSE(storage.exists("lost"));
  storage.remove("drained");
  EXPECT_FALSE(storage.exists("drained"));
}

TEST(TieredBackend, RemovePrefixToleratesVanishedNames) {
  piofs::Volume volume(16);
  PiofsBackend slow(volume);
  MemoryBackend fast;
  TieredBackend storage(fast, slow);

  storage.create("ck.a").write_at(0, bytes_of("a"));
  storage.create("ck.b").write_at(0, bytes_of("b"));
  (void)storage.drain();
  storage.fail_fast_tier();
  // "ck.b" vanishes beneath the tiered view (GC on the shared volume):
  // the sweep must remove what it can and skip the stale name.
  volume.remove("ck.b");
  EXPECT_EQ(storage.remove_prefix("ck."), 1);
  EXPECT_FALSE(storage.exists("ck.a"));
  // An empty sweep is a clean no-op.
  EXPECT_EQ(storage.remove_prefix("ck."), 0);
}

TEST(TieredBackend, PartialFitTimingChargesBothTiers) {
  const sim::CostModel cost = sim::CostModel::paper_sp16();
  piofs::Volume volume(16);
  PiofsBackend slow(volume, &cost);
  MemoryBackend fast(/*capacity_bytes=*/64 * support::kKiB, &cost);
  TieredBackend storage(fast, slow);
  const sim::LoadContext load;
  const std::uint64_t k16 = 16 * support::kKiB;
  const std::uint64_t k32 = 32 * support::kKiB;

  // Everything fits: pure fast-tier price.
  EXPECT_EQ(storage.single_write_seconds(k16, load, nullptr),
            fast.single_write_seconds(k16, load, nullptr));

  // Occupy 48 KiB, leaving 16 KiB of fast headroom: a 32 KiB phase now
  // overflows mid-operation. The spill re-copies the WHOLE file to the
  // slow tier, so the price is the staged prefix at fast speed plus the
  // full size at slow speed.
  storage.create("staged").write_at(
      0, std::vector<std::byte>(48 * support::kKiB));
  EXPECT_EQ(storage.single_write_seconds(k32, load, nullptr),
            fast.single_write_seconds(k16, load, nullptr) +
                slow.single_write_seconds(k32, load, nullptr));
  EXPECT_EQ(storage.stream_write_round_seconds(k32, 4, load, nullptr),
            fast.stream_write_round_seconds(k16, 4, load, nullptr) +
                slow.stream_write_round_seconds(k32, 4, load, nullptr));

  // Fast tier full: pure slow-tier price.
  storage.create("staged2").write_at(0, std::vector<std::byte>(k16));
  EXPECT_EQ(storage.single_write_seconds(k32, load, nullptr),
            slow.single_write_seconds(k32, load, nullptr));
  EXPECT_EQ(storage.stream_write_round_seconds(k32, 4, load, nullptr),
            slow.stream_write_round_seconds(k32, 4, load, nullptr));
}

TEST(TieredBackend, AdoptsCheckpointsAlreadyOnTheSlowTier) {
  piofs::Volume volume(16);
  PiofsBackend slow(volume);
  volume.create("old").write_at(0, bytes_of("prior"));
  MemoryBackend fast;
  TieredBackend storage(fast, slow);
  EXPECT_TRUE(storage.exists("old"));
  EXPECT_EQ(string_of(storage.open("old").read_at(0, 5)), "prior");
}

// ---------------------------------------------------------------------------
// End to end: a DRMS checkpoint staged to memory survives a fast-tier
// loss once drained, and the restart reads the PIOFS copy.
// ---------------------------------------------------------------------------

core::AppSegmentModel tiny_segment() {
  core::AppSegmentModel m;
  m.static_local_bytes = 64 * 1024;
  m.system_bytes = 64 * 1024;
  return m;
}

constexpr core::Index kN = 8;

void run_mini(core::DrmsProgram& program, int tasks, bool expect_restart) {
  rt::TaskGroup group(drms::test::placement_of(tasks));
  const auto result = group.run([&](rt::TaskContext& task) {
    core::DrmsContext drms(program, task);
    std::int64_t it = 0;
    drms.store().register_i64("it", &it);
    drms.initialize();
    const std::array<core::Index, 3> lo{0, 0, 0};
    const std::array<core::Index, 3> hi{kN - 1, kN - 1, kN - 1};
    core::DistArray& u = drms.create_array("u", lo, hi);
    drms.distribute(u, core::DistSpec::block_auto(
                           u.global_box(), tasks,
                           std::vector<core::Index>(3, 0)));
    if (!drms.restarted()) {
      EXPECT_FALSE(expect_restart);
      drms::test::fill_assigned_tagged(u, task.rank());
      task.barrier();
      it = 5;
      (void)drms.reconfig_checkpoint("tiered.ck");
    } else {
      EXPECT_TRUE(expect_restart);
      EXPECT_EQ(it, 5);
      EXPECT_EQ(drms::test::count_mapped_mismatches(u, task.rank()), 0);
    }
  });
  ASSERT_TRUE(result.completed);
}

TEST(TieredBackend, DrmsRestartAfterFastTierLossReadsTheDrainedCopy) {
  piofs::Volume volume(16);
  PiofsBackend slow(volume);
  MemoryBackend fast;
  TieredBackend storage(fast, slow);

  core::DrmsEnv env;
  env.storage = &storage;
  {
    core::DrmsProgram program("mini", env, tiny_segment(), 4);
    run_mini(program, 4, /*expect_restart=*/false);
  }
  // The checkpoint committed against the memory tier only.
  EXPECT_GT(storage.drain_backlog_bytes(), 0u);
  EXPECT_FALSE(volume.exists(core::meta_file_name("tiered.ck")));

  // Background drain, then the node (and its memory tier) dies.
  const auto report = storage.drain();
  EXPECT_GT(report.bytes_drained, 0u);
  storage.fail_fast_tier();

  // Reconfigured restart (4 -> 3 tasks) from the drained PIOFS copies.
  core::DrmsEnv renv;
  renv.storage = &storage;
  renv.restart_prefix = "tiered.ck";
  core::DrmsProgram program("mini", renv, tiny_segment(), 3);
  run_mini(program, 3, /*expect_restart=*/true);
}

TEST(TieredBackend, DrmsCheckpointLostWithoutDrainFailsTheRestart) {
  piofs::Volume volume(16);
  PiofsBackend slow(volume);
  MemoryBackend fast;
  TieredBackend storage(fast, slow);

  core::DrmsEnv env;
  env.storage = &storage;
  {
    core::DrmsProgram program("mini", env, tiny_segment(), 2);
    run_mini(program, 2, /*expect_restart=*/false);
  }
  storage.fail_fast_tier();  // crash BEFORE any drain
  EXPECT_FALSE(core::checkpoint_exists(storage, "tiered.ck"));
}

TEST(TieredBackend, DrmsCheckpointSpillsWhenTheFastTierIsTooSmall) {
  // Fast tier far smaller than the checkpoint: every stream overflows and
  // the state lands directly on PIOFS; the checkpoint still verifies.
  piofs::Volume volume(16);
  PiofsBackend slow(volume);
  MemoryBackend fast(/*capacity_bytes=*/4 * 1024);
  TieredBackend storage(fast, slow);

  core::DrmsEnv env;
  env.storage = &storage;
  {
    core::DrmsProgram program("mini", env, tiny_segment(), 4);
    run_mini(program, 4, /*expect_restart=*/false);
  }
  EXPECT_GT(storage.stats().fast_spills, 0u);
  // The bulk of the state spilled straight to PIOFS; a drain flushes the
  // few small files (meta record) that did fit, then the tier dies.
  (void)storage.drain();
  storage.fail_fast_tier();
  core::DrmsEnv renv;
  renv.storage = &storage;
  renv.restart_prefix = "tiered.ck";
  core::DrmsProgram program("mini", renv, tiny_segment(), 4);
  run_mini(program, 4, /*expect_restart=*/true);
}

/// Zero-copy read contract every backend must honour: bytes land exactly
/// in the caller's span, sparse regions read back as zeros even into a
/// poisoned destination, and out-of-range reads fail without touching it.
void read_at_into_contract(StorageBackend& storage) {
  auto f = storage.create("ri/file");
  f.write_at(0, bytes_of("abcdefgh"));
  f.write_zeros_at(8, 8);  // sparse tail (piofs-backed stores skip blocks)
  f.write_at(16, bytes_of("tail"));
  ASSERT_EQ(f.size(), 20u);

  const auto handle = storage.open("ri/file");
  std::vector<std::byte> out(20, std::byte{0xEE});  // poisoned
  handle.read_at_into(0, out);
  EXPECT_EQ(string_of(out),
            std::string("abcdefgh") + std::string(8, '\0') + "tail");

  // Partial mid-file read into a sub-span leaves the rest untouched.
  std::vector<std::byte> part(6, std::byte{0xEE});
  handle.read_at_into(2, std::span(part).subspan(0, 4));
  EXPECT_EQ(string_of(part).substr(0, 4), "cdef");
  EXPECT_EQ(part[4], std::byte{0xEE});
  EXPECT_EQ(part[5], std::byte{0xEE});

  // Zero-length read anywhere in range is a no-op.
  handle.read_at_into(20, std::span<std::byte>());

  // Past-EOF reads throw and must not scribble on the destination.
  std::vector<std::byte> over(8, std::byte{0xEE});
  EXPECT_THROW(handle.read_at_into(16, over), support::IoError);

  // The span path and the allocating path see identical bytes.
  EXPECT_EQ(handle.read_at(0, 20), out);
}

TEST(PiofsBackend, ReadAtIntoContract) {
  piofs::Volume volume(4);
  PiofsBackend backend(volume);
  read_at_into_contract(backend);
}

TEST(MemoryBackend, ReadAtIntoContract) {
  MemoryBackend backend;
  read_at_into_contract(backend);
}

TEST(TieredBackend, ReadAtIntoContract) {
  MemoryBackend fast;
  piofs::Volume slow_volume(4);
  PiofsBackend slow(slow_volume);
  TieredBackend tiered(fast, slow);
  read_at_into_contract(tiered);
}

TEST(FaultInjectionBackend, ReadAtIntoContract) {
  MemoryBackend inner;
  store::FaultInjectionBackend faulty(inner);
  read_at_into_contract(faulty);
}

TEST(MemoryBackend, ReadAtIntoAccountsLikeReadAt) {
  MemoryBackend backend;
  auto f = backend.create("x");
  f.write_at(0, bytes_of("0123456789"));
  backend.reset_stats();
  std::vector<std::byte> out(10);
  backend.open("x").read_at_into(0, out);
  const auto stats = backend.stats();
  EXPECT_EQ(stats.bytes_read, 10u);
  EXPECT_EQ(stats.read_ops, 1u);
}

/// FileObject implementing only the allocating read — read_at_into must
/// work through the base-class bridge, so third-party backends stay
/// correct without overriding the fast path.
class BridgeOnlyFile final : public store::FileObject {
 public:
  void write_at(std::uint64_t offset,
                std::span<const std::byte> data) override {
    if (offset + data.size() > data_.size()) {
      data_.resize(static_cast<std::size_t>(offset) + data.size());
    }
    std::copy(data.begin(), data.end(),
              data_.begin() + static_cast<long>(offset));
  }
  void write_zeros_at(std::uint64_t offset, std::uint64_t count) override {
    write_at(offset, std::vector<std::byte>(
                         static_cast<std::size_t>(count), std::byte{0}));
  }
  [[nodiscard]] std::vector<std::byte> read_at(
      std::uint64_t offset, std::uint64_t count) const override {
    ++allocating_reads_;
    return {data_.begin() + static_cast<long>(offset),
            data_.begin() + static_cast<long>(offset + count)};
  }
  void append(std::span<const std::byte> data) override {
    write_at(data_.size(), data);
  }
  [[nodiscard]] std::uint64_t size() const override { return data_.size(); }
  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] int allocating_reads() const { return allocating_reads_; }

 private:
  std::string name_ = "bridge-only";
  std::vector<std::byte> data_;
  mutable int allocating_reads_ = 0;
};

TEST(StorageBackend, ReadAtIntoDefaultBridgesThroughReadAt) {
  auto object = std::make_shared<BridgeOnlyFile>();
  FileHandle handle{object};
  handle.write_at(0, bytes_of("bridged"));
  std::vector<std::byte> out(7, std::byte{0xEE});
  handle.read_at_into(0, out);
  EXPECT_EQ(string_of(out), "bridged");
  EXPECT_EQ(object->allocating_reads(), 1)
      << "the default read_at_into must route through read_at";
}

TEST(TieredBackend, DrainWorkListAndPerFileDrainMatchTheSweep) {
  piofs::Volume volume(16);
  PiofsBackend slow(volume);
  MemoryBackend fast;
  TieredBackend storage(fast, slow);

  storage.create("a").write_at(0, bytes_of("aaaa"));
  storage.create("b").write_at(0, bytes_of("bb"));
  auto work = storage.drain_work();
  ASSERT_EQ(work.size(), 2u);
  std::uint64_t drained = 0;
  for (const auto& item : work) {
    const auto copied = storage.drain_file(item.name);
    ASSERT_TRUE(copied.has_value()) << item.name;
    EXPECT_EQ(*copied, item.bytes) << item.name;
    drained += *copied;
  }
  EXPECT_EQ(drained, 6u);
  EXPECT_EQ(storage.drain_backlog_bytes(), 0u);
  EXPECT_EQ(string_of(volume.open("a").read_at(0, 4)), "aaaa");
  // Clean files are benignly skipped, not errors.
  EXPECT_FALSE(storage.drain_file("a").has_value());
  EXPECT_FALSE(storage.drain_file("never-existed").has_value());
  // The modeled background write time matches the slow tier's price.
  EXPECT_DOUBLE_EQ(storage.drain_write_seconds(4096),
                   slow.single_write_seconds(4096, {}, nullptr));
}

TEST(TieredBackend, ConcurrentDrainVersusRestoreIsNeverTorn) {
  piofs::Volume volume(64);
  PiofsBackend slow(volume);
  MemoryBackend fast;
  TieredBackend storage(fast, slow);

  // Each file holds one repeated version byte; a full-file write under
  // the entry lock bumps the version. A torn observation would mix
  // version bytes inside one read.
  constexpr int kFiles = 6;
  constexpr std::size_t kSize = 512;
  const auto payload = [](int file, int version) {
    return std::string(kSize, static_cast<char>('A' + file + 3 * version));
  };
  const auto name = [](int file) {
    std::string n = "f";
    n += std::to_string(file);
    return n;
  };
  for (int i = 0; i < kFiles; ++i) {
    storage.create(name(i)).write_at(0, bytes_of(payload(i, 0)));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  // Restore path: keep reading every file; contents must always be one
  // uniform version (fully fast or fully slow, never a mix).
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < kFiles; ++i) {
        const std::string got =
            string_of(storage.open(name(i)).read_at(0, kSize));
        for (char c : got) {
          if (c != got[0]) {
            ++torn;
            break;
          }
        }
      }
    }
  });
  // Drain path: sweep the event-model work list, one file per item, as
  // the scheduler's drain service does.
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& item : storage.drain_work()) {
        (void)storage.drain_file(item.name);
      }
    }
  });
  // Writer: keep re-dirtying the files with new versions.
  for (int version = 1; version <= 40; ++version) {
    for (int i = 0; i < kFiles; ++i) {
      storage.open(name(i)).write_at(0, bytes_of(payload(i, version)));
    }
  }
  stop.store(true);
  reader.join();
  drainer.join();
  EXPECT_EQ(torn.load(), 0);

  // Quiesce: a final sweep drains the last versions; after a fast-tier
  // loss every file must read back its newest content from the slow tier.
  for (const auto& item : storage.drain_work()) {
    (void)storage.drain_file(item.name);
  }
  storage.fail_fast_tier();
  for (int i = 0; i < kFiles; ++i) {
    EXPECT_EQ(string_of(storage.open(name(i)).read_at(0, kSize)),
              payload(i, 40));
  }
}

TEST(TieredBackend, DrainFileSkipsAFileRemovedAfterTheSnapshot) {
  MemoryBackend fast;
  MemoryBackend slow;
  TieredBackend storage(fast, slow);
  storage.create("a").write_at(0, bytes_of("payload"));
  ASSERT_EQ(storage.drain_work().size(), 1u);

  // The file vanishes between the drain_work snapshot and the queued
  // item's execution: the drain must skip cleanly — no resurrection on
  // the slow tier, no dirty-set leak.
  storage.remove("a");
  EXPECT_FALSE(storage.drain_file("a").has_value());
  EXPECT_FALSE(slow.exists("a"));
  EXPECT_TRUE(storage.drain_work().empty());
  EXPECT_EQ(storage.drain_backlog_bytes(), 0u);
  EXPECT_EQ(storage.drain().files_drained, 0);
}

TEST(TieredBackend, DrainFileSkipsAFileWhoseFastCopyVanished) {
  MemoryBackend fast;
  MemoryBackend slow;
  TieredBackend storage(fast, slow);
  storage.create("a").write_at(0, bytes_of("payload"));
  ASSERT_EQ(storage.drain_work().size(), 1u);

  // The physical fast-tier copy disappears while the entry still says
  // in_fast (a node of a redundant fast tier died under the entry): the
  // per-file drain must clear the stale flags instead of throwing.
  fast.remove("a");
  EXPECT_FALSE(storage.drain_file("a").has_value());
  EXPECT_FALSE(slow.exists("a"));
  EXPECT_TRUE(storage.drain_work().empty());
  EXPECT_EQ(storage.drain().files_drained, 0);
}

TEST(TieredBackend, ReconcileFastTierDowngradesFilesLostWithTheirNodes) {
  store::RedundantBackend fast(
      2, store::RedundancyScheme{store::RedundancyKind::kPartner, 2});
  MemoryBackend slow;
  TieredBackend storage(fast, slow);
  storage.create("a").write_at(0, bytes_of("drained"));
  storage.create("b").write_at(0, bytes_of("lost"));
  ASSERT_TRUE(storage.drain_file("a").has_value());  // safety copy on slow

  // Both partner nodes die: every fast-tier copy is gone while the
  // tiered entries still claim in_fast.
  fast.fail_node(0);
  fast.fail_node(1);
  EXPECT_EQ(storage.reconcile_fast_tier(), 2);

  // The drained file falls back to its slow-tier copy; the undrained
  // one is honestly lost; and no stale dirty work remains.
  EXPECT_TRUE(storage.exists("a"));
  EXPECT_EQ(string_of(storage.open("a").read_at(0, 7)), "drained");
  EXPECT_FALSE(storage.exists("b"));
  EXPECT_TRUE(storage.drain_work().empty());
  EXPECT_EQ(storage.drain().files_drained, 0);
}

TEST(StorageBackend, ReadToBufferYieldsReadableBuffer) {
  MemoryBackend backend;
  auto f = backend.create("buf");
  support::ByteBuffer payload;
  payload.put_u64(77);
  payload.put_string("zero copy");
  f.write_at(0, payload.bytes());
  support::ByteBuffer read =
      store::read_to_buffer(backend.open("buf"), 0, f.size());
  EXPECT_EQ(read.get_u64(), 77u);
  EXPECT_EQ(read.get_string(), "zero copy");
  EXPECT_EQ(read.remaining(), 0u);
}

}  // namespace
