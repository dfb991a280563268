// Integration tests for the checkpoint engines: DRMS write/restore round
// trips (including reconfigured restarts t1 -> t2), the SPMD baseline,
// state-size accounting, and corruption detection.
#include <gtest/gtest.h>

#include <array>

#include "core/drms_checkpoint.hpp"
#include "core/redistribute.hpp"
#include "support/error.hpp"
#include "core/spmd_checkpoint.hpp"
#include "rt/task_group.hpp"
#include "test_helpers.hpp"

namespace {

using namespace drms::core;
using Volume = drms::test::TestVolume;
using drms::rt::TaskContext;
using drms::rt::TaskGroup;
using drms::test::count_mapped_mismatches;
using drms::test::cube;
using drms::test::fill_assigned_tagged;
using drms::test::placement_of;

AppSegmentModel small_segment() {
  AppSegmentModel m;
  m.static_local_bytes = 64 * 1024;
  m.private_bytes = 16 * 1024;
  m.system_bytes = 128 * 1024;
  m.text_bytes = 8 * 1024;
  return m;
}

struct TestState {
  std::int64_t iteration = 0;
  double residual = 0.0;
  std::vector<double> history;

  void register_in(ReplicatedStore& store) {
    store.register_i64("iteration", &iteration);
    store.register_f64("residual", &residual);
    store.register_f64_vector("history", &history);
  }
};

/// Write a DRMS checkpoint of a tagged n^3 array from t1 tasks.
void write_drms_checkpoint(Volume& volume, int t1, Index n,
                           const std::string& prefix) {
  TaskGroup group(placement_of(t1));
  DistArray array("u", cube(n), sizeof(double), t1);
  const auto result = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      std::vector<Index> shadow(3, 1);
      array.install_distribution(
          DistSpec::block_auto(cube(n), t1, shadow));
    }
    ctx.barrier();
    fill_assigned_tagged(array, ctx.rank());
    ctx.barrier();

    TestState state;
    state.iteration = 42;
    state.residual = 1e-6;
    state.history = {3.0, 2.0, 1.0};
    ReplicatedStore store;
    state.register_in(store);

    DrmsCheckpoint engine(volume, {});
    const std::array<DistArray*, 1> arrays{&array};
    const auto timing = engine.write(ctx, prefix, "testapp", 7, store,
                                     arrays, small_segment());
    (void)timing;
  });
  ASSERT_TRUE(result.completed);
}

TEST(DrmsCheckpoint, MetaDescribesTheState) {
  Volume volume(16);
  write_drms_checkpoint(volume, 4, 8, "ck");
  ASSERT_TRUE(checkpoint_exists(volume, "ck"));
  const CheckpointMeta meta = read_checkpoint_meta(volume, "ck");
  EXPECT_EQ(meta.app_name, "testapp");
  EXPECT_EQ(meta.task_count, 4);
  EXPECT_EQ(meta.sop, 7);
  ASSERT_EQ(meta.arrays.size(), 1u);
  EXPECT_EQ(meta.arrays[0].name, "u");
  EXPECT_EQ(meta.arrays[0].stream_bytes, 8ull * 8 * 8 * sizeof(double));
  EXPECT_EQ(meta.arrays[0].box(), cube(8));
  EXPECT_EQ(meta.segment_bytes, small_segment().total());
}

TEST(DrmsCheckpoint, StateSizeIsSegmentPlusArrays) {
  Volume volume(16);
  write_drms_checkpoint(volume, 4, 8, "ck");
  EXPECT_EQ(drms_state_size(volume, "ck"),
            small_segment().total() + 8ull * 8 * 8 * sizeof(double));
}

TEST(DrmsCheckpoint, StateSizeIndependentOfTaskCount) {
  Volume v2(16);
  write_drms_checkpoint(v2, 2, 8, "ck");
  Volume v8(16);
  write_drms_checkpoint(v8, 8, 8, "ck");
  EXPECT_EQ(drms_state_size(v2, "ck"), drms_state_size(v8, "ck"));
}

/// Restore on t2 tasks and verify both replicated state and array values.
void restore_and_check(Volume& volume, int t2, Index n,
                       const std::string& prefix) {
  TaskGroup group(placement_of(t2));
  DistArray array("u", cube(n), sizeof(double), t2);
  const auto result = group.run([&](TaskContext& ctx) {
    TestState state;  // starts blank; must be refreshed from the segment
    ReplicatedStore store;
    state.register_in(store);

    DrmsCheckpoint engine(volume, {});
    RestartTiming timing;
    const CheckpointMeta meta = engine.restore_segment(
        ctx, prefix, store, small_segment(), timing);
    EXPECT_EQ(state.iteration, 42);
    EXPECT_DOUBLE_EQ(state.residual, 1e-6);
    EXPECT_EQ(state.history, (std::vector<double>{3.0, 2.0, 1.0}));

    // Specify a (new) distribution, then load.
    if (ctx.rank() == 0) {
      std::vector<Index> shadow(3, 1);
      array.install_distribution(
          DistSpec::block_auto(cube(n), t2, shadow));
    }
    ctx.barrier();
    engine.restore_array(ctx, meta,
                         resolve_checkpoint_chain(volume, prefix, meta), array,
                         timing);
    EXPECT_EQ(count_mapped_mismatches(array, ctx.rank()), 0);
  });
  ASSERT_TRUE(result.completed);
}

TEST(DrmsCheckpoint, RestoreOnSameTaskCount) {
  Volume volume(16);
  write_drms_checkpoint(volume, 4, 8, "ck");
  restore_and_check(volume, 4, 8, "ck");
}

/// The paper's headline property: restart with t2 != t1.
class ReconfiguredRestart
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ReconfiguredRestart, T1ToT2) {
  const auto [t1, t2] = GetParam();
  Volume volume(16);
  write_drms_checkpoint(volume, t1, 8, "ck");
  restore_and_check(volume, t2, 8, "ck");
}

INSTANTIATE_TEST_SUITE_P(
    TaskCountPairs, ReconfiguredRestart,
    ::testing::Values(std::make_pair(8, 4), std::make_pair(4, 8),
                      std::make_pair(1, 8), std::make_pair(8, 1),
                      std::make_pair(3, 5), std::make_pair(6, 6),
                      std::make_pair(5, 7)));

TEST(DrmsCheckpoint, MultiplePrefixesCoexist) {
  Volume volume(16);
  write_drms_checkpoint(volume, 4, 8, "ck.a");
  write_drms_checkpoint(volume, 2, 8, "ck.b");
  restore_and_check(volume, 3, 8, "ck.a");
  restore_and_check(volume, 5, 8, "ck.b");
}

TEST(DrmsCheckpoint, CorruptedSegmentIsDetected) {
  Volume volume(16);
  write_drms_checkpoint(volume, 2, 8, "ck");
  // Flip a byte inside the replicated payload.
  auto seg = volume.open(segment_file_name("ck"));
  auto byte = seg.read_at(40, 1);
  byte[0] ^= std::byte{0xff};
  seg.write_at(40, byte);

  TaskGroup group(placement_of(2));
  const auto result = group.run([&](TaskContext& ctx) {
    TestState state;
    ReplicatedStore store;
    state.register_in(store);
    DrmsCheckpoint engine(volume, {});
    RestartTiming timing;
    EXPECT_THROW((void)engine.restore_segment(ctx, "ck", store,
                                              small_segment(), timing),
                 drms::support::CorruptCheckpoint);
  });
  EXPECT_TRUE(result.completed);
}

TEST(DrmsCheckpoint, MissingPrefixReportsCleanly) {
  Volume volume(16);
  EXPECT_FALSE(checkpoint_exists(volume, "nope"));
  EXPECT_THROW((void)read_checkpoint_meta(volume, "nope"),
               drms::support::IoError);
}

TEST(DrmsCheckpoint, MismatchedArrayDeclarationThrows) {
  Volume volume(16);
  write_drms_checkpoint(volume, 2, 8, "ck");
  TaskGroup group(placement_of(2));
  DistArray wrong("u", cube(4), sizeof(double), 2);  // wrong shape
  const auto result = group.run([&](TaskContext& ctx) {
    TestState state;
    ReplicatedStore store;
    state.register_in(store);
    DrmsCheckpoint engine(volume, {});
    RestartTiming timing;
    const auto meta =
        engine.restore_segment(ctx, "ck", store, small_segment(), timing);
    if (ctx.rank() == 0) {
      wrong.install_distribution(
          DistSpec::block_auto(cube(4), 2, std::vector<Index>(3, 0)));
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      const CheckpointChain chain =
          resolve_checkpoint_chain(volume, "ck", meta);
      EXPECT_THROW(engine.restore_array(ctx, meta, chain, wrong, timing),
                   drms::support::ContractViolation);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(DrmsCheckpoint, CorruptedArrayFileIsDetected) {
  Volume volume(16);
  write_drms_checkpoint(volume, 4, 8, "ck");
  // Flip a byte in the middle of the array stream.
  auto f = volume.open(array_file_name("ck", "u"));
  auto b = f.read_at(1000, 1);
  b[0] ^= std::byte{0x01};
  f.write_at(1000, b);

  TaskGroup group(placement_of(3));
  DistArray array("u", cube(8), sizeof(double), 3);
  const auto result = group.run([&](TaskContext& ctx) {
    TestState state;
    ReplicatedStore store;
    state.register_in(store);
    DrmsCheckpoint engine(volume, {});
    RestartTiming timing;
    const auto meta =
        engine.restore_segment(ctx, "ck", store, small_segment(), timing);
    if (ctx.rank() == 0) {
      std::vector<Index> shadow(3, 0);
      array.install_distribution(
          DistSpec::block_auto(cube(8), 3, shadow));
    }
    ctx.barrier();
    const CheckpointChain chain = resolve_checkpoint_chain(volume, "ck", meta);
    EXPECT_THROW(engine.restore_array(ctx, meta, chain, array, timing),
                 drms::support::CorruptCheckpoint);
  });
  EXPECT_TRUE(result.completed);
}

TEST(DrmsCheckpoint, AlternatingPrefixesSurviveATornCheckpoint) {
  // The paper's multiple-concurrent-states feature is also the defence
  // against a crash DURING a checkpoint: applications alternate between
  // two prefixes, so a torn write can only damage the newer state and
  // the older one remains restartable.
  Volume volume(16);
  write_drms_checkpoint(volume, 4, 8, "even");
  write_drms_checkpoint(volume, 4, 8, "odd");

  // Simulate a crash while overwriting "even": half the array file gets
  // scribbled, the meta was never rewritten.
  auto f = volume.open(array_file_name("even", "u"));
  std::vector<std::byte> garbage(f.size() / 2, std::byte{0x5a});
  f.write_at(0, garbage);

  // Restoring "even" now fails loudly at the array-CRC check...
  {
    TaskGroup group(placement_of(4));
    DistArray array("u", cube(8), sizeof(double), 4);
    const auto result = group.run([&](TaskContext& ctx) {
      TestState state;
      ReplicatedStore store;
      state.register_in(store);
      DrmsCheckpoint engine(volume, {});
      RestartTiming timing;
      const auto meta = engine.restore_segment(ctx, "even", store,
                                               small_segment(), timing);
      if (ctx.rank() == 0) {
        array.install_distribution(DistSpec::block_auto(
            cube(8), 4, std::vector<Index>(3, 0)));
      }
      ctx.barrier();
      const CheckpointChain chain =
          resolve_checkpoint_chain(volume, "even", meta);
      EXPECT_THROW(engine.restore_array(ctx, meta, chain, array, timing),
                   drms::support::CorruptCheckpoint);
    });
    EXPECT_TRUE(result.completed);
  }
  // ...while "odd" is intact and fully restartable.
  restore_and_check(volume, 6, 8, "odd");
}

// ---------------------------------------------------------------------------
// SPMD baseline
// ---------------------------------------------------------------------------

void spmd_round_trip(Volume& volume, int tasks, Index n) {
  const std::string prefix = "sp";
  // Write.
  {
    TaskGroup group(placement_of(tasks));
    DistArray array("u", cube(n), sizeof(double), tasks);
    const auto result = group.run([&](TaskContext& ctx) {
      if (ctx.rank() == 0) {
        array.install_distribution(
            DistSpec::block_auto(cube(n), tasks, std::vector<Index>(3, 1)));
      }
      ctx.barrier();
      fill_assigned_tagged(array, ctx.rank());
      // Make the shadow copies consistent too (SPMD dumps raw locals).
      redistribute(ctx, array, array.distribution());

      TestState state;
      state.iteration = 7;
      ReplicatedStore store;
      state.register_in(store);
      SpmdCheckpoint engine(volume, {});
      const std::array<DistArray*, 1> arrays{&array};
      engine.write(ctx, prefix, "testapp", 1, store, arrays,
                   small_segment());
    });
    ASSERT_TRUE(result.completed);
  }
  // Restore with the same task count.
  {
    TaskGroup group(placement_of(tasks));
    DistArray array("u", cube(n), sizeof(double), tasks);
    const auto result = group.run([&](TaskContext& ctx) {
      if (ctx.rank() == 0) {
        array.install_distribution(
            DistSpec::block_auto(cube(n), tasks, std::vector<Index>(3, 1)));
      }
      ctx.barrier();
      TestState state;
      ReplicatedStore store;
      state.register_in(store);
      SpmdCheckpoint engine(volume, {});
      const std::array<DistArray*, 1> arrays{&array};
      RestartTiming timing;
      engine.restore(ctx, prefix, store, arrays, small_segment(), timing);
      EXPECT_EQ(state.iteration, 7);
      EXPECT_EQ(count_mapped_mismatches(array, ctx.rank()), 0);
    });
    ASSERT_TRUE(result.completed);
  }
}

TEST(SpmdCheckpoint, RoundTripSameTaskCount) {
  Volume volume(16);
  spmd_round_trip(volume, 4, 8);
}

TEST(SpmdCheckpoint, OneFilePerTask) {
  Volume volume(16);
  spmd_round_trip(volume, 4, 8);
  for (int r = 0; r < 4; ++r) {
    EXPECT_TRUE(volume.exists(spmd_task_file_name("sp", r)));
  }
  EXPECT_EQ(spmd_state_size(volume, "sp"),
            4ull * small_segment().total());
}

TEST(SpmdCheckpoint, StateGrowsLinearlyWithTasks) {
  Volume v2(16);
  spmd_round_trip(v2, 2, 8);
  Volume v8(16);
  spmd_round_trip(v8, 8, 8);
  EXPECT_EQ(spmd_state_size(v8, "sp"), 4 * spmd_state_size(v2, "sp"));
}

TEST(SpmdCheckpoint, ReconfiguredRestartIsImpossible) {
  Volume volume(16);
  spmd_round_trip(volume, 4, 8);

  TaskGroup group(placement_of(6));
  DistArray array("u", cube(8), sizeof(double), 6);
  const auto result = group.run([&](TaskContext& ctx) {
    TestState state;
    ReplicatedStore store;
    state.register_in(store);
    SpmdCheckpoint engine(volume, {});
    const std::array<DistArray*, 1> arrays{&array};
    RestartTiming timing;
    EXPECT_THROW(engine.restore(ctx, "sp", store, arrays, small_segment(),
                                timing),
                 drms::support::Error);
  });
  EXPECT_TRUE(result.completed);
}

}  // namespace
