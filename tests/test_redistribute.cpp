// Integration tests for exchange/redistribute/array_assign across the
// task runtime: value preservation, shadow consistency, and parameterized
// sweeps over (source tasks grid, destination grid, shadow widths).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <utility>

#include "core/exchange.hpp"
#include "core/redistribute.hpp"
#include "obs/recorder.hpp"
#include "support/error.hpp"
#include "rt/task_group.hpp"
#include "test_helpers.hpp"

namespace {

using namespace drms::core;
using drms::rt::TaskContext;
using drms::rt::TaskGroup;
using drms::test::count_mapped_mismatches;
using drms::test::cube;
using drms::test::fill_assigned_tagged;
using drms::test::placement_of;
using drms::test::tag_of;

TEST(Redistribute, PreservesValuesAcrossGridChange) {
  constexpr int kP = 4;
  TaskGroup group(placement_of(kP));
  DistArray array("u", cube(8), sizeof(double), kP);
  const std::array<Index, 3> shadow{0, 0, 0};
  const std::array<int, 3> grid_a{1, 2, 2};
  const std::array<int, 3> grid_b{4, 1, 1};

  const auto result = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(
          DistSpec::block(cube(8), grid_a, shadow));
    }
    ctx.barrier();
    fill_assigned_tagged(array, ctx.rank());
    ctx.barrier();

    redistribute(ctx, array, DistSpec::block(cube(8), grid_b, shadow));

    EXPECT_EQ(count_mapped_mismatches(array, ctx.rank()), 0);
  });
  EXPECT_TRUE(result.completed);
}

TEST(Redistribute, UpdatesShadowCopiesConsistently) {
  constexpr int kP = 4;
  TaskGroup group(placement_of(kP));
  DistArray array("u", cube(8), sizeof(double), kP);
  const std::array<Index, 3> shadow{1, 1, 1};

  const auto result = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(
          DistSpec::block_auto(cube(8), kP, shadow));
    }
    ctx.barrier();
    fill_assigned_tagged(array, ctx.rank());
    ctx.barrier();

    // Redistribute to a shadowed distribution on a different grid; every
    // mapped element (shadows included) must carry the pattern.
    const std::array<int, 3> grid{4, 1, 1};
    redistribute(ctx, array, DistSpec::block(cube(8), grid, shadow));
    EXPECT_EQ(count_mapped_mismatches(array, ctx.rank()), 0);
  });
  EXPECT_TRUE(result.completed);
}

TEST(Redistribute, IdentityRedistributionIsANoOpOnValues) {
  constexpr int kP = 3;
  TaskGroup group(placement_of(kP));
  DistArray array("u", cube(6), sizeof(double), kP);
  const std::array<Index, 3> shadow{1, 0, 0};
  const DistSpec spec = DistSpec::block_auto(cube(6), kP, shadow);

  const auto result = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(spec);
    }
    ctx.barrier();
    fill_assigned_tagged(array, ctx.rank());
    ctx.barrier();
    redistribute(ctx, array, spec);
    EXPECT_EQ(count_mapped_mismatches(array, ctx.rank()), 0);
  });
  EXPECT_TRUE(result.completed);
}

TEST(Redistribute, EveryTaskKeepsPartOfItsSectionUnderANewShadowWidth) {
  // Grid 2x2x1 without shadows to grid 2x1x2 with width-2 shadows: every
  // task's new mapped section holds part of its own old section, which
  // it copies across directly, and parts that arrive from other tasks.
  constexpr int kP = 4;
  const Slice box = cube(10);
  const DistSpec from =
      DistSpec::block(box, std::array<int, 3>{2, 2, 1},
                      std::array<Index, 3>{0, 0, 0});
  const DistSpec to = DistSpec::block(box, std::array<int, 3>{2, 1, 2},
                                      std::array<Index, 3>{2, 2, 2});
  for (int t = 0; t < kP; ++t) {
    const Slice kept = from.assigned(t).intersect(to.mapped(t));
    ASSERT_FALSE(kept.empty()) << t;
    ASSERT_LT(kept.element_count(), to.mapped(t).element_count()) << t;
  }
  // The byte counters count every piece, the kept ones included.
  std::uint64_t piece_bytes = 0;
  for (int s = 0; s < kP; ++s) {
    for (int d = 0; d < kP; ++d) {
      piece_bytes += static_cast<std::uint64_t>(
                         from.assigned(s).intersect(to.mapped(d))
                             .element_count()) *
                     sizeof(double);
    }
  }
  drms::obs::Recorder recorder;
  TaskGroup group(placement_of(kP));
  DistArray array("u", box, sizeof(double), kP);
  const auto result = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(from);
    }
    ctx.barrier();
    fill_assigned_tagged(array, ctx.rank());
    ctx.barrier();
    LocalArray staged(to.mapped(ctx.rank()), sizeof(double));
    exchange_sections(ctx, from.assigned_slices(), &array.local(ctx.rank()),
                      to.mapped_slices(), &staged, sizeof(double), &recorder);
    redistribute(ctx, array, to);
    EXPECT_EQ(count_mapped_mismatches(array, ctx.rank()), 0);
    EXPECT_TRUE(std::ranges::equal(std::as_const(staged).bytes(),
                                   std::as_const(array.local(ctx.rank()))
                                       .bytes()));
  });
  EXPECT_TRUE(result.completed) << result.kill_reason;
  EXPECT_EQ(recorder.counter("exchange.bytes_sent"), piece_bytes);
  EXPECT_EQ(recorder.counter("exchange.bytes_received"), piece_bytes);
}

TEST(ArrayAssign, CopiesBetweenDifferentlyDistributedArrays) {
  constexpr int kP = 4;
  TaskGroup group(placement_of(kP));
  DistArray a("a", cube(8), sizeof(double), kP);
  DistArray b("b", cube(8), sizeof(double), kP);
  const std::array<Index, 3> shadow{0, 0, 0};
  const std::array<Index, 3> shadow_b{1, 1, 1};
  const std::array<int, 3> grid_a{2, 2, 1};
  const std::array<int, 3> grid_b{1, 1, 4};

  const auto result = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      a.install_distribution(DistSpec::block(cube(8), grid_a, shadow));
      b.install_distribution(DistSpec::block(cube(8), grid_b, shadow_b));
    }
    ctx.barrier();
    fill_assigned_tagged(a, ctx.rank());
    ctx.barrier();

    array_assign(ctx, a, b);
    EXPECT_EQ(count_mapped_mismatches(b, ctx.rank()), 0);
  });
  EXPECT_TRUE(result.completed);
}

TEST(ArrayAssign, ShapeMismatchThrows) {
  constexpr int kP = 2;
  TaskGroup group(placement_of(kP));
  DistArray a("a", cube(8), sizeof(double), kP);
  DistArray b("b", cube(4), sizeof(double), kP);
  const std::array<Index, 3> shadow{0, 0, 0};

  const auto result = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      a.install_distribution(DistSpec::block_auto(cube(8), kP, shadow));
      b.install_distribution(DistSpec::block_auto(cube(4), kP, shadow));
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      EXPECT_THROW(array_assign(ctx, a, b),
                   drms::support::ContractViolation);
    }
  });
  // Rank 0 throws before the collective; the group is killed as a result
  // of the uncaught contract violation in the lambda? No: EXPECT_THROW
  // swallows it, so the run completes (rank 1 never entered the
  // collective).
  EXPECT_TRUE(result.completed);
}

/// Parameterized sweep over redistribution scenarios.
struct RedistCase {
  int from_tasks;
  int to_grid0, to_grid1, to_grid2;
  Index shadow;
  Index n;
};

class RedistributeSweep : public ::testing::TestWithParam<RedistCase> {};

TEST_P(RedistributeSweep, ValuePreservation) {
  const auto c = GetParam();
  const int kP = std::max(c.from_tasks,
                          c.to_grid0 * c.to_grid1 * c.to_grid2);
  TaskGroup group(placement_of(kP));
  DistArray array("u", cube(c.n), sizeof(double), kP);
  const std::array<Index, 3> shadow{c.shadow, c.shadow, c.shadow};
  const std::array<int, 3> to_grid{c.to_grid0, c.to_grid1, c.to_grid2};

  // Pad a distribution over fewer tasks with empty sections so it spans
  // the whole kP-task group.
  const auto padded = [&](const DistSpec& partial) {
    std::vector<TaskSection> sections;
    for (int t = 0; t < kP; ++t) {
      if (t < partial.task_count()) {
        sections.push_back(partial.section(t));
      } else {
        sections.push_back(TaskSection{Slice::empty_of_rank(3),
                                       Slice::empty_of_rank(3)});
      }
    }
    return DistSpec(cube(c.n), std::move(sections));
  };

  const auto result = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(
          padded(DistSpec::block_auto(cube(c.n), c.from_tasks, shadow)));
    }
    ctx.barrier();
    fill_assigned_tagged(array, ctx.rank());
    ctx.barrier();

    redistribute(ctx, array,
                 padded(DistSpec::block(cube(c.n), to_grid, shadow)));
    EXPECT_EQ(count_mapped_mismatches(array, ctx.rank()), 0);
  });
  EXPECT_TRUE(result.completed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RedistributeSweep,
    ::testing::Values(RedistCase{1, 2, 2, 2, 0, 8},
                      RedistCase{8, 1, 1, 1, 0, 8},
                      RedistCase{4, 3, 1, 2, 1, 12},
                      RedistCase{2, 1, 5, 1, 1, 10},
                      RedistCase{6, 2, 2, 1, 2, 8},
                      RedistCase{3, 7, 1, 1, 0, 7}));

}  // namespace
