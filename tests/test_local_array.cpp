// Tests for LocalArray: column-major layout, offset computation,
// extract/insert round trips over contiguous and irregular sub-slices,
// and a seeded sweep of the run walker against a per-element reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <utility>

#include "core/local_array.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace {

using namespace drms::core;
using drms::support::ContractViolation;

Slice box2(Index r0, Index r1, Index c0, Index c1) {
  return Slice({Range::contiguous(r0, r1), Range::contiguous(c0, c1)});
}

TEST(LocalArray, AllocationAndZeroInit) {
  LocalArray a(box2(2, 5, 10, 12), sizeof(double));
  EXPECT_EQ(a.element_count(), 4 * 3);
  EXPECT_EQ(a.byte_size(), 12 * sizeof(double));
  const std::array<Index, 2> p{3, 11};
  EXPECT_DOUBLE_EQ(a.get_f64(p), 0.0);

  // Storage is recycled from released arrays (pool units from 64 KiB up,
  // the heap below) and must still read zero. A kept array holds the
  // pool's slab mapped while the pattern-filled ones are released.
  const auto all_zero = [](const LocalArray& x) {
    const auto b = x.bytes();
    return std::all_of(b.begin(), b.end(),
                       [](std::byte v) { return v == std::byte{0}; });
  };
  const Slice four_units = box2(0, 255, 0, 127);   // 256 KiB
  const Slice two_units = box2(0, 255, 0, 63);     // 128 KiB
  const Slice below_unit = box2(0, 9, 0, 19);      // 1600 B
  for (const Slice* next : {&four_units, &two_units, &below_unit}) {
    auto filled = std::make_unique<LocalArray>(
        next == &below_unit ? below_unit : four_units, sizeof(double));
    const LocalArray kept(box2(0, 127, 0, 63), sizeof(double));
    std::memset(filled->bytes().data(), 0xA5, filled->byte_size());
    filled.reset();
    const LocalArray fresh(*next, sizeof(double));
    EXPECT_TRUE(all_zero(fresh)) << fresh.byte_size() << " bytes";
  }

  // Copies are deep.
  LocalArray original(four_units, sizeof(double));
  original.as_f64()[7] = 2.5;
  const LocalArray copy = original;
  ASSERT_NE(copy.bytes().data(), std::as_const(original).bytes().data());
  original.as_f64()[7] = -1.0;
  EXPECT_DOUBLE_EQ(copy.as_f64()[7], 2.5);
  EXPECT_EQ(copy.byte_size(), original.byte_size());
}

TEST(LocalArray, DefaultConstructedIsEmpty) {
  const LocalArray a;
  EXPECT_EQ(a.element_count(), 0);
  EXPECT_EQ(a.byte_size(), 0u);
}

TEST(LocalArray, ColumnMajorOffsets) {
  LocalArray a(box2(0, 2, 0, 1), sizeof(double));  // 3 rows x 2 cols
  const std::array<Index, 2> p00{0, 0};
  const std::array<Index, 2> p10{1, 0};
  const std::array<Index, 2> p01{0, 1};
  EXPECT_EQ(a.offset_of(p00), 0u);
  EXPECT_EQ(a.offset_of(p10), sizeof(double));          // axis 0 fastest
  EXPECT_EQ(a.offset_of(p01), 3 * sizeof(double));      // stride = |axis0|
  const std::array<Index, 2> outside{3, 0};
  EXPECT_FALSE(a.offset_of(outside).has_value());
}

TEST(LocalArray, SetGetElements) {
  LocalArray a(box2(0, 3, 0, 3), sizeof(double));
  const std::array<Index, 2> p{2, 1};
  a.set_f64(p, 42.5);
  EXPECT_DOUBLE_EQ(a.get_f64(p), 42.5);
  const std::array<Index, 2> q{1, 2};
  EXPECT_DOUBLE_EQ(a.get_f64(q), 0.0);
}

TEST(LocalArray, GetOutsideMappedThrows) {
  LocalArray a(box2(0, 3, 0, 3), sizeof(double));
  const std::array<Index, 2> p{4, 0};
  EXPECT_THROW((void)a.get_f64(p), ContractViolation);
}

/// Fill with a position-identifying pattern value.
double tag_of(std::span<const Index> p) {
  double v = 0;
  for (std::size_t k = 0; k < p.size(); ++k) {
    v = v * 1000 + static_cast<double>(p[k] + 1);
  }
  return v;
}

void fill_tagged(LocalArray& a) {
  a.mapped().for_each_column_major(
      [&](std::span<const Index> p) { a.set_f64(p, tag_of(p)); });
}

TEST(LocalArray, ExtractIsStreamOrdered) {
  LocalArray a(box2(0, 3, 0, 3), sizeof(double));
  fill_tagged(a);
  const Slice sub = box2(1, 2, 1, 2);
  std::vector<std::byte> out(static_cast<std::size_t>(
      sub.element_count() * static_cast<Index>(sizeof(double))));
  a.extract(sub, out);
  std::vector<double> got(static_cast<std::size_t>(sub.element_count()));
  std::memcpy(got.data(), out.data(), out.size());

  std::vector<double> expected;
  sub.for_each_column_major(
      [&](std::span<const Index> p) { expected.push_back(tag_of(p)); });
  EXPECT_EQ(got, expected);
}

TEST(LocalArray, InsertExtractRoundTripIrregular) {
  LocalArray a(box2(0, 9, 0, 9), sizeof(double));
  fill_tagged(a);
  // Strided + index-list sub-slice (irregular in both axes).
  const Slice sub{{Range::strided(1, 9, 2),
                   Range::of_indices({0, 3, 4, 9})}};
  std::vector<std::byte> buf(static_cast<std::size_t>(
      sub.element_count() * static_cast<Index>(sizeof(double))));
  a.extract(sub, buf);

  LocalArray b(box2(0, 9, 0, 9), sizeof(double));
  b.insert(sub, buf);
  sub.for_each_column_major([&](std::span<const Index> p) {
    EXPECT_DOUBLE_EQ(b.get_f64(p), tag_of(p));
  });
  // Elements outside the sub-slice stay zero.
  const std::array<Index, 2> untouched{0, 0};
  EXPECT_DOUBLE_EQ(b.get_f64(untouched), 0.0);
}

TEST(LocalArray, ExtractOutsideMappedThrows) {
  LocalArray a(box2(0, 3, 0, 3), sizeof(double));
  const Slice sub = box2(2, 5, 0, 1);
  std::vector<std::byte> out(1000);
  EXPECT_THROW(a.extract(sub, out), ContractViolation);
}

TEST(LocalArray, ExtractBufferTooSmallThrows) {
  LocalArray a(box2(0, 3, 0, 3), sizeof(double));
  std::vector<std::byte> out(8);  // one element; sub needs four
  EXPECT_THROW(a.extract(box2(0, 1, 0, 1), out), ContractViolation);
}

TEST(LocalArray, TypedSpanView) {
  LocalArray a(box2(0, 1, 0, 1), sizeof(double));
  auto view = a.as_f64();
  ASSERT_EQ(view.size(), 4u);
  view[0] = 1.5;
  const std::array<Index, 2> p{0, 0};
  EXPECT_DOUBLE_EQ(a.get_f64(p), 1.5);
}

TEST(LocalArray, NonDoubleElementSize) {
  LocalArray a(box2(0, 3, 0, 0), 4);  // 4-byte elements
  EXPECT_EQ(a.byte_size(), 16u);
  EXPECT_THROW((void)a.as_f64(), ContractViolation);
}

TEST(LocalArray, MappedWithIrregularRanges) {
  // Mapped sections themselves can be index-list based (the paper's
  // sparse/unstructured support).
  const Slice mapped{{Range::of_indices({2, 3, 7, 8}),
                      Range::strided(0, 4, 2)}};
  LocalArray a(mapped, sizeof(double));
  EXPECT_EQ(a.element_count(), 4 * 3);
  fill_tagged(a);
  const Slice sub{{Range::of_indices({3, 7}), Range::single(2)}};
  std::vector<std::byte> buf(2 * sizeof(double));
  a.extract(sub, buf);
  std::vector<double> got(2);
  std::memcpy(got.data(), buf.data(), buf.size());
  const std::array<Index, 2> p0{3, 2};
  const std::array<Index, 2> p1{7, 2};
  EXPECT_DOUBLE_EQ(got[0], tag_of(p0));
  EXPECT_DOUBLE_EQ(got[1], tag_of(p1));
}

/// Property sweep: extract -> insert into a differently-mapped local is
/// value-preserving for random sub-slices.
class LocalArrayProperty : public ::testing::TestWithParam<int> {};

TEST_P(LocalArrayProperty, ExtractInsertAcrossMappings) {
  drms::support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761);
  for (int iter = 0; iter < 15; ++iter) {
    LocalArray src(box2(0, 11, 0, 11), sizeof(double));
    fill_tagged(src);
    // Destination mapped section: a shifted window that still covers the
    // chosen sub-slice.
    const Index r0 = rng.uniform_int(0, 4);
    const Index c0 = rng.uniform_int(0, 4);
    const Slice sub = box2(r0, r0 + rng.uniform_int(0, 5),
                           c0, c0 + rng.uniform_int(0, 5));
    LocalArray dst(box2(0, 11, 0, 11), sizeof(double));

    std::vector<std::byte> buf(static_cast<std::size_t>(
        sub.element_count() * static_cast<Index>(sizeof(double))));
    src.extract(sub, buf);
    dst.insert(sub, buf);
    sub.for_each_column_major([&](std::span<const Index> p) {
      EXPECT_DOUBLE_EQ(dst.get_f64(p), tag_of(p));
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalArrayProperty, ::testing::Range(1, 6));

/// One axis of a run-walker case, as global index values: the source's
/// mapped range, the sub-slice inside it, and the destination's mapped
/// range (which also covers the sub-slice).
struct AxisCase {
  std::vector<Index> src_mapped;
  std::vector<Index> sub;
  std::vector<Index> dst_mapped;
};

AxisCase random_axis(drms::support::Rng& rng) {
  AxisCase axis;
  // Source mapped values: contiguous, strided or an irregular list.
  const Index n = rng.uniform_int(1, 6);
  const Index lo = rng.uniform_int(-3, 3);
  const Index stride = rng.uniform_int(2, 3);
  const auto kind = rng.uniform_int(0, 2);
  for (Index i = 0, v = lo; i < n; ++i) {
    if (kind == 0) {
      v = lo + i;
    } else if (kind == 1) {
      v = lo + i * stride;
    } else {
      v += rng.uniform_int(1, 3);
    }
    axis.src_mapped.push_back(v);
  }
  // Sub-slice positions: the full axis, a window (as inside shadow
  // margins), a strided pick or an arbitrary subset.
  std::vector<Index> positions;
  switch (rng.uniform_int(0, 3)) {
    case 0:
      for (Index i = 0; i < n; ++i) positions.push_back(i);
      break;
    case 1: {
      const Index a = rng.uniform_int(0, n - 1);
      const Index b = rng.uniform_int(a, n - 1);
      for (Index i = a; i <= b; ++i) positions.push_back(i);
      break;
    }
    case 2: {
      const Index step = rng.uniform_int(2, 3);
      for (Index i = rng.uniform_int(0, n - 1); i < n; i += step) {
        positions.push_back(i);
      }
      break;
    }
    default:
      for (Index i = 0; i < n; ++i) {
        if (rng.uniform_int(0, 1) == 1) positions.push_back(i);
      }
      if (positions.empty()) positions.push_back(rng.uniform_int(0, n - 1));
      break;
  }
  for (const Index i : positions) {
    axis.sub.push_back(axis.src_mapped[static_cast<std::size_t>(i)]);
  }
  // Destination mapped values: exactly the sub-slice, the source's
  // mapped range, or that range with one more value at each end.
  switch (rng.uniform_int(0, 2)) {
    case 0:
      axis.dst_mapped = axis.sub;
      break;
    case 1:
      axis.dst_mapped = axis.src_mapped;
      break;
    default:
      axis.dst_mapped.push_back(axis.src_mapped.front() - 1);
      axis.dst_mapped.insert(axis.dst_mapped.end(), axis.src_mapped.begin(),
                             axis.src_mapped.end());
      axis.dst_mapped.push_back(axis.src_mapped.back() + 1);
      break;
  }
  return axis;
}

/// Seeded sweep of the run walker behind extract/insert/copy_from: ranks
/// 1-4, element sizes 1, 8 and 24, axes that span their mapped extent and
/// axes that do not, strided and index-list ranges anywhere. Both
/// directions are checked byte for byte against a per-element reference
/// built from offset_of, and the two-sided copy against extract + insert
/// between the two differently mapped sections.
class LocalArrayRunWalker : public ::testing::TestWithParam<int> {};

TEST_P(LocalArrayRunWalker, MatchesPerElementReference) {
  drms::support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9E37);
  constexpr std::array<std::size_t, 3> kElemSizes{1, 8, 24};
  constexpr std::byte kSentinel{0xA5};
  for (int iter = 0; iter < 100; ++iter) {
    const auto rank = rng.uniform_int(1, 4);
    const std::size_t elem =
        kElemSizes[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    std::vector<Range> src_ranges;
    std::vector<Range> sub_ranges;
    std::vector<Range> dst_ranges;
    for (Index k = 0; k < rank; ++k) {
      AxisCase axis = random_axis(rng);
      src_ranges.push_back(Range::of_indices(std::move(axis.src_mapped)));
      sub_ranges.push_back(Range::of_indices(std::move(axis.sub)));
      dst_ranges.push_back(Range::of_indices(std::move(axis.dst_mapped)));
    }
    const Slice sub(std::move(sub_ranges));
    LocalArray src(Slice(std::move(src_ranges)), elem);
    for (auto& b : src.bytes()) {
      b = static_cast<std::byte>(rng.uniform_int(0, 255));
    }

    std::vector<std::byte> expected;
    sub.for_each_column_major([&](std::span<const Index> p) {
      const auto element =
          std::as_const(src).bytes().subspan(*src.offset_of(p), elem);
      expected.insert(expected.end(), element.begin(), element.end());
    });
    std::vector<std::byte> stream(expected.size());
    src.extract(sub, stream);
    ASSERT_EQ(stream, expected)
        << sub.to_string() << " from " << src.mapped().to_string();

    LocalArray dst(Slice(std::move(dst_ranges)), elem);
    const auto fill = dst.bytes();
    std::fill(fill.begin(), fill.end(), kSentinel);
    dst.insert(sub, stream);
    std::vector<std::byte> want(dst.byte_size(), kSentinel);
    std::size_t cursor = 0;
    sub.for_each_column_major([&](std::span<const Index> p) {
      std::memcpy(want.data() + *dst.offset_of(p), stream.data() + cursor,
                  elem);
      cursor += elem;
    });
    const auto got = std::as_const(dst).bytes();
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << sub.to_string() << " into " << dst.mapped().to_string();

    LocalArray copied(dst.mapped(), elem);
    const auto unset = copied.bytes();
    std::fill(unset.begin(), unset.end(), kSentinel);
    MutationLog log;
    copied.attach_mutation_log(&log);
    copied.copy_from(src, sub);
    const auto direct = std::as_const(copied).bytes();
    ASSERT_TRUE(std::equal(direct.begin(), direct.end(), got.begin(),
                           got.end()))
        << sub.to_string() << " copied from " << src.mapped().to_string()
        << " into " << dst.mapped().to_string();
    ASSERT_EQ(log.slices.size(), 1u);
    EXPECT_EQ(log.slices[0], sub);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalArrayRunWalker, ::testing::Range(1, 9));

}  // namespace
