#include "core/local_array.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "support/error.hpp"

namespace drms::core {

LocalArray::LocalArray(Slice mapped, std::size_t elem_size,
                       support::PageBuffer::Init init)
    : mapped_(std::move(mapped)), elem_size_(elem_size) {
  DRMS_EXPECTS(elem_size_ > 0);
  DRMS_EXPECTS(mapped_.rank() >= 1);
  const int d = mapped_.rank();
  stride_.resize(static_cast<std::size_t>(d));
  Index stride = 1;
  for (int k = 0; k < d; ++k) {
    stride_[static_cast<std::size_t>(k)] = stride;
    stride *= mapped_.range(k).size();
  }
  data_ = support::PageBuffer(
      static_cast<std::size_t>(stride * static_cast<Index>(elem_size_)),
      init);
}

std::optional<std::uint64_t> LocalArray::offset_of(
    std::span<const Index> point) const {
  if (mapped_.rank() == 0 ||
      static_cast<int>(point.size()) != mapped_.rank()) {
    return std::nullopt;
  }
  Index off = 0;
  for (int k = 0; k < mapped_.rank(); ++k) {
    const auto pos = mapped_.range(k).position_of(point[
        static_cast<std::size_t>(k)]);
    if (!pos.has_value()) {
      return std::nullopt;
    }
    off += *pos * stride_[static_cast<std::size_t>(k)];
  }
  return static_cast<std::uint64_t>(off) * elem_size_;
}

std::vector<std::vector<std::size_t>> LocalArray::axis_offsets(
    const Slice& s) const {
  DRMS_EXPECTS_MSG(s.rank() == mapped_.rank(),
                   "sub-slice rank must match the mapped section");
  const auto d = static_cast<std::size_t>(s.rank());
  std::vector<std::vector<std::size_t>> offsets(d);
  for (std::size_t k = 0; k < d; ++k) {
    const Range& sub = s.range(static_cast<int>(k));
    const Range& map = mapped_.range(static_cast<int>(k));
    const auto step = static_cast<std::size_t>(stride_[k]) * elem_size_;
    auto& table = offsets[k];
    table.reserve(static_cast<std::size_t>(sub.size()));
    for (Index i = 0; i < sub.size(); ++i) {
      const auto pos = map.position_of(sub.at(i));
      DRMS_EXPECTS_MSG(pos.has_value(),
                       "sub-slice not covered by the mapped section");
      table.push_back(static_cast<std::size_t>(*pos) * step);
    }
  }
  return offsets;
}

namespace {

/// One side of a run walk: LocalArray::axis_offsets of the walked slice.
using AxisOffsets = std::vector<std::vector<std::size_t>>;

/// True when each offset is exactly `step` bytes past the previous one.
bool advances_by(const std::vector<std::size_t>& offsets, std::size_t step) {
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] != offsets[i - 1] + step) {
      return false;
    }
  }
  return true;
}

/// Walks one sub-slice in stream order over K local arrays at once (the
/// sides, each given by its axis offsets of the slice): calls
/// copy(at, bytes) for each run that is contiguous on every side, where
/// at[j] is the run's byte offset in side j.
template <std::size_t K, typename Copy>
void for_each_run(const std::array<AxisOffsets, K>& sides,
                  std::size_t elem_size, Copy&& copy) {
  const std::size_t d = sides[0].size();
  // Fold leading axes into one run: axis k joins while, on every side,
  // each of its values starts exactly one run past the previous one. The
  // run so far is one step of axis k only when every axis before it spans
  // its full mapped extent, so the test also stops the fold after the
  // first partial axis (an axis with a single value still joins).
  std::size_t run = elem_size;
  std::array<std::size_t, K> base{};
  std::size_t merged = 0;
  const auto folds = [&] {
    return std::all_of(sides.begin(), sides.end(), [&](const AxisOffsets& a) {
      return advances_by(a[merged], run);
    });
  };
  while (merged < d && folds()) {
    for (std::size_t j = 0; j < K; ++j) {
      base[j] += sides[j][merged].front();
    }
    run *= sides[0][merged].size();
    ++merged;
  }
  if (merged == d) {
    copy(base, run);
    return;
  }
  // One run per value of the first unmerged axis (a tight loop), with an
  // odometer over the axes above it.
  const std::size_t inner = sides[0][merged].size();
  std::array<const std::size_t*, K> inner_offsets{};
  for (std::size_t j = 0; j < K; ++j) {
    inner_offsets[j] = sides[j][merged].data();
  }
  std::vector<std::size_t> pos(d, 0);
  for (;;) {
    std::array<std::size_t, K> start = base;
    for (std::size_t k = merged + 1; k < d; ++k) {
      for (std::size_t j = 0; j < K; ++j) {
        start[j] += sides[j][k][pos[k]];
      }
    }
    for (std::size_t i = 0; i < inner; ++i) {
      std::array<std::size_t, K> at = start;
      for (std::size_t j = 0; j < K; ++j) {
        at[j] += inner_offsets[j][i];
      }
      copy(at, run);
    }
    std::size_t axis = merged + 1;
    while (axis < d && ++pos[axis] == sides[0][axis].size()) {
      pos[axis] = 0;
      ++axis;
    }
    if (axis == d) {
      return;
    }
  }
}

}  // namespace

void LocalArray::extract(const Slice& s, std::span<std::byte> out) const {
  if (s.empty()) {
    return;
  }
  const std::uint64_t needed =
      static_cast<std::uint64_t>(s.element_count()) * elem_size_;
  DRMS_EXPECTS_MSG(out.size() >= needed, "extract output buffer too small");
  std::size_t cursor = 0;
  for_each_run(std::array{axis_offsets(s)}, elem_size_,
               [&](const std::array<std::size_t, 1>& at, std::size_t n) {
                 std::memcpy(out.data() + cursor, data_.data() + at[0], n);
                 cursor += n;
               });
  DRMS_ENSURES(cursor == needed);
}

void LocalArray::insert(const Slice& s, std::span<const std::byte> in) {
  if (s.empty()) {
    return;
  }
  if (log_ != nullptr) {
    log_->mark(s);
  }
  const std::uint64_t needed =
      static_cast<std::uint64_t>(s.element_count()) * elem_size_;
  DRMS_EXPECTS_MSG(in.size() >= needed, "insert input buffer too small");
  std::size_t cursor = 0;
  for_each_run(std::array{axis_offsets(s)}, elem_size_,
               [&](const std::array<std::size_t, 1>& at, std::size_t n) {
                 std::memcpy(data_.data() + at[0], in.data() + cursor, n);
                 cursor += n;
               });
  DRMS_ENSURES(cursor == needed);
}

void LocalArray::copy_from(const LocalArray& src, const Slice& s) {
  if (s.empty()) {
    return;
  }
  DRMS_EXPECTS_MSG(src.elem_size_ == elem_size_,
                   "copy between arrays of different element sizes");
  if (log_ != nullptr) {
    log_->mark(s);
  }
  std::array<AxisOffsets, 2> sides{src.axis_offsets(s), axis_offsets(s)};
  if (&src == this) {
    return;  // every element lands where it is
  }
  std::uint64_t copied = 0;
  for_each_run(sides, elem_size_,
               [&](const std::array<std::size_t, 2>& at, std::size_t n) {
                 std::memcpy(data_.data() + at[1], src.data_.data() + at[0],
                             n);
                 copied += n;
               });
  DRMS_ENSURES(copied ==
               static_cast<std::uint64_t>(s.element_count()) * elem_size_);
}

double LocalArray::get_f64(std::span<const Index> point) const {
  DRMS_EXPECTS(elem_size_ == sizeof(double));
  const auto off = offset_of(point);
  DRMS_EXPECTS_MSG(off.has_value(), "point not in the mapped section");
  double v = 0;
  std::memcpy(&v, data_.data() + *off, sizeof v);
  return v;
}

void LocalArray::set_f64(std::span<const Index> point, double value) {
  DRMS_EXPECTS(elem_size_ == sizeof(double));
  const auto off = offset_of(point);
  DRMS_EXPECTS_MSG(off.has_value(), "point not in the mapped section");
  if (log_ != nullptr && !log_->all) {
    std::vector<Range> point_ranges;
    point_ranges.reserve(point.size());
    for (const Index v : point) {
      point_ranges.push_back(Range::single(v));
    }
    log_->mark(Slice(std::move(point_ranges)));
  }
  std::memcpy(data_.data() + *off, &value, sizeof value);
}

std::span<double> LocalArray::as_f64() {
  DRMS_EXPECTS(elem_size_ == sizeof(double));
  if (log_ != nullptr) {
    log_->mark_all();
  }
  return {reinterpret_cast<double*>(data_.data()),
          data_.size() / sizeof(double)};
}

std::span<const double> LocalArray::as_f64() const {
  DRMS_EXPECTS(elem_size_ == sizeof(double));
  return {reinterpret_cast<const double*>(data_.data()),
          data_.size() / sizeof(double)};
}

}  // namespace drms::core
