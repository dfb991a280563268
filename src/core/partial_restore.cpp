#include "core/partial_restore.hpp"

#include "support/error.hpp"

namespace drms::core {

namespace {

/// Position (0-based) of value `v` within box range `r`; throws when the
/// section leaves the box's index space.
Index position_in(const Range& r, Index v) {
  const auto pos = r.position_of(v);
  DRMS_EXPECTS_MSG(pos.has_value(),
                   "stream_runs: section leaves the enclosing box");
  return *pos;
}

}  // namespace

std::vector<StreamRun> stream_runs(const Slice& box, const Slice& section,
                                   std::size_t elem_size) {
  DRMS_EXPECTS_MSG(box.rank() == section.rank(),
                   "stream_runs: rank mismatch");
  std::vector<StreamRun> runs;
  if (section.empty()) {
    return runs;
  }
  const int d = box.rank();

  // Column-major strides of the box, in elements (axis 0 fastest).
  std::vector<Index> stride(static_cast<std::size_t>(d), 1);
  for (int k = 1; k < d; ++k) {
    stride[static_cast<std::size_t>(k)] =
        stride[static_cast<std::size_t>(k - 1)] *
        box.range(k - 1).size();
  }

  // Maximal prefix of axes the section covers fully: those axes vary
  // freely inside one run. The first partial axis (the "run axis") must
  // be position-contiguous within the box so the run stays one
  // consecutive span of the stream; every axis past it contributes one
  // fixed coordinate per run.
  int run_axis = 0;
  while (run_axis < d && section.range(run_axis) == box.range(run_axis)) {
    ++run_axis;
  }
  Index run_elems = 0;
  Index run_lo_pos = 0;
  if (run_axis < d) {
    const Range& br = box.range(run_axis);
    const Range& sr = section.range(run_axis);
    run_lo_pos = position_in(br, sr.first());
    const Index run_hi_pos = position_in(br, sr.last());
    DRMS_EXPECTS_MSG(run_hi_pos - run_lo_pos + 1 == sr.size(),
                     "stream_runs: section range not position-contiguous "
                     "in the box");
    run_elems = stride[static_cast<std::size_t>(run_axis)] * sr.size();
  } else {
    // The section IS the box: one run over everything.
    run_elems = stride[static_cast<std::size_t>(d - 1)] *
                box.range(d - 1).size();
  }

  // Odometer over the outer axes' section ranges (column-major order so
  // the runs come out sorted by stream offset).
  std::vector<Index> outer_pos;  // current position per outer axis
  for (int k = run_axis + 1; k < d; ++k) {
    outer_pos.push_back(0);
  }
  const std::uint64_t run_bytes =
      static_cast<std::uint64_t>(run_elems) * elem_size;
  while (true) {
    StreamRun run;
    Index elem_offset = run_axis < d
                            ? run_lo_pos *
                                  stride[static_cast<std::size_t>(run_axis)]
                            : 0;
    std::vector<Range> ranges;
    ranges.reserve(static_cast<std::size_t>(d));
    for (int k = 0; k < run_axis; ++k) {
      ranges.push_back(box.range(k));
    }
    if (run_axis < d) {
      ranges.push_back(section.range(run_axis));
    }
    for (int k = run_axis + 1; k < d; ++k) {
      const Index v = section.range(k).at(
          outer_pos[static_cast<std::size_t>(k - run_axis - 1)]);
      ranges.push_back(Range::single(v));
      elem_offset +=
          position_in(box.range(k), v) * stride[static_cast<std::size_t>(k)];
    }
    run.slice = Slice(std::move(ranges));
    run.byte_offset = static_cast<std::uint64_t>(elem_offset) * elem_size;
    run.bytes = run_bytes;
    runs.push_back(std::move(run));

    // Advance the odometer (axis closest to the run axis fastest).
    int k = 0;
    const int outer = run_axis < d ? d - run_axis - 1 : 0;
    while (k < outer) {
      Index& p = outer_pos[static_cast<std::size_t>(k)];
      if (++p < section.range(run_axis + 1 + k).size()) {
        break;
      }
      p = 0;
      ++k;
    }
    if (k == outer) {
      break;
    }
  }
  return runs;
}

void RetainedJobState::drop_slot(int slot) {
  for (RetainedArray& a : arrays) {
    if (slot >= 0 && slot < static_cast<int>(a.retained.size())) {
      a.retained[static_cast<std::size_t>(slot)] = LocalArray{};
    }
  }
}

const RetainedArray* RetainedJobState::find(const std::string& name) const {
  for (const RetainedArray& a : arrays) {
    if (a.name == name) {
      return &a;
    }
  }
  return nullptr;
}

}  // namespace drms::core
