// Section exchange — the communication core of the DRMS array assignment
// operation (§3.1): move element data from per-task SOURCE assigned
// sections into per-task DESTINATION mapped sections, updating every
// overlapping copy consistently. Used by data redistribution, by the
// canonical-distribution step of parallel streaming, and by
// inter-distribution array assignment.
//
// COLLECTIVE: every task of the group must call with identical
// `src_assigned` and `dst_mapped` vectors (they are global metadata);
// `my_src`/`my_dst` are the calling task's local sections (null when the
// task holds no source/destination data; they may be the same array).
//
// Pieces for other tasks travel through the mailboxes as stream-ordered
// bytes. The task's own piece, my_assigned ∩ my_mapped, is copied from
// `my_src` straight into `my_dst` (LocalArray::copy_from) and marks the
// destination's dirty log as an insert would.
#pragma once

#include <vector>

#include "core/local_array.hpp"
#include "core/slice.hpp"
#include "obs/recorder.hpp"
#include "rt/task_context.hpp"

namespace drms::core {

/// `recorder`, when non-null, gets one "exchange"/"sections" span per
/// call (attrs: bytes sent/received) plus byte counters, which count the
/// task's own piece as sent and received.
void exchange_sections(rt::TaskContext& ctx,
                       const std::vector<Slice>& src_assigned,
                       const LocalArray* my_src,
                       const std::vector<Slice>& dst_mapped,
                       LocalArray* my_dst, std::size_t elem_size,
                       obs::Recorder* recorder = nullptr);

}  // namespace drms::core
