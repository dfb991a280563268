// Localized recovery (partial restore) — the paper's task-count-
// independent checkpoints taken to their payoff: when a failure removes
// only some of a job's tasks, the replacement tasks read ONLY the lost
// sections from the newest committed generation while the survivors keep
// the array contents they already hold in memory and merely redistribute
// them in place. Restart cost then scales with the FAILED fraction of the
// job, not its size.
//
// Mechanics in this simulated runtime: tasks are threads and a failed
// launch unwinds the whole group, so "survivors keep their arrays" is
// modeled by a RetainedJobState snapshot the supervisor owns across the
// reconfigure boundary. Each task captures its own assigned sections at
// every successful DRMS checkpoint (between barriers, so the copy is
// bit-identical to what landed on the volume); on a partial restart the
// surviving slots' retained sections are scattered into the new
// distribution through exchange_sections while the lost slots' sections
// stream in from storage via per-section reads. The checkpoint file IS
// the column-major element stream of the global box, so any
// stream-contiguous run of a lost section can be read at a computed byte
// offset with the existing streamer — no new on-volume format.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dist_array.hpp"
#include "core/local_array.hpp"
#include "core/slice.hpp"

namespace drms::core {

/// One stream-contiguous run of a section within an enclosing box: the
/// run's elements occupy the consecutive byte range
/// [byte_offset, byte_offset + bytes) of the box's column-major element
/// stream (i.e. of the checkpoint array file).
struct StreamRun {
  Slice slice;
  std::uint64_t byte_offset = 0;
  std::uint64_t bytes = 0;
};

/// Decompose `section` into maximal stream-contiguous runs of `box`'s
/// column-major element stream. The classic case — a block distribution
/// splitting only the outermost axis — yields exactly one run; splitting
/// inner axes yields one run per outer-coordinate combination. Requires
/// `box` to cover `section` with matching rank, every range contiguous in
/// position (regular sections; throws ContractViolation otherwise).
[[nodiscard]] std::vector<StreamRun> stream_runs(const Slice& box,
                                                 const Slice& section,
                                                 std::size_t elem_size);

/// Snapshot of one array at the moment a checkpoint generation committed:
/// the per-slot assigned sections of the distribution that wrote it, plus
/// each slot's section contents (bit-identical to the generation's data
/// by construction — captured between the same barriers).
struct RetainedArray {
  std::string name;
  /// Assigned section of every slot — retained even for slots whose data was
  /// dropped (the old distribution is metadata the job keeps, exactly as
  /// a full restart keeps the checkpoint meta).
  std::vector<Slice> assigned;
  /// Slot-indexed copies of the assigned sections' bytes, in column-major
  /// stream order. A cleared (rank-0/empty) entry means the slot's memory
  /// is gone (its node died) and the data must come from storage.
  std::vector<LocalArray> retained;
};

/// Job-wide retained state, owned by the recovery supervisor and written
/// by the checkpoint path (DrmsContext::do_checkpoint) under the SPMD
/// discipline: rank 0 resizes between barriers, then each task fills its
/// own slot. `valid` flips true only once a generation fully committed.
struct RetainedJobState {
  bool valid = false;
  /// Generation prefix the snapshot mirrors.
  std::string prefix;
  std::int64_t sop = 0;
  /// Task count of the capturing group (slot space of the vectors).
  int t1 = 0;
  std::vector<RetainedArray> arrays;

  void invalidate() {
    valid = false;
    prefix.clear();
    sop = 0;
    t1 = 0;
    arrays.clear();
  }
  /// Drop one slot's retained DATA (its node is gone) while keeping the
  /// assigned-section metadata. No-op for out-of-range slots.
  void drop_slot(int slot);
  [[nodiscard]] const RetainedArray* find(const std::string& name) const;
};

/// Per-restart plan handed to the restore path through DrmsEnv::partial.
/// Present (non-null) only when the supervisor decided on a partial-scope
/// restart: the retained snapshot matches the chosen generation and at
/// least one capturing slot survived.
struct PartialRestorePlan {
  const RetainedJobState* retained = nullptr;
  /// slot_lost[s] != 0: slot s of the capturing group lost its memory and
  /// its assigned sections must be read from the generation on storage.
  std::vector<char> slot_lost;

  [[nodiscard]] int lost_count() const {
    int n = 0;
    for (const char c : slot_lost) {
      n += c != 0 ? 1 : 0;
    }
    return n;
  }
};

}  // namespace drms::core
