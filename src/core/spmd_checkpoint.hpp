// Conventional (non-reconfigurable) SPMD checkpointing — the baseline the
// paper compares against (§5). Every task dumps its entire data segment
// to a private file: replicated variables, the REAL bytes of its local
// array sections (shadow regions included), and padding for private and
// system storage up to the compile-time static segment size. Restart
// requires exactly the same number of tasks.
#pragma once

#include <span>
#include <string>

#include "core/checkpoint_format.hpp"
#include "core/commit_session.hpp"
#include "core/dist_array.hpp"
#include "core/drms_checkpoint.hpp"  // CheckpointTiming / RestartTiming
#include "core/replicated_store.hpp"
#include "core/spmd_restore_cursor.hpp"
#include "rt/task_context.hpp"
#include "sim/cost_model.hpp"

namespace drms::core {

class SpmdCheckpoint {
 public:
  /// A non-null `recorder` receives per-phase trace spans and retry
  /// counters; recording never charges simulated time.
  SpmdCheckpoint(store::StorageBackend& storage, sim::LoadContext load,
                 bool jitter = false, obs::Recorder* recorder = nullptr);

  /// COLLECTIVE: every task writes its own segment file; all synchronize
  /// at the end (the paper's blocking-checkpoint semantics).
  CheckpointTiming write(rt::TaskContext& ctx, const std::string& prefix,
                         const std::string& app_name, std::int64_t sop,
                         const ReplicatedStore& store,
                         std::span<DistArray* const> arrays,
                         const AppSegmentModel& segment_model);

  /// COLLECTIVE: full restore. The arrays must already carry the SAME
  /// distribution used when the checkpoint was taken (re-created by the
  /// restarted program), and ctx.size() must equal the checkpoint task
  /// count — reconfigured restart is impossible by construction, and a
  /// mismatch throws support::Error.
  CheckpointMeta restore(rt::TaskContext& ctx, const std::string& prefix,
                         ReplicatedStore& store,
                         std::span<DistArray* const> arrays,
                         const AppSegmentModel& segment_model,
                         RestartTiming& timing);

  /// COLLECTIVE: phase 1 of a two-phase restore — read and validate this
  /// task's segment file, restore the replicated store, and return a
  /// cursor positioned at the array records (for restore_array_from once
  /// the arrays have been re-distributed).
  CheckpointMeta restore_begin(rt::TaskContext& ctx,
                               const std::string& prefix,
                               ReplicatedStore& store,
                               const AppSegmentModel& segment_model,
                               RestartTiming& timing,
                               SpmdRestoreCursor& cursor);

  /// Phase 2: load the next array record from the cursor into this task's
  /// local section. Records must be consumed in checkpoint order.
  void restore_array_from(SpmdRestoreCursor& cursor, DistArray& array,
                          int rank) const;

 private:
  store::StorageBackend& storage_;
  sim::LoadContext load_;
  bool jitter_;
  obs::Recorder* recorder_;
  CommitSession session_;
};

}  // namespace drms::core
