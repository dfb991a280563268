// The two-phase commit protocol of DESIGN.md §4c, implemented once for
// both checkpoint engines.
//
// A checkpoint under a prefix becomes visible only when its commit
// manifest lands as the LAST write. The session sequences an engine's
// storage mutations around that rule:
//
//   decommit  task 0 removes the prefix's old manifest before any file
//             under the prefix is touched
//   data      the engine's own writes, each wrapped in retry_io with the
//             session's retry_policy()
//   publish   the meta record, then the manifest
//
// The engines decide only which files they write and what their manifest
// lists. Every storage call runs in place on the calling task, so the
// program order of those calls is the order they reach the volume.
#pragma once

#include <string>

#include "core/checkpoint_format.hpp"
#include "obs/recorder.hpp"
#include "rt/task_context.hpp"
#include "sim/cost_model.hpp"
#include "store/storage_backend.hpp"
#include "support/retry.hpp"

namespace drms::core {

class CommitSession {
 public:
  /// `category` names the owning engine's span family ("ckpt", "spmd").
  /// A non-null `recorder` receives the decommit/meta/commit spans and
  /// retry counters.
  CommitSession(store::StorageBackend& storage, sim::LoadContext load,
                obs::Recorder* recorder, const char* category)
      : storage_(storage),
        load_(load),
        recorder_(recorder),
        category_(category) {}

  /// Policy for one labelled storage operation: the recorder observes the
  /// retries under `what`.
  [[nodiscard]] support::RetryPolicy retry_policy(const char* what) const;

  /// Task 0, before the first write under `prefix`: remove its commit
  /// manifest. Once any file under the prefix is touched, the previous
  /// state there must not look committed.
  void decommit(rt::TaskContext& ctx, const std::string& prefix);

  /// COLLECTIVE, once every data file is durable: publish the state.
  /// `manifest` lists the data files; the meta record's entry (size and
  /// CRC) goes first and the meta's base prefix is mirrored. Task 0
  /// writes `meta` to `meta_file`, then the manifest LAST. Returns the
  /// modeled publication cost (not charged: meta writes were never part
  /// of the paper's phase times, and it draws no jitter), identical on
  /// every task.
  [[nodiscard]] double publish(rt::TaskContext& ctx, const std::string& prefix,
                               const std::string& meta_file,
                               const CheckpointMeta& meta,
                               CommitManifest manifest);

 private:
  store::StorageBackend& storage_;
  sim::LoadContext load_;
  obs::Recorder* recorder_;
  const char* category_;
};

}  // namespace drms::core
