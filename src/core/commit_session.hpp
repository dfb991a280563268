// The two-phase commit protocol of DESIGN.md §4c, implemented once for
// both checkpoint engines.
//
// A checkpoint under a prefix becomes visible only when its commit
// manifest lands as the LAST write. The session sequences an engine's
// storage mutations around that rule:
//
//   decommit  task 0 removes the prefix's old manifest, and waits for the
//             removal, before any file under the prefix is touched
//   data      the engine's own writes, through submit()
//   publish   the meta record, a completion barrier over every queued
//             write, then the manifest
//
// The engines decide only which files they write and what their manifest
// lists. Without an attached checkpoint-service session every submission
// runs inline; with one (attach()), submissions become queued items of
// the job and barrier() is the job's completion barrier.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/checkpoint_format.hpp"
#include "obs/recorder.hpp"
#include "rt/task_context.hpp"
#include "sim/cost_model.hpp"
#include "store/storage_backend.hpp"
#include "support/retry.hpp"
#include "svc/io_scheduler.hpp"

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

  /// Route submissions through `scheduler` under `job`. Both pointers are
  /// borrowed and must outlive the session's use; nullptrs detach (the
  /// default, fully synchronous path).
  void attach(svc::IoScheduler* scheduler, const svc::JobToken* job) {
    io_ = scheduler;
    io_job_ = job;
  }

  /// Policy for one labelled storage operation: the recorder observes the
  /// retries, and an attached job's id seeds deterministic backoff jitter
  /// so contending jobs desynchronize (see support::retry_backoff).
  [[nodiscard]] support::RetryPolicy retry_policy(const char* what) const;

  /// Run `fn` (which carries its own retry_io wrapping) — synchronously
  /// without a session, else as a queued FOREGROUND item sharded by
  /// `file`. Async errors surface at the next barrier().
  void submit(const std::string& file, std::uint64_t bytes,
              std::function<void()> fn);

  /// Run `fn`, a read of `bytes` from `file`, and wait for it — as a
  /// RESTORE-class item when a session is attached. Errors propagate.
  void read(const std::string& file, std::uint64_t bytes,
            std::function<void()> fn);

  /// Completion barrier over the job (no-op without a session); rethrows
  /// the first queued error.
  void barrier();

  /// Drains the job when its scope exits, on the normal path and on
  /// exception unwinding alike, so no queued item outlives the locals it
  /// references. Drain errors are dropped; the original exception
  /// propagates.
  class DrainGuard {
   public:
    explicit DrainGuard(CommitSession& session) : session_(session) {}
    DrainGuard(const DrainGuard&) = delete;
    DrainGuard& operator=(const DrainGuard&) = delete;
    ~DrainGuard() {
      try {
        session_.barrier();
      } catch (...) {  // NOLINT(bugprone-empty-catch)
      }
    }

   private:
    CommitSession& session_;
  };

  /// Task 0, before the first write under `prefix`: remove its commit
  /// manifest and wait until the removal completed. Once any file under
  /// the prefix is touched, the previous state there must not look
  /// committed.
  void decommit(rt::TaskContext& ctx, const std::string& prefix);

  /// COLLECTIVE, once every data file is durable: publish the state.
  /// `manifest` lists the data files; the meta record's entry (size and
  /// CRC) goes first and the meta's base prefix is mirrored. Task 0
  /// writes `meta` to `meta_file`, waits for every queued write, then
  /// writes the manifest LAST. Returns the modeled publication cost (not
  /// charged: meta writes were never part of the paper's phase times, and
  /// it draws no jitter), identical on every task.
  [[nodiscard]] double publish(rt::TaskContext& ctx, const std::string& prefix,
                               const std::string& meta_file,
                               const CheckpointMeta& meta,
                               CommitManifest manifest);

 private:
  [[nodiscard]] bool active() const {
    return io_ != nullptr && io_job_ != nullptr && io_job_->valid();
  }

  store::StorageBackend& storage_;
  sim::LoadContext load_;
  obs::Recorder* recorder_;
  const char* category_;
  svc::IoScheduler* io_ = nullptr;
  const svc::JobToken* io_job_ = nullptr;
};

}  // namespace drms::core
