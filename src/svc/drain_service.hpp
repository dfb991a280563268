// Event-queue drain: submits a TieredBackend's dirty-file work list to an
// IoScheduler as DRAIN-class items (one item per file, sharded by file
// name). Unlike the synchronous TieredBackend::drain() sweep, a queued
// drain yields between files: a restore submitted while the backlog
// flushes preempts at every file boundary, and a RestoreGuard parks the
// remaining backlog entirely until recovery finishes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "store/redundant_backend.hpp"
#include "store/tiered_backend.hpp"
#include "svc/io_scheduler.hpp"

namespace drms::svc {

/// Aggregate outcome of one submitted redundancy-encode pass.
struct EncodeReport {
  int files_encoded = 0;
  std::uint64_t bytes_encoded = 0;
  /// Modeled background memory-write time of the fragment copies (never
  /// charged to the application's clock, like drain time).
  double simulated_seconds = 0.0;
};

/// Handle for one submitted background pass (submit_drain,
/// submit_encode). wait() blocks until every queued file finished and
/// returns the aggregate report.
template <class Report>
class BackgroundTicket {
 public:
  BackgroundTicket() = default;
  [[nodiscard]] Report wait() const {
    for (const Completion& completion : completions_) {
      completion.wait();
    }
    if (state_ == nullptr) {
      return {};
    }
    const std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->report;
  }
  /// Files queued by this pass (0 = nothing was pending).
  [[nodiscard]] std::size_t files_submitted() const {
    return completions_.size();
  }

 private:
  friend struct BackgroundPass;  // the submit loop (drain_service.cpp)
  struct State {
    std::mutex mutex;
    Report report;
  };
  std::shared_ptr<State> state_;
  std::vector<Completion> completions_;
};

/// Same report shape as the synchronous TieredBackend::drain().
using DrainTicket = BackgroundTicket<store::TieredBackend::DrainReport>;
using EncodeTicket = BackgroundTicket<EncodeReport>;

/// Snapshot the backend's dirty work list and queue one DRAIN-class item
/// per file under `job`. Returns immediately; the copies run on the
/// scheduler's shard workers. Items race benignly with writers, GC and
/// other drains — a file cleaned in the meantime drops out of the report.
DrainTicket submit_drain(IoScheduler& scheduler, const JobToken& job,
                         store::TieredBackend& backend,
                         const sim::LoadContext& load = {});

/// Snapshot the fast tier's staged-but-unencoded work list and queue one
/// DRAIN-class item per file (fragment encoding is background protection
/// traffic: it yields to the supervisor's RESTORE-class verify, and a
/// RestoreGuard parks it with the drains). Items race benignly with
/// writers and GC — a file encoded, re-created, or removed in the
/// meantime drops out of the report.
EncodeTicket submit_encode(IoScheduler& scheduler, const JobToken& job,
                           store::RedundantBackend& backend,
                           const sim::LoadContext& load = {});

}  // namespace drms::svc
