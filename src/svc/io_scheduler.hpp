// Multi-tenant checkpoint service core (drms::svc).
//
// An IoScheduler turns the storage layer's synchronous per-backend drain
// into an async event-queue model (the DAOS event-queue / per-target
// servicing lineage): callers register as JOBS, submit I/O work items
// tagged with a PRIORITY CLASS and a SHARD KEY, and continue while
// per-shard server queues execute the items on worker threads.
//
// The service carries background work and the recovery supervisor's
// deep verify, nothing on a checkpoint's or a restore's data path: both
// engines make their writes and reads on the application's own tasks
// (the paper's checkpoint is blocking). The design commitments:
//
//   * Priority classes. RESTORE (the supervisor's deep verify of the
//     generation it will restart from) beats FOREGROUND beats DRAIN
//     (background fast->slow tier drains and redundancy encodes). Queued
//     drain items never delay a queued restore: each shard dequeues the
//     most urgent class first, and a RestoreGuard can defer the whole
//     drain class while a recovery is in flight.
//
//   * Per-job tokens. register_job() returns a JobToken; barrier(job)
//     waits for every item the job submitted so far and rethrows the
//     job's first error, so async errors surface like synchronous ones.
//
//   * Sharded server queues. Work lands on FNV-1a(shard_key) %
//     shard_count queues (svc::shard_of) with independent locks and
//     workers, so independent jobs (distinct file names) do not
//     serialize on one volume lock. Every item runs on its shard's
//     worker, never on the submitting thread.
//
// Deterministic service model: alongside real execution, every shard
// keeps the virtual clocks of svc::ShardClock (queue_model.hpp), the
// same discipline the fleet simulator runs. submit() stamps an item's
// arrival with the shard's latest completion; dequeue prices it at its
// modeled service seconds. Queue-wait (virtual start minus arrival) and
// makespan (latest completion over all shards) are therefore exact
// queueing-model quantities — reproducible across runs and machines —
// which is what the contention bench gates on. Wall-clock execution
// remains genuinely concurrent.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/recorder.hpp"

namespace drms::svc {

/// Urgency of one work item; lower enumerator = dequeued first.
enum class Priority : int {
  kRestore = 0,  ///< the recovery supervisor's deep verify
  /// No library traffic: bench_contention's synthetic tenants and the
  /// fleet simulator's modeled checkpoint writes (QueueModel).
  kForeground = 1,
  kDrain = 2,  ///< background tier drains and redundancy encodes
};
inline constexpr int kPriorityClasses = 3;
[[nodiscard]] const char* to_string(Priority p) noexcept;

/// Aggregated per-priority-class service statistics.
struct ClassStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // fn threw; counted within completed
  std::uint64_t bytes = 0;
  /// Virtual queue-wait (seconds, deterministic; see header comment).
  double total_wait_seconds = 0.0;
  double max_wait_seconds = 0.0;
};

class IoScheduler;
/// Shared per-job bookkeeping (defined in io_scheduler.cpp).
struct JobState;

/// One job's registration: the handle its items are submitted and its
/// barrier() waits under. Move-only RAII: destruction deregisters (after
/// waiting for the job's in-flight items).
class JobToken {
 public:
  JobToken() = default;
  JobToken(JobToken&& other) noexcept { *this = std::move(other); }
  JobToken& operator=(JobToken&& other) noexcept;
  JobToken(const JobToken&) = delete;
  JobToken& operator=(const JobToken&) = delete;
  ~JobToken();

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  /// Release the registration early (idempotent; waits for in-flight
  /// items like the destructor).
  void release();

 private:
  friend class IoScheduler;
  JobToken(IoScheduler* scheduler, std::shared_ptr<JobState> state)
      : scheduler_(scheduler), state_(std::move(state)) {}
  IoScheduler* scheduler_ = nullptr;
  std::shared_ptr<JobState> state_;
};

/// Ticket for one submitted item. wait() blocks until the item executed
/// and rethrows the exception it raised, if any. Default-constructed
/// tickets are already complete.
class Completion {
 public:
  Completion() = default;
  /// Block until done; rethrows the item's exception.
  void wait() const;

 private:
  friend class IoScheduler;
  struct State;
  std::shared_ptr<State> state_;
};

class IoScheduler {
 public:
  struct Options {
    /// Independent server queues (>= 1). One worker thread per shard.
    int shard_count = 1;
    /// Record every item's virtual wait for percentile reporting.
    bool keep_wait_samples = false;
    /// Optional metrics sink: svc.submit.<class> / svc.complete.<class> /
    /// svc.fail.<class> counters, svc.wait.<class> latency histograms
    /// and svc.queue_depth.peak gauge.
    obs::Recorder* recorder = nullptr;
  };

  IoScheduler();  // default Options
  explicit IoScheduler(Options options);
  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;
  /// Runs every pending item to completion, then joins the workers.
  ~IoScheduler();

  // ---- tenancy --------------------------------------------------------------
  /// Register a job; `name` labels it.
  [[nodiscard]] JobToken register_job(std::string name);

  // ---- submission -----------------------------------------------------------
  /// Queue one work item. `bytes` and `sim_seconds` describe the item for
  /// QoS accounting and the virtual service clock (both may be 0); `fn`
  /// performs the real storage operation on a worker thread.
  Completion submit(const JobToken& job, Priority priority,
                    std::string_view shard_key, std::uint64_t bytes,
                    double sim_seconds, std::function<void()> fn);

  /// Per-job completion barrier: returns once every item the job
  /// submitted so far has executed. Rethrows the job's FIRST stored
  /// exception (then clears it) so async errors surface like synchronous
  /// ones.
  void barrier(const JobToken& job);
  /// Barrier over all jobs (does not rethrow job errors).
  void wait_idle();

  // ---- flow control ---------------------------------------------------------
  /// Gate dequeueing off: submit builds a backlog until resume()
  /// (deterministic tests and bench phases).
  void pause();
  void resume();

  /// While alive, shard workers do not dequeue DRAIN-class items — the
  /// recovery supervisor holds one across verify/restore so background
  /// drains cannot contend with bringing a job back up. Nestable.
  class RestoreGuard {
   public:
    RestoreGuard() = default;
    RestoreGuard(RestoreGuard&& other) noexcept { *this = std::move(other); }
    RestoreGuard& operator=(RestoreGuard&& other) noexcept;
    RestoreGuard(const RestoreGuard&) = delete;
    RestoreGuard& operator=(const RestoreGuard&) = delete;
    ~RestoreGuard() { release(); }
    void release();
    [[nodiscard]] bool held() const noexcept { return scheduler_ != nullptr; }

   private:
    friend class IoScheduler;
    explicit RestoreGuard(IoScheduler* s) : scheduler_(s) {}
    IoScheduler* scheduler_ = nullptr;
  };
  [[nodiscard]] RestoreGuard preempt_drains();

  // ---- introspection --------------------------------------------------------
  [[nodiscard]] ClassStats class_stats(Priority p) const;
  /// Per-item virtual waits of one class (Options::keep_wait_samples).
  [[nodiscard]] std::vector<double> wait_samples(Priority p) const;
  /// Latest virtual completion over all shards — the modeled makespan
  /// of everything serviced so far.
  [[nodiscard]] double makespan_seconds() const;
  [[nodiscard]] int shard_count() const noexcept;
  /// Items queued but not yet started, across all shards.
  [[nodiscard]] std::size_t queue_depth() const;
  /// Highest queue_depth observed so far.
  [[nodiscard]] std::size_t peak_queue_depth() const;

 private:
  struct Item;
  struct Shard;

  void worker(Shard& shard);
  /// Pop the best runnable item (priority order, drain-guard honoured).
  /// Caller holds the shard mutex; returns nullptr when none runnable.
  [[nodiscard]] std::unique_ptr<Item> pop_runnable(Shard& shard);
  void execute(Shard& shard, std::unique_ptr<Item> item,
               std::unique_lock<std::mutex>& lock);
  void finish_job_item(const std::shared_ptr<JobState>& job,
                       std::exception_ptr error);
  void deregister_job(const std::shared_ptr<JobState>& state);
  [[nodiscard]] Shard& shard_of(std::string_view key);

  Options options_;
  obs::Recorder* recorder_;

  mutable std::mutex mutex_;  // jobs, stats, pause/guard state
  std::condition_variable idle_cv_;
  std::vector<std::shared_ptr<JobState>> jobs_;
  ClassStats stats_[kPriorityClasses];
  std::vector<double> wait_samples_[kPriorityClasses];
  bool paused_ = false;
  int drain_holds_ = 0;
  bool stopping_ = false;
  std::size_t pending_ = 0;       // queued, not yet started
  std::size_t peak_pending_ = 0;
  std::size_t running_ = 0;       // started, not yet finished

  std::vector<std::unique_ptr<Shard>> shards_;

  friend class JobToken;
};

}  // namespace drms::svc
