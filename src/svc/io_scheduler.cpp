#include "svc/io_scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "support/error.hpp"
#include "svc/queue_model.hpp"

namespace drms::svc {

namespace {

[[nodiscard]] std::string class_key(const char* stem, Priority p) {
  return std::string(stem) + to_string(p);
}

}  // namespace

const char* to_string(Priority p) noexcept {
  switch (p) {
    case Priority::kRestore:
      return "restore";
    case Priority::kForeground:
      return "foreground";
    case Priority::kDrain:
      return "drain";
  }
  return "?";
}

// ---- shared states ----------------------------------------------------------

struct Completion::State {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
};

void Completion::wait() const {
  if (state_ == nullptr) {
    return;
  }
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  if (state_->error != nullptr) {
    std::rethrow_exception(state_->error);
  }
}

struct JobState {
  std::string name;
  std::mutex mutex;
  std::condition_variable cv;
  /// Items submitted and not yet finished (queued or running).
  int inflight = 0;
  /// First async error since the last barrier(job).
  std::exception_ptr first_error;
  /// True once the scheduler was destroyed with the token still alive.
  std::atomic<bool> orphaned{false};
};

struct IoScheduler::Item {
  std::shared_ptr<JobState> job;
  Priority priority = Priority::kForeground;
  double sim_seconds = 0.0;
  /// The shard's latest virtual completion at submission.
  double arrival = 0.0;
  std::function<void()> fn;
  std::shared_ptr<Completion::State> completion;
};

struct IoScheduler::Shard {
  std::mutex mutex;
  std::condition_variable cv;
  /// One FIFO per priority class.
  std::deque<std::unique_ptr<Item>> queues[kPriorityClasses];
  ShardClock clock;
  std::thread thread;

  [[nodiscard]] bool empty() const {
    for (const auto& q : queues) {
      if (!q.empty()) {
        return false;
      }
    }
    return true;
  }
};

// ---- JobToken ---------------------------------------------------------------

JobToken& JobToken::operator=(JobToken&& other) noexcept {
  if (this != &other) {
    release();
    scheduler_ = other.scheduler_;
    state_ = std::move(other.state_);
    other.scheduler_ = nullptr;
  }
  return *this;
}

JobToken::~JobToken() { release(); }

void JobToken::release() {
  if (state_ == nullptr) {
    return;
  }
  std::shared_ptr<JobState> state = std::move(state_);
  state_ = nullptr;
  if (!state->orphaned.load()) {
    scheduler_->deregister_job(state);
  }
  scheduler_ = nullptr;
}

// ---- RestoreGuard -----------------------------------------------------------

IoScheduler::RestoreGuard& IoScheduler::RestoreGuard::operator=(
    RestoreGuard&& other) noexcept {
  if (this == &other) {
    return *this;  // self-move: the hold must survive untouched
  }
  // Steal the incoming hold BEFORE releasing the old one: when both
  // guards park the same scheduler the hold count stays >= 1 across the
  // handover, so the drain class cannot wake in between. Each armed
  // guard's hold is released exactly once (here for the overwritten one,
  // by other's now-empty destructor for the stolen one).
  IoScheduler* incoming = other.scheduler_;
  other.scheduler_ = nullptr;
  release();
  scheduler_ = incoming;
  return *this;
}

void IoScheduler::RestoreGuard::release() {
  if (scheduler_ == nullptr) {
    return;
  }
  IoScheduler* s = scheduler_;
  scheduler_ = nullptr;
  {
    const std::lock_guard<std::mutex> lock(s->mutex_);
    --s->drain_holds_;
  }
  for (auto& shard : s->shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->cv.notify_all();
  }
}

IoScheduler::RestoreGuard IoScheduler::preempt_drains() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++drain_holds_;
  }
  if (recorder_ != nullptr) {
    recorder_->count("svc.preempt.hold");
  }
  return RestoreGuard(this);
}

// ---- IoScheduler ------------------------------------------------------------

IoScheduler::IoScheduler() : IoScheduler(Options{}) {}

IoScheduler::IoScheduler(Options options)
    : options_(options), recorder_(options.recorder) {
  DRMS_EXPECTS_MSG(options_.shard_count >= 1,
                   "scheduler needs at least one shard");
  shards_.reserve(static_cast<std::size_t>(options_.shard_count));
  for (int i = 0; i < options_.shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (auto& shard : shards_) {
    shard->thread = std::thread([this, s = shard.get()] { worker(*s); });
  }
}

IoScheduler::~IoScheduler() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    paused_ = false;
    for (const auto& job : jobs_) {
      job->orphaned.store(true);
    }
  }
  for (auto& shard : shards_) {
    {
      const std::lock_guard<std::mutex> lock(shard->mutex);
      shard->cv.notify_all();
    }
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
}

JobToken IoScheduler::register_job(std::string name) {
  auto state = std::make_shared<JobState>();
  state->name = std::move(name);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    DRMS_EXPECTS_MSG(!stopping_, "register_job on a stopping scheduler");
    jobs_.push_back(state);
  }
  if (recorder_ != nullptr) {
    recorder_->count("svc.jobs.registered");
  }
  return JobToken(this, std::move(state));
}

void IoScheduler::deregister_job(const std::shared_ptr<JobState>& state) {
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait(lock, [&] { return state->inflight == 0; });
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  jobs_.erase(std::remove(jobs_.begin(), jobs_.end(), state), jobs_.end());
}

IoScheduler::Shard& IoScheduler::shard_of(std::string_view key) {
  return *shards_[static_cast<std::size_t>(
      svc::shard_of(key, options_.shard_count))];
}

Completion IoScheduler::submit(const JobToken& job, Priority priority,
                               std::string_view shard_key,
                               std::uint64_t bytes, double sim_seconds,
                               std::function<void()> fn) {
  DRMS_EXPECTS_MSG(job.valid(), "submit through an invalid job token");
  DRMS_EXPECTS_MSG(job.scheduler_ == this,
                   "job token belongs to a different scheduler");
  DRMS_EXPECTS_MSG(sim_seconds >= 0.0, "service time must be >= 0");
  const std::shared_ptr<JobState>& state = job.state_;
  const int pri = static_cast<int>(priority);

  {
    const std::lock_guard<std::mutex> lock(state->mutex);
    ++state->inflight;
  }

  std::size_t peak_pending = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_[pri].submitted += 1;
    stats_[pri].bytes += bytes;
    ++pending_;
    peak_pending_ = std::max(peak_pending_, pending_);
    peak_pending = peak_pending_;
  }
  if (recorder_ != nullptr) {
    recorder_->count(class_key("svc.submit.", priority));
    recorder_->gauge_max("svc.queue_depth.peak",
                         static_cast<std::uint64_t>(peak_pending));
  }

  auto item = std::make_unique<Item>();
  item->job = state;
  item->priority = priority;
  item->sim_seconds = sim_seconds;
  item->fn = std::move(fn);
  item->completion = std::make_shared<Completion::State>();
  Completion ticket;
  ticket.state_ = item->completion;

  Shard& shard = shard_of(shard_key);
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    item->arrival = shard.clock.latest_seconds();
    shard.queues[pri].push_back(std::move(item));
    shard.cv.notify_one();
  }
  return ticket;
}

std::unique_ptr<IoScheduler::Item> IoScheduler::pop_runnable(Shard& shard) {
  bool stop = false;
  bool paused = false;
  int holds = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop = stopping_;
    paused = paused_;
    holds = drain_holds_;
  }
  if (paused && !stop) {
    return nullptr;
  }
  for (int c = 0; c < kPriorityClasses; ++c) {
    auto& queue = shard.queues[c];
    if (queue.empty()) {
      continue;
    }
    // The drain class is deferred while a restore guard is held — unless
    // the scheduler is shutting down (everything must still execute).
    if (c == static_cast<int>(Priority::kDrain) && holds > 0 && !stop) {
      continue;
    }
    std::unique_ptr<Item> item = std::move(queue.front());
    queue.pop_front();
    return item;
  }
  return nullptr;
}

void IoScheduler::worker(Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mutex);
  while (true) {
    std::unique_ptr<Item> item = pop_runnable(shard);
    if (item == nullptr) {
      bool stop = false;
      {
        const std::lock_guard<std::mutex> glock(mutex_);
        stop = stopping_;
      }
      if (stop && shard.empty()) {
        return;
      }
      shard.cv.wait(lock);
      continue;
    }
    execute(shard, std::move(item), lock);
  }
}

void IoScheduler::execute(Shard& shard, std::unique_ptr<Item> item,
                          std::unique_lock<std::mutex>& lock) {
  // Deterministic service model. Between this item's submit and its
  // dequeue the shard served only items of its own class or a more
  // urgent one, so it starts at the shard's latest completion, exactly
  // as on one serial clock per shard.
  const double wait =
      shard.clock.serve(item->priority, item->arrival, item->sim_seconds)
          .wait_seconds;
  lock.unlock();

  const int pri = static_cast<int>(item->priority);
  {
    const std::lock_guard<std::mutex> glock(mutex_);
    --pending_;
    ++running_;
    stats_[pri].total_wait_seconds += wait;
    stats_[pri].max_wait_seconds =
        std::max(stats_[pri].max_wait_seconds, wait);
    if (options_.keep_wait_samples) {
      wait_samples_[pri].push_back(wait);
    }
  }
  if (recorder_ != nullptr) {
    recorder_->record_ns(class_key("svc.wait.", item->priority),
                         static_cast<std::uint64_t>(wait * 1.0e9));
  }

  std::exception_ptr error;
  try {
    item->fn();
  } catch (...) {
    error = std::current_exception();
  }

  // Publish every per-item effect (recorder counters, the job's inflight
  // count, the completion ticket) BEFORE the idle notification, so
  // wait_idle() is a full barrier: once it returns, submit and complete
  // counters match and every ticket is signalled.
  if (recorder_ != nullptr) {
    recorder_->count(class_key("svc.complete.", item->priority));
    if (error != nullptr) {
      recorder_->count(class_key("svc.fail.", item->priority));
    }
  }
  finish_job_item(item->job, error);
  {
    const std::lock_guard<std::mutex> clock_guard(item->completion->mutex);
    item->completion->done = true;
    item->completion->error = error;
    item->completion->cv.notify_all();
  }
  {
    const std::lock_guard<std::mutex> glock(mutex_);
    --running_;
    stats_[pri].completed += 1;
    if (error != nullptr) {
      stats_[pri].failed += 1;
    }
    if (pending_ == 0 && running_ == 0) {
      idle_cv_.notify_all();
    }
  }
  lock.lock();
}

void IoScheduler::finish_job_item(const std::shared_ptr<JobState>& job,
                                  std::exception_ptr error) {
  const std::lock_guard<std::mutex> lock(job->mutex);
  --job->inflight;
  if (error != nullptr && job->first_error == nullptr) {
    job->first_error = error;
  }
  job->cv.notify_all();
}

void IoScheduler::barrier(const JobToken& job) {
  DRMS_EXPECTS_MSG(job.valid(), "barrier through an invalid job token");
  const std::shared_ptr<JobState>& state = job.state_;
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait(lock, [&] { return state->inflight == 0; });
    error = std::exchange(state->first_error, nullptr);
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

void IoScheduler::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] { return pending_ == 0 && running_ == 0; });
}

void IoScheduler::pause() {
  const std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void IoScheduler::resume() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  for (auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->cv.notify_all();
  }
}

ClassStats IoScheduler::class_stats(Priority p) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_[static_cast<int>(p)];
}

std::vector<double> IoScheduler::wait_samples(Priority p) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return wait_samples_[static_cast<int>(p)];
}

double IoScheduler::makespan_seconds() const {
  double makespan = 0.0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    makespan = std::max(makespan, shard->clock.latest_seconds());
  }
  return makespan;
}

int IoScheduler::shard_count() const noexcept {
  return options_.shard_count;
}

std::size_t IoScheduler::queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return pending_;
}

std::size_t IoScheduler::peak_queue_depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return peak_pending_;
}

}  // namespace drms::svc
