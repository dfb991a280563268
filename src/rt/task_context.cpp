#include "rt/task_context.hpp"

#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "rt/task_group.hpp"
#include "support/error.hpp"

namespace drms::rt {

/// A worker thread that runs queued jobs one at a time, oldest first.
struct TaskContext::Lane {
  struct Job {
    std::function<void()> run;
    std::promise<void> done;
  };

  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Job> jobs;
  bool closing = false;
  std::thread worker{[this] { serve(); }};  // declared last: starts last

  Lane() = default;
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;
  ~Lane() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      closing = true;
    }
    ready.notify_one();
    worker.join();
  }

  void serve() {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      ready.wait(lock, [this] { return closing || !jobs.empty(); });
      if (jobs.empty()) {
        return;
      }
      Job job = std::move(jobs.front());
      jobs.pop_front();
      lock.unlock();
      std::exception_ptr error;
      try {
        job.run();
      } catch (...) {
        error = std::current_exception();
      }
      // Release the job's captures before its ticket can return.
      job.run = nullptr;
      if (error) {
        job.done.set_exception(error);
      } else {
        job.done.set_value();
      }
      lock.lock();
    }
  }
};

TaskContext::LaneTicket& TaskContext::LaneTicket::operator=(
    LaneTicket&& other) noexcept {
  if (done_.valid()) {
    done_.wait();
  }
  done_ = std::move(other.done_);
  return *this;
}

TaskContext::LaneTicket::~LaneTicket() {
  if (done_.valid()) {
    done_.wait();
  }
}

void TaskContext::LaneTicket::wait() {
  DRMS_EXPECTS_MSG(done_.valid(), "wait() on a ticket with no job");
  done_.get();
}

TaskContext::LaneTicket TaskContext::submit(std::function<void()> job) {
  DRMS_EXPECTS(job != nullptr);
  if (lane_ == nullptr) {
    lane_ = std::make_unique<Lane>();
  }
  Lane::Job queued{std::move(job), {}};
  LaneTicket ticket(queued.done.get_future());
  {
    const std::lock_guard<std::mutex> lock(lane_->mutex);
    lane_->jobs.push_back(std::move(queued));
  }
  lane_->ready.notify_one();
  return ticket;
}

TaskContext::TaskContext(TaskGroup& group, int rank)
    : group_(group),
      rank_(rank),
      rng_(group.seed() ^
           (static_cast<std::uint64_t>(rank + 1) * 0x9e3779b97f4a7c15ull)),
      shared_rng_(group.seed() ^ 0x7368617265645f72ull) {
  DRMS_EXPECTS(rank >= 0 && rank < group.task_count());
}

TaskContext::~TaskContext() = default;

int TaskContext::size() const noexcept { return group_.task_count(); }

const sim::Placement& TaskContext::placement() const noexcept {
  return group_.placement();
}

void TaskContext::send(int dest, int tag, support::ByteBuffer payload) {
  DRMS_EXPECTS_MSG(tag >= 0 && tag < kInternalTagBase,
                   "user tags must be in [0, kInternalTagBase)");
  internal_send(dest, tag, std::move(payload));
}

void TaskContext::internal_send(int dest, int tag,
                                support::ByteBuffer payload) {
  DRMS_EXPECTS(dest >= 0 && dest < size());
  check_killed();
  Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.payload = std::move(payload);
  group_.mailboxes_[static_cast<std::size_t>(dest)]->deliver(std::move(msg));
}

Message TaskContext::recv(int source, int tag) {
  DRMS_EXPECTS(source == kAnySource || (source >= 0 && source < size()));
  return group_.mailboxes_[static_cast<std::size_t>(rank_)]->receive(source,
                                                                     tag);
}

bool TaskContext::probe(int source, int tag) const {
  return group_.mailboxes_[static_cast<std::size_t>(rank_)]->probe(source,
                                                                   tag);
}

bool TaskContext::PendingRecv::try_complete() {
  if (done_) {
    return true;
  }
  if (!ctx_->probe(source_, tag_)) {
    ctx_->check_killed();
    return false;
  }
  message_ = ctx_->recv(source_, tag_);
  done_ = true;
  return true;
}

Message& TaskContext::PendingRecv::wait() {
  if (!done_) {
    message_ = ctx_->recv(source_, tag_);
    done_ = true;
  }
  return message_;
}

Message& TaskContext::PendingRecv::message() {
  DRMS_EXPECTS_MSG(done_, "PendingRecv::message() before completion");
  return message_;
}

Message TaskContext::sendrecv(int dest, int send_tag,
                              support::ByteBuffer payload, int source,
                              int recv_tag) {
  send(dest, send_tag, std::move(payload));
  return recv(source, recv_tag);
}

void TaskContext::barrier() { group_.barrier_.arrive_and_wait(); }

void TaskContext::charge(double seconds) {
  group_.clock_.advance(rank_, seconds);
}

double TaskContext::sim_time() const { return group_.clock_.time_of(rank_); }

void TaskContext::check_killed() const {
  if (group_.kill_->is_killed()) {
    throw support::TaskKilled(group_.kill_->reason());
  }
}

}  // namespace drms::rt
