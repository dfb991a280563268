// Per-task handle passed to the SPMD function: rank/size, point-to-point
// messaging, barrier, simulated-time accounting, a deterministic per-task
// RNG stream, and the task's I/O lane.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>

#include "rt/message.hpp"
#include "sim/machine.hpp"
#include "support/byte_buffer.hpp"
#include "support/rng.hpp"

namespace drms::rt {

class TaskGroup;

class TaskContext {
 public:
  TaskContext(TaskGroup& group, int rank);
  /// Joins the I/O lane, if one was started.
  ~TaskContext();

  TaskContext(const TaskContext&) = delete;
  TaskContext& operator=(const TaskContext&) = delete;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept;
  [[nodiscard]] const sim::Placement& placement() const noexcept;

  /// ---- point-to-point ------------------------------------------------------
  /// Asynchronous-buffered send (never blocks; moves the payload into the
  /// destination mailbox). Tag must be in [0, kInternalTagBase).
  void send(int dest, int tag, support::ByteBuffer payload);
  /// Blocking receive with (source, tag) matching; wildcards allowed.
  [[nodiscard]] Message recv(int source, int tag);
  [[nodiscard]] bool probe(int source, int tag) const;

  /// Non-blocking receive handle: poll with try_complete(), block with
  /// wait(). The handle is bound to this context and must not outlive it.
  class PendingRecv {
   public:
    /// Completes the receive if a matching message is queued; returns
    /// true when the message is available via message().
    bool try_complete();
    /// Blocks until the message arrives (kill-aware).
    Message& wait();
    [[nodiscard]] bool completed() const noexcept { return done_; }
    [[nodiscard]] Message& message();

   private:
    friend class TaskContext;
    PendingRecv(TaskContext& ctx, int source, int tag)
        : ctx_(&ctx), source_(source), tag_(tag) {}
    TaskContext* ctx_;
    int source_;
    int tag_;
    bool done_ = false;
    Message message_;
  };
  [[nodiscard]] PendingRecv irecv(int source, int tag) {
    return PendingRecv(*this, source, tag);
  }

  /// Combined send+receive (safe for ring/pairwise exchanges: the send is
  /// buffered, so no ordering deadlock is possible, but the combined call
  /// documents intent and saves a line).
  [[nodiscard]] Message sendrecv(int dest, int send_tag,
                                 support::ByteBuffer payload, int source,
                                 int recv_tag);

  /// ---- synchronization ------------------------------------------------------
  void barrier();

  /// ---- simulated time --------------------------------------------------------
  /// Advance this task's simulated clock (I/O and compute primitives call
  /// this with CostModel durations).
  void charge(double seconds);
  [[nodiscard]] double sim_time() const;

  /// Throw support::TaskKilled if the group has been killed — long
  /// compute-only loops call this at iteration boundaries so an injected
  /// failure interrupts them too.
  void check_killed() const;

  /// Deterministic per-task random stream (seeded from group seed + rank).
  [[nodiscard]] support::Rng& rng() noexcept { return rng_; }

  /// Group-shared random stream: seeded from the group seed ONLY, so as
  /// long as tasks draw in identical (SPMD) order, every task sees the
  /// same values. Used for collective timing jitter — a per-task stream
  /// would bias every barrier toward max-of-N draws.
  [[nodiscard]] support::Rng& shared_rng() noexcept { return shared_rng_; }

  /// ---- I/O lane -------------------------------------------------------------
  /// One job queued on the lane. wait() blocks until the job has run and
  /// rethrows what it threw. The destructor waits too (and drops the
  /// error), so a caller that unwinds never frees what a running job
  /// still uses. A ticket must not outlive the context that issued it.
  class LaneTicket {
   public:
    LaneTicket() = default;
    LaneTicket(LaneTicket&&) noexcept = default;
    /// Waits for the job this ticket held, if any, before taking over.
    LaneTicket& operator=(LaneTicket&& other) noexcept;
    ~LaneTicket();

    /// True from submission until wait() returns or throws.
    [[nodiscard]] bool pending() const noexcept { return done_.valid(); }
    void wait();

   private:
    friend class TaskContext;
    explicit LaneTicket(std::future<void> done) : done_(std::move(done)) {}
    std::future<void> done_;
  };

  /// Queue `job` on this task's I/O lane: one worker thread, started by
  /// the first submit and joined when the context is destroyed (the task
  /// returned, threw or was killed), that runs the task's jobs one at a
  /// time in submission order.
  [[nodiscard]] LaneTicket submit(std::function<void()> job);

  /// ---- runtime-internal (used by collectives.cpp) ----------------------------
  /// Per-task collective sequence counter; SPMD execution order guarantees
  /// the same collective gets the same sequence number on every task.
  [[nodiscard]] std::uint64_t next_collective_seq() noexcept {
    return collective_seq_++;
  }
  /// Send that may use the reserved internal tag space.
  void internal_send(int dest, int tag, support::ByteBuffer payload);

 private:
  TaskGroup& group_;
  int rank_;
  support::Rng rng_;
  support::Rng shared_rng_;
  std::uint64_t collective_seq_ = 0;
  struct Lane;
  std::unique_ptr<Lane> lane_;
};

}  // namespace drms::rt
