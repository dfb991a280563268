// Tests for the SPMD task runtime: point-to-point matching, barriers with
// clock synchronization, collectives, failure injection, and determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "rt/collectives.hpp"
#include "rt/task_context.hpp"
#include "rt/task_group.hpp"
#include "support/error.hpp"

namespace {

using namespace drms::rt;
using drms::sim::Machine;
using drms::sim::Placement;
using drms::support::ByteBuffer;


drms::sim::Placement placement_of(int tasks) {
  return Placement::one_per_node(Machine::paper_sp16(), tasks);
}

/// Lane threads that have exited: a job calls mark_lane_thread(), whose
/// thread-local counter counts its thread's exit.
std::atomic<int> g_lane_exits{0};

struct LaneExitCounter {
  ~LaneExitCounter() { g_lane_exits.fetch_add(1); }
};

void mark_lane_thread() {
  thread_local const LaneExitCounter counter;
  (void)counter;
}

/// Waits, yielding, until the group is killed.
void wait_for_kill(const TaskContext& ctx) {
  for (;;) {
    try {
      ctx.check_killed();
    } catch (const drms::support::TaskKilled&) {
      return;
    }
    std::this_thread::yield();
  }
}

TEST(TaskGroup, RunsEveryRankExactlyOnce) {
  TaskGroup group(placement_of(8));
  std::atomic<int> mask{0};
  const auto result = group.run([&](TaskContext& ctx) {
    mask.fetch_or(1 << ctx.rank());
    EXPECT_EQ(ctx.size(), 8);
  });
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(mask.load(), 0xff);
}

TEST(TaskGroup, PointToPointRoundTrip) {
  TaskGroup group(placement_of(2));
  const auto result = group.run([](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      ByteBuffer msg;
      msg.put_u64(123);
      ctx.send(1, 7, std::move(msg));
      Message reply = ctx.recv(1, 8);
      EXPECT_EQ(reply.payload.get_u64(), 124u);
    } else {
      Message msg = ctx.recv(0, 7);
      ByteBuffer reply;
      reply.put_u64(msg.payload.get_u64() + 1);
      ctx.send(0, 8, std::move(reply));
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(TaskGroup, TagAndSourceMatching) {
  TaskGroup group(placement_of(2));
  const auto result = group.run([](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      ByteBuffer a;
      a.put_u64(1);
      ByteBuffer b;
      b.put_u64(2);
      ctx.send(1, 10, std::move(a));
      ctx.send(1, 20, std::move(b));
    } else {
      // Receive out of order: tag 20 first, then tag 10.
      Message m20 = ctx.recv(0, 20);
      Message m10 = ctx.recv(0, 10);
      EXPECT_EQ(m20.payload.get_u64(), 2u);
      EXPECT_EQ(m10.payload.get_u64(), 1u);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(TaskGroup, WildcardReceive) {
  TaskGroup group(placement_of(4));
  const auto result = group.run([](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      int sum = 0;
      for (int i = 0; i < 3; ++i) {
        Message m = ctx.recv(kAnySource, kAnyTag);
        sum += static_cast<int>(m.payload.get_u64());
      }
      EXPECT_EQ(sum, 1 + 2 + 3);
    } else {
      ByteBuffer msg;
      msg.put_u64(static_cast<std::uint64_t>(ctx.rank()));
      ctx.send(0, ctx.rank(), std::move(msg));
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(TaskGroup, UserTagsMustBeNonNegative) {
  TaskGroup group(placement_of(2));
  const auto result = group.run([](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      EXPECT_THROW(ctx.send(1, -5, ByteBuffer{}),
                   drms::support::ContractViolation);
      ctx.send(1, 0, ByteBuffer{});
    } else {
      (void)ctx.recv(0, 0);
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(TaskGroup, BarrierSynchronizesSimClock) {
  TaskGroup group(placement_of(4));
  const auto result = group.run([](TaskContext& ctx) {
    ctx.charge(ctx.rank() * 1.0);  // ranks are 0..3 seconds apart
    ctx.barrier();
    EXPECT_DOUBLE_EQ(ctx.sim_time(), 3.0);  // everyone at the max
  });
  EXPECT_TRUE(result.completed);
  EXPECT_DOUBLE_EQ(result.sim_seconds, 3.0);
}

TEST(TaskGroup, ErrorInOneTaskKillsTheGroup) {
  TaskGroup group(placement_of(4));
  const auto result = group.run([](TaskContext& ctx) {
    if (ctx.rank() == 2) {
      throw drms::support::Error("synthetic failure");
    }
    // Everyone else blocks forever; the kill must wake them.
    for (;;) {
      (void)ctx.recv(kAnySource, 12345);
    }
  });
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.killed);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.errors[0].find("task 2"), std::string::npos);
  EXPECT_NE(result.kill_reason.find("synthetic failure"), std::string::npos);
}

TEST(TaskGroup, ExternalKillInterruptsBarrier) {
  TaskGroup group(placement_of(4));
  std::thread killer([&group] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    group.kill("processor failure injected");
  });
  const auto result = group.run([](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      // Rank 0 never reaches the barrier; the others must still unblock.
      for (;;) {
        ctx.check_killed();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    ctx.barrier();
  });
  killer.join();
  EXPECT_TRUE(result.killed);
  EXPECT_EQ(result.kill_reason, "processor failure injected");
  EXPECT_TRUE(result.errors.empty());  // clean kill, not task errors
}

TEST(Collectives, Broadcast) {
  TaskGroup group(placement_of(5));
  const auto result = group.run([](TaskContext& ctx) {
    ByteBuffer buf;
    if (ctx.rank() == 2) {
      buf.put_string("payload");
    }
    broadcast(ctx, buf, 2);
    buf.rewind();
    EXPECT_EQ(buf.get_string(), "payload");
  });
  EXPECT_TRUE(result.completed);
}

TEST(Collectives, GatherCollectsByRank) {
  TaskGroup group(placement_of(4));
  const auto result = group.run([](TaskContext& ctx) {
    ByteBuffer mine;
    mine.put_u64(static_cast<std::uint64_t>(ctx.rank() * 10));
    auto all = gather(ctx, std::move(mine), 1);
    if (ctx.rank() == 1) {
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(all[static_cast<std::size_t>(r)].get_u64(),
                  static_cast<std::uint64_t>(r * 10));
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Collectives, AllGather) {
  TaskGroup group(placement_of(3));
  const auto result = group.run([](TaskContext& ctx) {
    ByteBuffer mine;
    mine.put_u64(static_cast<std::uint64_t>(ctx.rank() + 100));
    auto all = all_gather(ctx, std::move(mine));
    ASSERT_EQ(all.size(), 3u);
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)].get_u64(),
                static_cast<std::uint64_t>(r + 100));
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Collectives, AllToAllPersonalized) {
  constexpr int kP = 4;
  TaskGroup group(placement_of(kP));
  const auto result = group.run([](TaskContext& ctx) {
    std::vector<ByteBuffer> out(kP);
    for (int d = 0; d < kP; ++d) {
      out[static_cast<std::size_t>(d)].put_u64(
          static_cast<std::uint64_t>(ctx.rank() * 100 + d));
    }
    auto in = all_to_all(ctx, std::move(out));
    ASSERT_EQ(in.size(), static_cast<std::size_t>(kP));
    for (int s = 0; s < kP; ++s) {
      EXPECT_EQ(in[static_cast<std::size_t>(s)].get_u64(),
                static_cast<std::uint64_t>(s * 100 + ctx.rank()));
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(Collectives, Reductions) {
  TaskGroup group(placement_of(6));
  const auto result = group.run([](TaskContext& ctx) {
    const double r = ctx.rank();
    EXPECT_DOUBLE_EQ(all_reduce_sum(ctx, r), 15.0);
    EXPECT_DOUBLE_EQ(all_reduce_max(ctx, r), 5.0);
    EXPECT_DOUBLE_EQ(all_reduce_min(ctx, r), 0.0);
    EXPECT_EQ(all_reduce_sum_u64(ctx, 2), 12u);
  });
  EXPECT_TRUE(result.completed);
}

TEST(Collectives, FloatingPointSumIsBitReproducible) {
  // Sums are folded in rank order, so two runs give identical bits even
  // though delivery order varies with thread scheduling.
  constexpr int kP = 8;
  double first = 0;
  for (int run = 0; run < 5; ++run) {
    TaskGroup group(placement_of(kP), /*seed=*/7);
    double out = 0;
    const auto result = group.run([&](TaskContext& ctx) {
      const double v = 0.1 * (ctx.rank() + 1) + 1e-13 * ctx.rank();
      const double s = all_reduce_sum(ctx, v);
      if (ctx.rank() == 0) {
        out = s;
      }
    });
    EXPECT_TRUE(result.completed);
    if (run == 0) {
      first = out;
    } else {
      EXPECT_EQ(out, first);
    }
  }
}

TEST(Collectives, InterleavedCollectivesDoNotCrossTalk) {
  TaskGroup group(placement_of(4));
  const auto result = group.run([](TaskContext& ctx) {
    for (int i = 0; i < 50; ++i) {
      const double s = all_reduce_sum(ctx, 1.0);
      EXPECT_DOUBLE_EQ(s, 4.0);
      ByteBuffer b;
      if (ctx.rank() == 0) {
        b.put_u64(static_cast<std::uint64_t>(i));
      }
      broadcast(ctx, b, 0);
      b.rewind();
      EXPECT_EQ(b.get_u64(), static_cast<std::uint64_t>(i));
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(TaskContext, NonBlockingReceive) {
  TaskGroup group(placement_of(2));
  const auto result = group.run([](TaskContext& ctx) {
    if (ctx.rank() == 1) {
      auto pending = ctx.irecv(0, 5);
      // Nothing sent yet: polling must not block or complete.
      EXPECT_FALSE(pending.try_complete());
      EXPECT_FALSE(pending.completed());
      ctx.barrier();  // release the sender
      Message& msg = pending.wait();
      EXPECT_EQ(msg.payload.get_u64(), 77u);
      EXPECT_TRUE(pending.completed());
      // wait() is idempotent once completed.
      (void)pending.wait();
    } else {
      ctx.barrier();
      ByteBuffer out;
      out.put_u64(77);
      ctx.send(1, 5, std::move(out));
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(TaskContext, NonBlockingReceivePollLoop) {
  TaskGroup group(placement_of(2));
  const auto result = group.run([](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      auto pending = ctx.irecv(1, 9);
      int polls = 0;
      while (!pending.try_complete()) {
        ++polls;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      EXPECT_EQ(pending.message().payload.get_u64(), 123u);
      (void)polls;  // count varies with scheduling; completing is enough
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ByteBuffer out;
      out.put_u64(123);
      ctx.send(0, 9, std::move(out));
    }
  });
  EXPECT_TRUE(result.completed);
}

TEST(TaskContext, SendrecvRingRotation) {
  constexpr int kP = 5;
  TaskGroup group(placement_of(kP));
  const auto result = group.run([](TaskContext& ctx) {
    const int right = (ctx.rank() + 1) % kP;
    const int left = (ctx.rank() + kP - 1) % kP;
    ByteBuffer out;
    out.put_u64(static_cast<std::uint64_t>(ctx.rank()));
    Message in = ctx.sendrecv(right, 3, std::move(out), left, 3);
    EXPECT_EQ(in.payload.get_u64(), static_cast<std::uint64_t>(left));
  });
  EXPECT_TRUE(result.completed);
}

TEST(Collectives, ExclusiveScan) {
  constexpr int kP = 6;
  TaskGroup group(placement_of(kP));
  const auto result = group.run([](TaskContext& ctx) {
    // value of task r = (r+1)*10; prefix on r = sum_{i<r} (i+1)*10.
    const auto value = static_cast<std::uint64_t>((ctx.rank() + 1) * 10);
    const std::uint64_t prefix = exclusive_scan_u64(ctx, value);
    std::uint64_t expected = 0;
    for (int i = 0; i < ctx.rank(); ++i) {
      expected += static_cast<std::uint64_t>((i + 1) * 10);
    }
    EXPECT_EQ(prefix, expected);
  });
  EXPECT_TRUE(result.completed);
}

TEST(Collectives, ExclusiveScanSingleTask) {
  TaskGroup group(placement_of(1));
  const auto result = group.run([](TaskContext& ctx) {
    EXPECT_EQ(exclusive_scan_u64(ctx, 42), 0u);
  });
  EXPECT_TRUE(result.completed);
}

TEST(TaskContext, PerTaskRngIsDeterministicPerSeed) {
  std::uint64_t a0 = 0;
  std::uint64_t b0 = 0;
  for (int run = 0; run < 2; ++run) {
    TaskGroup group(placement_of(2), /*seed=*/99);
    group.run([&](TaskContext& ctx) {
      const std::uint64_t v = ctx.rng().next_u64();
      if (ctx.rank() == 0) {
        (run == 0 ? a0 : b0) = v;
      }
    });
  }
  EXPECT_EQ(a0, b0);
}

// ---- the I/O lane -----------------------------------------------------------

TEST(TaskContext, LaneRunsJobsInSubmissionOrderOnOneThreadNotTheTasks) {
  constexpr int kJobs = 40;
  TaskGroup group(placement_of(3));
  const auto result = group.run([](TaskContext& ctx) {
    std::vector<int> order;
    std::vector<std::thread::id> ran_on;
    std::vector<TaskContext::LaneTicket> tickets;
    for (int i = 0; i < kJobs; ++i) {
      tickets.push_back(ctx.submit([&order, &ran_on, i] {
        order.push_back(i);
        ran_on.push_back(std::this_thread::get_id());
      }));
    }
    // The last job runs after every earlier one, on the same thread.
    tickets.back().wait();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kJobs));
    for (int i = 0; i < kJobs; ++i) {
      EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
      EXPECT_EQ(ran_on[static_cast<std::size_t>(i)], ran_on.front());
    }
    EXPECT_NE(ran_on.front(), std::this_thread::get_id());
    tickets.clear();
    // A later job still runs on the task's one lane.
    std::thread::id later;
    ctx.submit([&later] { later = std::this_thread::get_id(); }).wait();
    EXPECT_EQ(later, ran_on.front());
  });
  EXPECT_TRUE(result.completed) << result.kill_reason;
}

TEST(TaskContext, LaneJobErrorComesBackThroughItsTicket) {
  TaskGroup group(placement_of(2));
  const auto result = group.run([](TaskContext& ctx) {
    auto failed =
        ctx.submit([] { throw drms::support::IoError("lane job failed"); });
    EXPECT_TRUE(failed.pending());
    try {
      failed.wait();
      ADD_FAILURE() << "the job's error was lost";
    } catch (const drms::support::IoError& e) {
      EXPECT_STREQ(e.what(), "lane job failed");
    }
    EXPECT_FALSE(failed.pending());
    // The lane outlives a failed job.
    int value = 0;
    ctx.submit([&value] { value = 7; }).wait();
    EXPECT_EQ(value, 7);
  });
  EXPECT_TRUE(result.completed) << result.kill_reason;
}

TEST(TaskContext, LaneIsJoinedWhenTheTaskReturns) {
  g_lane_exits = 0;
  TaskGroup group(placement_of(3));
  const auto result = group.run([](TaskContext& ctx) {
    ctx.submit(mark_lane_thread).wait();
  });
  EXPECT_TRUE(result.completed) << result.kill_reason;
  EXPECT_EQ(g_lane_exits.load(), 3);
}

TEST(TaskContext, LaneIsJoinedWhenTheTaskThrows) {
  g_lane_exits = 0;
  TaskGroup group(placement_of(3));
  const auto result = group.run([](TaskContext& ctx) {
    ctx.submit(mark_lane_thread).wait();
    if (ctx.rank() == 1) {
      throw drms::support::Error("synthetic failure");
    }
    ctx.barrier();  // the others are killed here
  });
  EXPECT_FALSE(result.completed);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(g_lane_exits.load(), 3);
}

TEST(TaskContext, LaneIsJoinedWhenTheTaskIsKilledWithAJobInFlight) {
  g_lane_exits = 0;
  TaskGroup group(placement_of(2));
  std::promise<void> started;
  std::atomic<bool> finished{false};
  const auto result = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      const auto ticket = ctx.submit([&] {
        mark_lane_thread();
        started.set_value();
        wait_for_kill(ctx);
        finished = true;
      });
      ctx.barrier();  // never completes: the group is killed
    } else {
      started.get_future().wait();
      group.kill("node lost");
    }
  });
  EXPECT_TRUE(result.killed);
  EXPECT_TRUE(result.errors.empty());
  EXPECT_TRUE(finished.load());
  EXPECT_EQ(g_lane_exits.load(), 1);
}

TEST(TaskContext, TicketDestroyedDuringAnUnwindWaitsForItsJob) {
  TaskGroup group(placement_of(2));
  std::promise<void> unwinding;
  std::promise<void> release;
  const auto result = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 1) {
      unwinding.get_future().wait();
      release.set_value();
      return;
    }
    bool landed = false;
    try {
      std::vector<int> staging(4096, 0);
      const auto ticket = ctx.submit([&] {
        release.get_future().wait();
        std::fill(staging.begin(), staging.end(), 7);
        landed = true;
      });
      // Destroyed before the ticket: the unwind has begun, the job is
      // still blocked.
      struct Signal {
        std::promise<void>& done;
        ~Signal() { done.set_value(); }
      } signal{unwinding};
      throw std::runtime_error("unwind");
    } catch (const std::runtime_error&) {
      // The ticket held the unwind until the job had finished with the
      // staging it freed.
      EXPECT_TRUE(landed);
    }
  });
  EXPECT_TRUE(result.completed) << result.kill_reason;
}

}  // namespace
