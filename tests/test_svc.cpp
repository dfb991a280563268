// drms::svc IoScheduler — the multi-tenant checkpoint-service core.
// Covers priority classes, per-job tokens and barriers, sharded queues,
// the one execution path (every item runs on a shard worker), the
// deterministic virtual-time service model, error propagation through
// barriers, and the recorder wiring.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/recorder.hpp"
#include "support/error.hpp"
#include "svc/io_scheduler.hpp"

namespace {

using drms::svc::Completion;
using drms::svc::IoScheduler;
using drms::svc::JobToken;
using drms::svc::Priority;

/// Execution-order log shared with worker threads.
struct OrderLog {
  std::mutex mutex;
  std::vector<std::string> entries;

  void add(std::string entry) {
    const std::lock_guard<std::mutex> lock(mutex);
    entries.push_back(std::move(entry));
  }
  [[nodiscard]] std::vector<std::string> snapshot() {
    const std::lock_guard<std::mutex> lock(mutex);
    return entries;
  }
};

TEST(Svc, SameKeyItemsQueueOnAWorkerInSubmissionOrder) {
  drms::obs::Recorder recorder;
  IoScheduler::Options opts;
  opts.shard_count = 4;
  opts.recorder = &recorder;
  IoScheduler scheduler(opts);
  JobToken job = scheduler.register_job("solo");

  // A lone job's items still queue: none runs on the submitting thread.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> ran_on_caller{0};
  OrderLog log;
  for (int i = 0; i < 4; ++i) {
    scheduler.submit(job, Priority::kForeground, "file", /*bytes=*/64,
                     /*sim_seconds=*/0.25, [&, i] {
                       if (std::this_thread::get_id() == caller) {
                         ++ran_on_caller;
                       }
                       log.add(std::to_string(i));
                     });
  }
  scheduler.wait_idle();
  EXPECT_EQ(ran_on_caller.load(), 0);
  EXPECT_EQ(log.snapshot(), (std::vector<std::string>{"0", "1", "2", "3"}));
  // One key, one shard: the four items serialize on its virtual clock.
  EXPECT_DOUBLE_EQ(scheduler.makespan_seconds(), 1.0);
  EXPECT_EQ(scheduler.class_stats(Priority::kForeground).completed, 4u);
  EXPECT_EQ(recorder.counter("svc.submit.foreground"), 4u);
  EXPECT_EQ(recorder.counter("svc.complete.foreground"), 4u);
}

TEST(Svc, RestoreBeatsForegroundBeatsDrain) {
  IoScheduler scheduler;
  scheduler.pause();
  JobToken job = scheduler.register_job("tenant");

  OrderLog log;
  // Submit in worst-case order onto one shard; dequeue must re-rank.
  scheduler.submit(job, Priority::kDrain, "k", 0, 0.0,
                   [&log] { log.add("drain"); });
  scheduler.submit(job, Priority::kForeground, "k", 0, 0.0,
                   [&log] { log.add("foreground"); });
  scheduler.submit(job, Priority::kRestore, "k", 0, 0.0,
                   [&log] { log.add("restore"); });
  EXPECT_EQ(scheduler.queue_depth(), 3u);
  scheduler.resume();
  scheduler.wait_idle();
  EXPECT_EQ(log.snapshot(),
            (std::vector<std::string>{"restore", "foreground", "drain"}));
}

TEST(Svc, VirtualTimelineShardsRunInParallel) {
  // 32 one-second items on one shard serialize to a 32 s makespan...
  IoScheduler serial;
  JobToken sjob = serial.register_job("tenant");
  for (int i = 0; i < 32; ++i) {
    serial.submit(sjob, Priority::kForeground, "file" + std::to_string(i),
                  0, 1.0, [] {});
  }
  serial.wait_idle();
  EXPECT_DOUBLE_EQ(serial.makespan_seconds(), 32.0);

  // ...and spread over 4 shard queues the modeled makespan shrinks (the
  // hash spreads 32 distinct file names well below full serialization).
  IoScheduler::Options four;
  four.shard_count = 4;
  IoScheduler sharded(four);
  JobToken pjob = sharded.register_job("tenant");
  for (int i = 0; i < 32; ++i) {
    sharded.submit(pjob, Priority::kForeground, "file" + std::to_string(i),
                   0, 1.0, [] {});
  }
  sharded.wait_idle();
  EXPECT_GE(sharded.makespan_seconds(), 8.0);   // 32 s of work, 4 servers
  EXPECT_LT(sharded.makespan_seconds(), 32.0);  // genuinely parallel
}

TEST(Svc, QueueWaitIsDeterministicQueueingModel) {
  IoScheduler::Options opts;
  opts.keep_wait_samples = true;
  IoScheduler scheduler(opts);
  scheduler.pause();
  JobToken job = scheduler.register_job("tenant");
  // Three 2 s items queued at virtual time 0 on one shard: waits are
  // exactly 0, 2 and 4 s regardless of host timing.
  for (int i = 0; i < 3; ++i) {
    scheduler.submit(job, Priority::kForeground, "k", 0, 2.0, [] {});
  }
  scheduler.resume();
  scheduler.wait_idle();
  EXPECT_EQ(scheduler.wait_samples(Priority::kForeground),
            (std::vector<double>{0.0, 2.0, 4.0}));
  const auto stats = scheduler.class_stats(Priority::kForeground);
  EXPECT_DOUBLE_EQ(stats.total_wait_seconds, 6.0);
  EXPECT_DOUBLE_EQ(stats.max_wait_seconds, 4.0);
  EXPECT_DOUBLE_EQ(scheduler.makespan_seconds(), 6.0);
}

TEST(Svc, RestoreGuardParksDrainsUntilReleased) {
  IoScheduler scheduler;
  scheduler.pause();
  JobToken job = scheduler.register_job("tenant");

  std::atomic<int> drains{0};
  scheduler.submit(job, Priority::kDrain, "k", 0, 0.0,
                   [&drains] { ++drains; });
  Completion restore = scheduler.submit(job, Priority::kRestore, "k", 0, 0.0,
                                        [] {});
  auto guard = scheduler.preempt_drains();
  EXPECT_TRUE(guard.held());
  scheduler.resume();
  // The restore runs; the queued drain stays parked behind the guard.
  restore.wait();
  EXPECT_EQ(drains.load(), 0);
  EXPECT_EQ(scheduler.queue_depth(), 1u);
  guard.release();
  EXPECT_FALSE(guard.held());
  scheduler.wait_idle();
  EXPECT_EQ(drains.load(), 1);
}

TEST(Svc, RestoreGuardSelfMoveKeepsTheDrainsParked) {
  IoScheduler scheduler;
  scheduler.pause();
  JobToken job = scheduler.register_job("tenant");
  std::atomic<int> drains{0};
  scheduler.submit(job, Priority::kDrain, "k", 0, 0.0,
                   [&drains] { ++drains; });

  auto guard = scheduler.preempt_drains();
  auto* alias = &guard;
  guard = std::move(*alias);  // self-move must neither release nor leak
  EXPECT_TRUE(guard.held());
  scheduler.resume();
  scheduler.submit(job, Priority::kForeground, "k", 0, 0.0, [] {}).wait();
  EXPECT_EQ(drains.load(), 0);  // still parked
  guard.release();
  scheduler.wait_idle();
  EXPECT_EQ(drains.load(), 1);  // and not parked forever
}

TEST(Svc, RestoreGuardAssignOverArmedReleasesExactlyOneHold) {
  IoScheduler scheduler;
  scheduler.pause();
  JobToken job = scheduler.register_job("tenant");
  std::atomic<int> drains{0};
  scheduler.submit(job, Priority::kDrain, "k", 0, 0.0,
                   [&drains] { ++drains; });

  auto a = scheduler.preempt_drains();
  auto b = scheduler.preempt_drains();
  a = std::move(b);  // drops a's hold, adopts b's: ONE hold remains
  EXPECT_TRUE(a.held());
  EXPECT_FALSE(b.held());
  scheduler.resume();
  scheduler.submit(job, Priority::kForeground, "k", 0, 0.0, [] {}).wait();
  EXPECT_EQ(drains.load(), 0);  // the surviving hold still parks drains
  a.release();
  scheduler.wait_idle();
  EXPECT_EQ(drains.load(), 1);  // hold count reached zero exactly once
}

TEST(Svc, RestoreGuardAssignEmptyOverArmedUnparks) {
  IoScheduler scheduler;
  scheduler.pause();
  JobToken job = scheduler.register_job("tenant");
  std::atomic<int> drains{0};
  scheduler.submit(job, Priority::kDrain, "k", 0, 0.0,
                   [&drains] { ++drains; });

  auto guard = scheduler.preempt_drains();
  guard = IoScheduler::RestoreGuard();  // assigning empty releases the hold
  EXPECT_FALSE(guard.held());
  scheduler.resume();
  scheduler.wait_idle();
  EXPECT_EQ(drains.load(), 1);
  guard.release();  // double release stays idempotent
  EXPECT_FALSE(guard.held());
}

TEST(Svc, BarrierRethrowsTheJobsFirstAsyncErrorOnce) {
  IoScheduler scheduler;
  JobToken job = scheduler.register_job("tenant");
  scheduler.submit(job, Priority::kForeground, "k", 0, 0.0,
                   [] { throw std::runtime_error("torn write"); });
  scheduler.submit(job, Priority::kForeground, "k", 0, 0.0, [] {});
  EXPECT_THROW(scheduler.barrier(job), std::runtime_error);
  // The error was delivered exactly once.
  EXPECT_NO_THROW(scheduler.barrier(job));
  EXPECT_EQ(scheduler.class_stats(Priority::kForeground).failed, 1u);
}

TEST(Svc, CompletionWaitRethrowsThatItemsError) {
  IoScheduler scheduler;
  JobToken job = scheduler.register_job("tenant");
  Completion bad = scheduler.submit(job, Priority::kForeground, "k", 0, 0.0,
                                    [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.wait(), std::runtime_error);
  // Consume the stored job error so the token's deregistration is clean.
  EXPECT_THROW(scheduler.barrier(job), std::runtime_error);
}

TEST(Svc, NegativeServiceTimeIsRejectedBeforeQueueing) {
  IoScheduler scheduler;
  JobToken job = scheduler.register_job("tenant");
  // A worker must not throw while pricing an item, so submit refuses a
  // negative service time on the caller's thread, before it counts or
  // queues anything.
  std::atomic<bool> ran{false};
  EXPECT_THROW(scheduler.submit(job, Priority::kForeground, "k", 0, -1.0,
                                [&ran] { ran = true; }),
               drms::support::ContractViolation);
  EXPECT_NO_THROW(scheduler.barrier(job));
  scheduler.wait_idle();
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(scheduler.class_stats(Priority::kForeground).submitted, 0u);
}

TEST(Svc, DestructorRunsEveryPendingItem) {
  std::atomic<int> ran{0};
  {
    // The token is declared first so the scheduler destructs before it:
    // teardown drains the paused backlog and orphans the job, and the
    // token's later release is a no-op instead of waiting on work the
    // dead scheduler can no longer run.
    JobToken job;
    IoScheduler scheduler;
    scheduler.pause();
    job = scheduler.register_job("tenant");
    for (int i = 0; i < 5; ++i) {
      std::string key = "k";
      key += std::to_string(i);
      scheduler.submit(job, Priority::kDrain, key, 0, 0.0, [&ran] { ++ran; });
    }
    // No resume(): teardown itself must drain the backlog (durability
    // over priority at shutdown), then join the workers.
  }
  EXPECT_EQ(ran.load(), 5);
}

TEST(Svc, JobTokenOutlivingTheSchedulerIsSafe) {
  JobToken job;
  {
    IoScheduler scheduler;
    job = scheduler.register_job("orphan");
    EXPECT_TRUE(job.valid());
  }
  // The scheduler died first; the orphaned token must not touch it.
  job.release();
  EXPECT_FALSE(job.valid());
}

TEST(Svc, RecorderSeesAsyncCountersAndQueueDepth) {
  drms::obs::Recorder recorder;
  IoScheduler::Options opts;
  opts.recorder = &recorder;
  IoScheduler scheduler(opts);
  scheduler.pause();
  JobToken job = scheduler.register_job("tenant");
  scheduler.submit(job, Priority::kRestore, "k", 128, 1.0, [] {});
  scheduler.submit(job, Priority::kDrain, "k", 256, 1.0, [] {});
  scheduler.resume();
  scheduler.wait_idle();
  EXPECT_EQ(recorder.counter("svc.jobs.registered"), 1u);
  EXPECT_EQ(recorder.counter("svc.submit.restore"), 1u);
  EXPECT_EQ(recorder.counter("svc.complete.restore"), 1u);
  EXPECT_EQ(recorder.counter("svc.submit.drain"), 1u);
  EXPECT_EQ(recorder.counter("svc.complete.drain"), 1u);
  EXPECT_EQ(recorder.gauge("svc.queue_depth.peak"), 2u);
  EXPECT_EQ(scheduler.peak_queue_depth(), 2u);
  EXPECT_EQ(scheduler.class_stats(Priority::kRestore).bytes, 128u);
  EXPECT_EQ(scheduler.class_stats(Priority::kDrain).bytes, 256u);
}

}  // namespace
