#include "arch/scheduler.hpp"

#include <chrono>
#include <thread>

#include "core/checkpoint_catalog.hpp"
#include "core/checkpoint_format.hpp"
#include "support/error.hpp"

namespace drms::arch {

JobScheduler::JobScheduler(Cluster& cluster, EventLog* log)
    : cluster_(cluster), log_(log) {}

bool JobScheduler::request_checkpoint(const std::string& job_name) {
  const std::lock_guard<std::mutex> lock(running_mutex_);
  const auto it = running_.find(job_name);
  if (it == running_.end()) {
    return false;
  }
  it->second->enable_checkpoint();
  if (log_ != nullptr) {
    log_->record(EventKind::kCheckpointRequested, "job=" + job_name);
  }
  return true;
}

namespace {

/// Highest SOP currently in storage for any state under the filter.
std::int64_t highest_sop(const store::StorageBackend& storage,
                         const std::string& prefix_filter) {
  std::int64_t best = 0;
  for (const auto& record : core::list_checkpoints(storage, prefix_filter)) {
    best = std::max(best, record.meta.sop);
  }
  return best;
}

}  // namespace

bool JobScheduler::preempt_job(const std::string& job_name,
                               const store::StorageBackend& storage,
                               const std::string& prefix_filter,
                               std::int64_t min_sop_exclusive,
                               int timeout_ms) {
  if (!request_checkpoint(job_name)) {
    return false;
  }
  // Wait for the enabling SOP to produce a fresh state.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(timeout_ms);
  while (highest_sop(storage, prefix_filter) <= min_sop_exclusive) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Tear the pool down; run_job's loop will relaunch from the state.
  {
    const std::lock_guard<std::mutex> lock(running_mutex_);
    if (running_.count(job_name) == 0) {
      return false;  // finished on its own in the meantime
    }
  }
  // The cluster holds the group pointer; kill through it.
  cluster_.kill_pool(job_name, "preempted by the scheduler");
  if (log_ != nullptr) {
    log_->record(EventKind::kJobPreempted, "job=" + job_name);
  }
  return true;
}

bool JobScheduler::drain_node(int node,
                              const store::StorageBackend& storage,
                              const std::string& prefix_filter,
                              std::int64_t min_sop_exclusive,
                              int timeout_ms) {
  const std::string job = cluster_.job_on_node(node);
  if (!job.empty()) {
    if (!preempt_job(job, storage, prefix_filter, min_sop_exclusive,
                     timeout_ms)) {
      return false;
    }
  }
  cluster_.fail_node(node);
  if (log_ != nullptr) {
    log_->record(EventKind::kNodeDrained, "node=" + std::to_string(node));
  }
  return true;
}

JobOutcome JobScheduler::run_job(const JobDescriptor& job) {
  DRMS_EXPECTS(job.make_program != nullptr && job.body != nullptr);
  DRMS_EXPECTS(!job.name.empty());
  DRMS_EXPECTS(job.base_env.storage != nullptr);
  DRMS_EXPECTS(job.min_tasks >= 1 &&
               job.preferred_tasks >= job.min_tasks);

  JobOutcome outcome;
  int restarts = 0;
  for (;;) {
    // A caller that sees the job's nodes must also find its program in
    // running_, so request_checkpoint is held off from before the nodes
    // are published until the program is registered (make_program runs
    // under the lock for that reason).
    std::unique_lock<std::mutex> launching(running_mutex_);
    const std::vector<int> nodes =
        cluster_.allocate(job.min_tasks, job.preferred_tasks, job.name);
    if (nodes.empty()) {
      throw support::Error("JSA: fewer than " +
                           std::to_string(job.min_tasks) +
                           " processors available for job '" + job.name +
                           "'");
    }
    const int tasks = static_cast<int>(nodes.size());

    // Restart from the job's checkpoint whenever one exists (either from
    // a prior attempt of this invocation or from an earlier submission).
    core::DrmsEnv env = job.base_env;
    bool have_checkpoint = false;
    if (job.restart_from_latest) {
      const auto latest = core::latest_checkpoint(
          *env.storage, job.name, job.checkpoint_prefix);
      if (latest.has_value() &&
          latest->spmd == (env.mode == core::CheckpointMode::kSpmd)) {
        have_checkpoint = true;
        env.restart_prefix = latest->prefix;
      }
    } else {
      have_checkpoint =
          env.mode == core::CheckpointMode::kDrms
              ? core::checkpoint_exists(*env.storage, job.checkpoint_prefix)
              : core::spmd_checkpoint_exists(*env.storage,
                                             job.checkpoint_prefix);
      if (have_checkpoint) {
        env.restart_prefix = job.checkpoint_prefix;
      }
    }

    std::unique_ptr<core::DrmsProgram> program =
        job.make_program(env, tasks);
    DRMS_EXPECTS(program != nullptr);

    rt::TaskGroup group(
        sim::Placement(cluster_.machine(), nodes),
        job.seed + static_cast<std::uint64_t>(restarts) * 7919);
    cluster_.register_pool(job.name, &group);
    running_[job.name] = program.get();
    launching.unlock();
    if (log_ != nullptr) {
      log_->record(have_checkpoint ? EventKind::kJobRestarted
                                   : EventKind::kJobLaunched,
                   "job=" + job.name + " tasks=" + std::to_string(tasks));
    }

    const rt::TaskGroupResult result = group.run(
        [&](rt::TaskContext& ctx) { job.body(*program, ctx); });

    {
      const std::lock_guard<std::mutex> lock(running_mutex_);
      running_.erase(job.name);
    }
    cluster_.deregister_pool(job.name);
    cluster_.release(job.name);

    JobAttempt attempt;
    attempt.tasks = tasks;
    attempt.from_checkpoint = have_checkpoint;
    attempt.completed = result.completed;
    attempt.killed = result.killed;
    attempt.kill_reason = result.kill_reason;
    attempt.errors = result.errors;
    attempt.sim_seconds = result.sim_seconds;
    outcome.attempts.push_back(std::move(attempt));

    if (result.completed) {
      if (log_ != nullptr) {
        log_->record(EventKind::kJobCompleted, "job=" + job.name);
      }
      outcome.completed = true;
      return outcome;
    }
    if (!result.errors.empty()) {
      // An application bug, not a processor failure — do not retry.
      return outcome;
    }
    if (++restarts > job.max_restarts) {
      return outcome;
    }
    if (!core::checkpoint_exists(*job.base_env.storage,
                                 job.checkpoint_prefix) &&
        !core::spmd_checkpoint_exists(*job.base_env.storage,
                                      job.checkpoint_prefix) &&
        log_ != nullptr) {
      log_->record(EventKind::kJobFailedNoCheckpoint,
                   "job=" + job.name + " (restarting from scratch)");
    }
    // Loop: reallocate from the processors still available (the failed
    // node is out of the pool until repaired) and restart.
  }
}

}  // namespace drms::arch
