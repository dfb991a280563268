#include "core/commit_session.hpp"

#include <utility>

#include "support/crc32.hpp"

namespace drms::core {

support::RetryPolicy CommitSession::retry_policy(const char* what) const {
  support::RetryPolicy policy;
  policy.observer = recorder_;
  policy.what = what;
  if (active()) {
    policy.jitter_seed = io_job_->id();
  }
  return policy;
}

void CommitSession::submit(const std::string& file, std::uint64_t bytes,
                           std::function<void()> fn) {
  if (!active()) {
    fn();
    return;
  }
  // The queueing model prices the item at the backend's modeled write
  // time (jitter-free: the shared RNG stream must not move).
  const double sim_seconds =
      storage_.charges_time()
          ? storage_.single_write_seconds(bytes, load_, nullptr)
          : 0.0;
  (void)io_->submit(*io_job_, svc::Priority::kForeground, file, bytes,
                    sim_seconds, std::move(fn));
}

void CommitSession::read(const std::string& file, std::uint64_t bytes,
                         std::function<void()> fn) {
  if (!active()) {
    fn();
    return;
  }
  const double sim_seconds =
      storage_.charges_time()
          ? storage_.stream_read_round_seconds(bytes, 1, load_, nullptr)
          : 0.0;
  io_->submit(*io_job_, svc::Priority::kRestore, file, bytes, sim_seconds,
              std::move(fn))
      .wait();
}

void CommitSession::barrier() {
  if (active()) {
    io_->barrier(*io_job_);
  }
}

void CommitSession::decommit(rt::TaskContext& ctx, const std::string& prefix) {
  obs::ScopedSpan span(recorder_, category_, "decommit", 0, ctx.sim_time());
  submit(commit_file_name(prefix), 0, [this, &prefix] {
    support::retry_io([&] { decommit_checkpoint(storage_, prefix); },
                      retry_policy("decommit"));
  });
  barrier();  // prefix files are untouchable until this completes
  span.end(ctx.sim_time());
}

double CommitSession::publish(rt::TaskContext& ctx, const std::string& prefix,
                              const std::string& meta_file,
                              const CheckpointMeta& meta,
                              CommitManifest manifest) {
  // Built on every task (from collective-identical values) so the modeled
  // commit overhead is identical everywhere; written by task 0.
  const support::ByteBuffer meta_buf = encode_checkpoint_meta(meta);
  manifest.base_prefix = meta.base_prefix;
  manifest.entries.insert(
      manifest.entries.begin(),
      CommitEntry{meta_file, meta_buf.size(),
                  support::crc32c(meta_buf.bytes()), true});
  const support::ByteBuffer manifest_buf = encode_commit_manifest(manifest);

  if (ctx.rank() == 0) {
    {
      obs::ScopedSpan meta_span(recorder_, category_, "meta", 0,
                                ctx.sim_time());
      submit(meta_file, meta_buf.size(), [this, &meta_file, &meta_buf] {
        support::retry_io(
            [&] { storage_.create(meta_file).write_at(0, meta_buf.bytes()); },
            retry_policy("meta.write"));
      });
      meta_span.end(ctx.sim_time());
    }
    obs::ScopedSpan commit_span(recorder_, category_, "commit", 0,
                                ctx.sim_time());
    // Manifest-last: every queued write (meta included) completes before
    // the commit manifest is even submitted.
    barrier();
    const std::string commit_file = commit_file_name(prefix);
    submit(commit_file, manifest_buf.size(),
           [this, &commit_file, &manifest_buf] {
             support::retry_io(
                 [&] {
                   storage_.create(commit_file)
                       .write_at(0, manifest_buf.bytes());
                 },
                 retry_policy("commit.write"));
           });
    barrier();
    commit_span.end(ctx.sim_time());
  }
  return storage_.charges_time()
             ? storage_.single_write_seconds(
                   meta_buf.size() + manifest_buf.size(), load_, nullptr)
             : 0.0;
}

}  // namespace drms::core
