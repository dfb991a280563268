#include "core/commit_session.hpp"

#include "support/crc32.hpp"

namespace drms::core {

support::RetryPolicy CommitSession::retry_policy(const char* what) const {
  support::RetryPolicy policy;
  policy.observer = recorder_;
  policy.what = what;
  return policy;
}

void CommitSession::decommit(rt::TaskContext& ctx, const std::string& prefix) {
  obs::ScopedSpan span(recorder_, category_, "decommit", 0, ctx.sim_time());
  support::retry_io([&] { decommit_checkpoint(storage_, prefix); },
                    retry_policy("decommit"));
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
      support::retry_io(
          [&] { storage_.create(meta_file).write_at(0, meta_buf.bytes()); },
          retry_policy("meta.write"));
      meta_span.end(ctx.sim_time());
    }
    obs::ScopedSpan commit_span(recorder_, category_, "commit", 0,
                                ctx.sim_time());
    const std::string commit_file = commit_file_name(prefix);
    support::retry_io(
        [&] {
          storage_.create(commit_file).write_at(0, manifest_buf.bytes());
        },
        retry_policy("commit.write"));
    commit_span.end(ctx.sim_time());
  }
  return storage_.charges_time()
             ? storage_.single_write_seconds(
                   meta_buf.size() + manifest_buf.size(), load_, nullptr)
             : 0.0;
}

}  // namespace drms::core
