#include "core/spmd_checkpoint.hpp"

#include <algorithm>

#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/retry.hpp"

namespace drms::core {

SpmdCheckpoint::SpmdCheckpoint(store::StorageBackend& storage,
                               sim::LoadContext load, bool jitter,
                               obs::Recorder* recorder)
    : storage_(storage),
      load_(load),
      jitter_(jitter),
      recorder_(recorder),
      session_(storage, load, recorder, "spmd") {}

CheckpointTiming SpmdCheckpoint::write(rt::TaskContext& ctx,
                                       const std::string& prefix,
                                       const std::string& app_name,
                                       std::int64_t sop,
                                       const ReplicatedStore& store,
                                       std::span<DistArray* const> arrays,
                                       const AppSegmentModel& segment_model) {
  for (DistArray* const a : arrays) {
    DRMS_EXPECTS_MSG(a != nullptr && a->distributed(),
                     "every array must be distributed before checkpointing");
  }
  CheckpointTiming timing;
  ctx.barrier();
  const double t0 = ctx.sim_time();
  obs::ScopedSpan op_span(
      recorder_, "spmd", "write", ctx.rank(), t0,
      {obs::Attr::str("prefix", prefix),
       obs::Attr::num("arrays", static_cast<std::int64_t>(arrays.size()))});

  // Decommit before anyone overwrites a file under this prefix, and hold
  // the other tasks back until the old manifest is gone. The barrier is
  // timing-neutral: no simulated time is charged before it, so every
  // task's clock is still t0.
  if (ctx.rank() == 0) {
    session_.decommit(ctx, prefix);
  }
  ctx.barrier();

  // Serialize this task's full segment: replicated payload, then the real
  // bytes of every local array section, then padding to the static size.
  support::ByteBuffer body;
  body.put_u32(wire::kSpmdSegmentMagic);
  body.put_u32(wire::kSpmdSegmentVersion);
  body.put_i64(ctx.rank());
  store.serialize(body);
  body.put_u64(arrays.size());
  for (DistArray* const a : arrays) {
    body.put_string(a->name());
    const LocalArray& local = a->local(ctx.rank());
    body.put_u64(local.byte_size());
    body.append(local.bytes());
  }
  const std::uint32_t crc = support::crc32c(body.bytes());

  const std::uint64_t payload_end = 8 + 4 + body.size();  // size+crc prefix
  const std::uint64_t total_bytes =
      std::max(segment_model.total(), payload_end);

  obs::ScopedSpan segment_span(
      recorder_, "spmd", "segment", ctx.rank(), ctx.sim_time(),
      {obs::Attr::num("bytes", static_cast<std::int64_t>(total_bytes))});
  const std::string task_file_name = spmd_task_file_name(prefix, ctx.rank());
  support::ByteBuffer head;
  head.put_u64(body.size());
  head.put_u32(crc);
  store::FileHandle file = support::retry_io(
      [&] { return storage_.create(task_file_name); },
      session_.retry_policy("segment.create"));
  support::retry_io([&] { file.write_at(0, head.bytes()); },
                    session_.retry_policy("segment.write"));
  support::retry_io([&] { file.write_at(head.size(), body.bytes()); },
                    session_.retry_policy("segment.write"));
  if (total_bytes > payload_end) {
    support::retry_io(
        [&] { file.write_zeros_at(payload_end, total_bytes - payload_end); },
        session_.retry_policy("segment.write"));
  }
  segment_span.end(ctx.sim_time());

  // Every task file must be durable before task 0 publishes the state;
  // timing-neutral (no charges since the previous barrier).
  ctx.barrier();

  CheckpointMeta meta;
  meta.app_name = app_name;
  meta.task_count = ctx.size();
  meta.sop = sop;
  meta.segment_bytes = total_bytes;
  CommitManifest manifest;
  manifest.spmd = true;
  for (int r = 0; r < ctx.size(); ++r) {
    // Actual on-volume size: a task whose payload exceeds the static
    // segment model writes a larger file than total_bytes says.
    const std::string task_file = spmd_task_file_name(prefix, r);
    manifest.entries.push_back(
        CommitEntry{task_file, storage_.file_size(task_file), 0, false});
  }
  timing.commit_seconds = session_.publish(
      ctx, prefix, spmd_meta_file_name(prefix), meta, std::move(manifest));

  if (storage_.charges_time()) {
    ctx.charge(storage_.concurrent_write_seconds(
        total_bytes, ctx.size(), load_,
        jitter_ ? &ctx.shared_rng() : nullptr));
  }
  ctx.barrier();
  timing.segment_seconds = ctx.sim_time() - t0;
  op_span.end(ctx.sim_time());
  return timing;
}

CheckpointMeta SpmdCheckpoint::restore_begin(
    rt::TaskContext& ctx, const std::string& prefix, ReplicatedStore& store,
    const AppSegmentModel& segment_model, RestartTiming& timing,
    SpmdRestoreCursor& cursor) {
  ctx.barrier();
  const double t0 = ctx.sim_time();
  obs::ScopedSpan op_span(recorder_, "spmd", "restore", ctx.rank(), t0,
                          {obs::Attr::str("prefix", prefix)});
  if (storage_.charges_time()) {
    ctx.charge(storage_.cost_model()->restart_init_seconds(
        segment_model.text_bytes, jitter_ ? &ctx.shared_rng() : nullptr));
  }
  ctx.barrier();
  const double t1 = ctx.sim_time();
  timing.init_seconds += t1 - t0;

  const CheckpointMeta meta = read_spmd_meta(storage_, prefix);
  if (meta.task_count != ctx.size()) {
    throw support::Error(
        "SPMD checkpoint was taken with " +
        std::to_string(meta.task_count) + " tasks; restart with " +
        std::to_string(ctx.size()) +
        " is impossible without the DRMS programming model");
  }

  const std::string name = spmd_task_file_name(prefix, ctx.rank());
  const store::FileHandle file = storage_.open(name);
  support::ByteBuffer body = read_spmd_task_segment(file, ctx.rank(), name);
  store.deserialize(body);
  cursor.arrays_remaining = body.get_u64();
  cursor.body = std::move(body);

  if (storage_.charges_time()) {
    ctx.charge(storage_.private_read_seconds(
        std::max(segment_model.total(), file.size()), ctx.size(), load_,
        jitter_ ? &ctx.shared_rng() : nullptr));
  }
  ctx.barrier();
  timing.segment_seconds += ctx.sim_time() - t1;
  op_span.end(ctx.sim_time());
  return meta;
}

void SpmdCheckpoint::restore_array_from(SpmdRestoreCursor& cursor,
                                        DistArray& array, int rank) const {
  DRMS_EXPECTS_MSG(array.distributed(),
                   "arrays must be distributed before an SPMD restore");
  if (cursor.arrays_remaining == 0) {
    throw support::CorruptCheckpoint(
        "SPMD task segment: more arrays requested than checkpointed");
  }
  auto& body = cursor.body;
  const std::string name = body.get_string();
  if (name != array.name()) {
    throw support::CorruptCheckpoint(
        "SPMD task segment: array order mismatch: expected '" +
        array.name() + "', found '" + name + "'");
  }
  const std::uint64_t bytes = body.get_u64();
  LocalArray& local = array.local(rank);
  if (bytes != local.byte_size()) {
    throw support::CorruptCheckpoint(
        "SPMD task segment: local section size mismatch for array '" +
        name + "' (distribution differs from checkpoint time)");
  }
  body.read_raw(local.bytes().data(), static_cast<std::size_t>(bytes));
  --cursor.arrays_remaining;
}

CheckpointMeta SpmdCheckpoint::restore(rt::TaskContext& ctx,
                                       const std::string& prefix,
                                       ReplicatedStore& store,
                                       std::span<DistArray* const> arrays,
                                       const AppSegmentModel& segment_model,
                                       RestartTiming& timing) {
  SpmdRestoreCursor cursor;
  const CheckpointMeta meta =
      restore_begin(ctx, prefix, store, segment_model, timing, cursor);
  if (cursor.arrays_remaining != arrays.size()) {
    throw support::CorruptCheckpoint(
        "SPMD task segment: array count mismatch");
  }
  for (DistArray* const a : arrays) {
    DRMS_EXPECTS(a != nullptr);
    restore_array_from(cursor, *a, ctx.rank());
  }
  return meta;
}

}  // namespace drms::core
