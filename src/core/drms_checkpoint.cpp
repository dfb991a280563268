#include "core/drms_checkpoint.hpp"

#include <algorithm>
#include <iterator>
#include <map>

#include "core/exchange.hpp"
#include "core/partial_restore.hpp"
#include "core/streamer.hpp"
#include "support/error.hpp"
#include "support/retry.hpp"

namespace drms::core {

namespace {

/// Disjoint half-open byte ranges of an array's element stream; touching
/// ranges merge as they are added.
class StreamCover {
 public:
  [[nodiscard]] bool covers(std::uint64_t begin, std::uint64_t end) const {
    const auto next = ranges_.upper_bound(begin);
    return next != ranges_.begin() && std::prev(next)->second >= end;
  }

  void add(std::uint64_t begin, std::uint64_t end) {
    auto it = ranges_.upper_bound(begin);
    if (it != ranges_.begin() && std::prev(it)->second >= begin) {
      --it;
      begin = it->first;
    }
    while (it != ranges_.end() && it->first <= end) {
      end = std::max(end, it->second);
      it = ranges_.erase(it);
    }
    ranges_.emplace(begin, end);
  }

 private:
  std::map<std::uint64_t, std::uint64_t> ranges_;  // begin -> end
};

/// One delta link of a chain replay: `array`'s delta file under `link`,
/// the stored-block records the replay applies from it, and the block
/// plan they index.
struct DeltaLink {
  store::FileHandle file;
  std::vector<DeltaBlockRecord> records;
  StreamPlan blocks;
};

DeltaLink open_delta_link(const store::StorageBackend& storage,
                          const std::string& link, const DistArray& array) {
  const std::string file_name = delta_array_file_name(link, array.name());
  DeltaLink d{storage.open(file_name), {}, {}};
  const DeltaFileHeader header = read_delta_header(d.file, file_name);
  d.records = read_delta_index(d.file, header, file_name);
  if (header.block_bytes < array.elem_size()) {
    throw support::CorruptCheckpoint(
        file_name + ": block target is smaller than one element");
  }
  d.blocks = make_stream_plan(array.global_box(), array.elem_size(), 1,
                              header.block_bytes);
  if (d.blocks.chunk_count() != header.total_blocks) {
    throw support::CorruptCheckpoint(
        file_name + ": block plan disagrees with the array's shape");
  }
  for (const DeltaBlockRecord& r : d.records) {
    const auto block = static_cast<std::size_t>(r.block_index);
    if (r.raw_bytes != static_cast<std::uint64_t>(
                           d.blocks.chunks[block].element_count()) *
                           array.elem_size()) {
      throw support::CorruptCheckpoint(
          file_name + ": delta record does not match the array's block plan");
    }
  }
  return d;
}

/// How a restore of `array` replays the generation under `prefix`. A full
/// generation is its own base, read whole. A delta generation takes each
/// stream byte from the newest chain link that holds it: walking the
/// links newest first, a record is kept only if no newer link holds its
/// whole byte range, and the base is needed only for bytes no delta
/// holds. Kept records still apply oldest first, so a record that newer
/// links cover in part lands before they overwrite that part, whatever
/// block target each link was written with. Every task plans for itself
/// from the same shared metadata, which keeps the collective apply
/// aligned; every link's header and index is read and checked. The
/// chain and its base meta come resolved once per restart.
struct ReplayPlan {
  std::string base;
  std::uint32_t base_crc = 0;
  /// The stream bytes some delta of the chain holds.
  StreamCover held;
  /// The chain's delta links, oldest first, each with its kept records.
  std::vector<DeltaLink> links;
};

ReplayPlan plan_replay(const store::StorageBackend& storage,
                       const CheckpointChain& chain, const DistArray& array) {
  const ArrayMeta& base_am = chain.base.array(array.name());
  DRMS_EXPECTS_MSG(base_am.box() == array.global_box() &&
                       base_am.elem_size == array.elem_size(),
                   "chain base array shape does not match declaration");
  ReplayPlan plan{chain.prefixes.front(), base_am.stream_crc, {}, {}};
  for (std::size_t g = 1; g < chain.prefixes.size(); ++g) {
    plan.links.push_back(open_delta_link(storage, chain.prefixes[g], array));
  }
  // A link's records hold disjoint blocks (the index is strictly
  // ascending), so adding each one as it is checked leaves the check
  // against newer links only.
  for (auto link = plan.links.rbegin(); link != plan.links.rend(); ++link) {
    std::vector<DeltaBlockRecord> kept;
    for (const DeltaBlockRecord& r : link->records) {
      const std::uint64_t begin =
          link->blocks.offsets[static_cast<std::size_t>(r.block_index)];
      if (!plan.held.covers(begin, begin + r.raw_bytes)) {
        kept.push_back(r);
      }
      plan.held.add(begin, begin + r.raw_bytes);
    }
    link->records = std::move(kept);
  }
  return plan;
}

}  // namespace

/// The generation one write() produces, decided collectively at the
/// entry barrier. Everything the write needs from the delta chain is
/// copied in here by value: task 0 advances the chain after the commit,
/// while the other tasks may still be inside write(), so the body never
/// reads the DeltaChainState again.
struct DrmsCheckpoint::GenerationPlan {
  /// Options and chain were passed: task 0 advances the chain on commit.
  bool chained = false;
  /// A delta on `base_prefix`, `chain_depth` generations past the base.
  bool delta = false;
  std::string base_prefix;
  std::int64_t chain_depth = 0;
  std::uint64_t block_bytes = 0;
  support::BlockCodec codec = support::BlockCodec::kRaw;
  /// Delta only, per array: its stream-order block plan and dirty blocks.
  std::vector<StreamPlan> blocks;
  std::vector<std::vector<std::uint64_t>> dirty;
};

DrmsCheckpoint::DrmsCheckpoint(store::StorageBackend& storage,
                               sim::LoadContext load, int io_tasks,
                               std::uint64_t target_chunk_bytes, bool jitter,
                               obs::Recorder* recorder)
    : storage_(storage),
      load_(load),
      io_tasks_(io_tasks),
      target_chunk_bytes_(target_chunk_bytes),
      jitter_(jitter),
      recorder_(recorder),
      session_(storage, load, recorder, "ckpt") {}

int DrmsCheckpoint::effective_io_tasks(const rt::TaskContext& ctx) const {
  if (io_tasks_ <= 0) {
    return ctx.size();
  }
  return std::min(io_tasks_, ctx.size());
}

/// Every task reads the same chain and manifest state here, so every task
/// takes the same branch. A delta rides on the live chain only while the
/// chain is short enough, still committed, and does not contain this
/// prefix — overwriting a chain member starts with a decommit, which
/// would pull the base out from under its dependents.
DrmsCheckpoint::GenerationPlan DrmsCheckpoint::plan_generation(
    const std::string& prefix, std::span<DistArray* const> arrays,
    const DeltaOptions* options, const DeltaChainState* chain) const {
  GenerationPlan plan;
  plan.chained = options != nullptr && chain != nullptr;
  if (!plan.chained) {
    return plan;
  }
  const std::vector<std::string>& links = chain->chain;
  plan.delta =
      !links.empty() &&
      static_cast<int>(links.size()) < std::max(options->full_every_k, 1) &&
      std::find(links.begin(), links.end(), prefix) == links.end() &&
      commit_manifest_exists(storage_, links.back());
  if (!plan.delta) {
    return plan;
  }
  plan.base_prefix = links.back();
  plan.chain_depth = static_cast<std::int64_t>(links.size());
  plan.block_bytes = options->block_bytes;
  plan.codec = options->codec;
  // Dirty-block collection reads every task's mutation log, so it happens
  // here, at the entry barrier, while the logs are quiescent.
  plan.blocks.reserve(arrays.size());
  plan.dirty.reserve(arrays.size());
  for (DistArray* const a : arrays) {
    plan.blocks.push_back(make_stream_plan(a->global_box(), a->elem_size(), 1,
                                           plan.block_bytes));
    plan.dirty.push_back(collect_dirty_blocks(*a, plan.blocks.back().chunks));
  }
  return plan;
}

CheckpointTiming DrmsCheckpoint::write(rt::TaskContext& ctx,
                                       const std::string& prefix,
                                       const std::string& app_name,
                                       std::int64_t sop,
                                       const ReplicatedStore& store,
                                       std::span<DistArray* const> arrays,
                                       const AppSegmentModel& segment_model,
                                       const DeltaOptions* delta,
                                       DeltaChainState* chain) {
  for (DistArray* const a : arrays) {
    DRMS_EXPECTS_MSG(a != nullptr && a->distributed(),
                     "every array must be distributed before checkpointing");
  }
  CheckpointTiming timing;
  ctx.barrier();
  const GenerationPlan plan = plan_generation(prefix, arrays, delta, chain);

  const double t0 = ctx.sim_time();
  obs::ScopedSpan op_span(
      recorder_, "ckpt", "write", ctx.rank(), t0,
      {obs::Attr::str("prefix", prefix),
       obs::Attr::num("arrays", static_cast<std::int64_t>(arrays.size())),
       obs::Attr::str("kind", plan.delta ? "delta" : "full")});

  // --- Phase 1: one representative task writes the shared data segment.
  support::ByteBuffer replicated;
  store.serialize(replicated);
  const std::uint64_t payload_end =
      wire::kSegmentHeaderBytes + replicated.size();
  // A delta generation's segment is compact: the padding components
  // (Table 4's local/private/system sections) are identical to the base's
  // and are not re-dumped — only the replicated payload moves.
  const std::uint64_t total_bytes =
      plan.delta ? payload_end : std::max(segment_model.total(), payload_end);

  obs::ScopedSpan segment_span(
      recorder_, "ckpt", "segment", ctx.rank(), t0,
      {obs::Attr::num("bytes", static_cast<std::int64_t>(total_bytes))});

  if (ctx.rank() == 0) {
    session_.decommit(ctx, prefix);
    const support::ByteBuffer header =
        encode_segment_header(SegmentHeader{replicated.size(), total_bytes});
    store::FileHandle seg = support::retry_io(
        [&] { return storage_.create(segment_file_name(prefix)); },
        session_.retry_policy("segment.create"));
    support::retry_io([&] { seg.write_at(0, header.bytes()); },
                      session_.retry_policy("segment.write"));
    support::retry_io(
        [&] { seg.write_at(wire::kSegmentHeaderBytes, replicated.bytes()); },
        session_.retry_policy("segment.write"));
    if (total_bytes > payload_end) {
      // The private/system/local-section components of the data segment:
      // logically written (time and size accounted), stored sparsely.
      support::retry_io(
          [&] { seg.write_zeros_at(payload_end, total_bytes - payload_end); },
          session_.retry_policy("segment.write"));
    }
  }
  if (storage_.charges_time()) {
    ctx.charge(storage_.single_write_seconds(
        total_bytes, load_, jitter_ ? &ctx.shared_rng() : nullptr));
  }
  ctx.barrier();
  timing.segment_seconds = ctx.sim_time() - t0;
  segment_span.end(ctx.sim_time());

  // --- Phase 2: stream every distributed array, in sequence.
  const double t1 = ctx.sim_time();
  if (ctx.rank() == 0) {
    for (DistArray* const a : arrays) {
      const std::string file_name =
          plan.delta ? delta_array_file_name(prefix, a->name())
                     : array_file_name(prefix, a->name());
      support::retry_io([&] { storage_.create(file_name); },
                        session_.retry_policy("array.create"));
    }
  }
  ctx.barrier();

  const ArrayStreamer streamer(&storage_, load_, target_chunk_bytes_,
                               jitter_, recorder_);
  const int writers = effective_io_tasks(ctx);
  CheckpointMeta meta;
  meta.app_name = app_name;
  meta.task_count = ctx.size();
  meta.sop = sop;
  meta.segment_bytes = total_bytes;
  CommitManifest manifest;
  manifest.entries.push_back(
      CommitEntry{segment_file_name(prefix), total_bytes, 0, false});
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    const DistArray& a = *arrays[i];
    ArrayMeta am;
    am.name = a.name();
    for (int k = 0; k < a.global_box().rank(); ++k) {
      am.lower.push_back(a.global_box().range(k).first());
      am.upper.push_back(a.global_box().range(k).last());
    }
    am.elem_size = a.elem_size();
    if (plan.delta) {
      write_delta_array(ctx, streamer, prefix, a, plan, i, writers, am);
      // Delta files carry their integrity inside (framed index + per-block
      // CRCs); the manifest records presence and size only.
      manifest.entries.push_back(CommitEntry{
          delta_array_file_name(prefix, am.name), am.stream_bytes, 0, false});
    } else {
      obs::ScopedSpan array_span(
          recorder_, "ckpt", "array", ctx.rank(), ctx.sim_time(),
          {obs::Attr::str("array", a.name()),
           obs::Attr::num("bytes",
                          static_cast<std::int64_t>(a.global_byte_count()))});
      store::FileHandle file = storage_.open(array_file_name(prefix, a.name()));
      am.stream_bytes = streamer.write_section(ctx, a, a.global_box(), file, 0,
                                               writers, &am.stream_crc);
      array_span.end(ctx.sim_time());
      manifest.entries.push_back(CommitEntry{array_file_name(prefix, am.name),
                                             am.stream_bytes, am.stream_crc,
                                             true});
    }
    meta.arrays.push_back(std::move(am));
  }
  if (plan.delta) {
    meta.kind = GenerationKind::kDelta;
    meta.base_prefix = plan.base_prefix;
    meta.chain_depth = plan.chain_depth;
    meta.delta_block_bytes = plan.block_bytes;
  }

  // --- Publication: meta record, then the commit manifest as the LAST
  // write.
  timing.commit_seconds = session_.publish(ctx, prefix, meta_file_name(prefix),
                                           meta, std::move(manifest));
  if (plan.chained && ctx.rank() == 0) {
    // The generation is durable: advance the chain and retire the
    // mutations it captured. Task 0 only, between barriers — every task
    // read the chain in plan_generation before the segment barrier, and
    // the other tasks touch neither the chain state nor the logs now.
    if (plan.delta) {
      chain->chain.push_back(prefix);
    } else {
      chain->chain.assign(1, prefix);
    }
    chain->last_kind =
        plan.delta ? GenerationKind::kDelta : GenerationKind::kFull;
    chain->last_raw_bytes = 0;
    chain->last_stored_bytes = 0;
    chain->last_dirty_blocks = 0;
    chain->last_total_blocks = 0;
    for (const auto& am : meta.arrays) {
      chain->last_raw_bytes += plan.delta ? am.raw_bytes : am.stream_bytes;
      chain->last_stored_bytes +=
          plan.delta ? am.stored_bytes : am.stream_bytes;
      chain->last_dirty_blocks += am.dirty_blocks;
      chain->last_total_blocks += am.total_blocks;
    }
    for (DistArray* const a : arrays) {
      a->clear_mutation_logs();
    }
  }
  ctx.barrier();
  timing.arrays_seconds = ctx.sim_time() - t1;
  op_span.end(ctx.sim_time());
  return timing;
}

void DrmsCheckpoint::write_delta_array(rt::TaskContext& ctx,
                                       const ArrayStreamer& streamer,
                                       const std::string& prefix,
                                       const DistArray& array,
                                       const GenerationPlan& plan,
                                       std::size_t index, int writers,
                                       ArrayMeta& am) {
  const StreamPlan& blocks = plan.blocks[index];
  const std::vector<std::uint64_t>& dirty = plan.dirty[index];
  obs::ScopedSpan array_span(
      recorder_, "ckpt", "array.delta", ctx.rank(), ctx.sim_time(),
      {obs::Attr::str("array", array.name()),
       obs::Attr::num("blocks", static_cast<std::int64_t>(dirty.size()))});
  const std::string file_name = delta_array_file_name(prefix, array.name());
  store::FileHandle file = storage_.open(file_name);
  const ArrayStreamer::DeltaWriteResult res = streamer.write_delta_blocks(
      ctx, array, blocks, dirty, file, writers, plan.codec);
  // Rank 0 publishes the framed index and then the header — the header
  // lands LAST, so a torn delta file has no valid header and the reader
  // rejects it outright.
  DeltaFileHeader h;
  h.block_bytes = plan.block_bytes;
  h.total_blocks = blocks.chunk_count();
  h.record_count = res.records.size();
  h.payload_bytes = res.stored_bytes;
  h.raw_bytes = res.raw_bytes;
  h.index_offset = wire::kDeltaHeaderBytes + res.stored_bytes;
  const support::ByteBuffer index_buf = encode_delta_index(res.records);
  const std::uint64_t tail_bytes = wire::kDeltaHeaderBytes + index_buf.size();
  am.stream_bytes = h.index_offset + index_buf.size();
  if (ctx.rank() == 0) {
    const support::ByteBuffer header = encode_delta_header(h);
    store::FileHandle f = support::retry_io(
        [&] { return storage_.open(file_name); },
        session_.retry_policy("delta.open"));
    support::retry_io([&] { f.write_at(h.index_offset, index_buf.bytes()); },
                      session_.retry_policy("delta.index"));
    support::retry_io([&] { f.write_at(0, header.bytes()); },
                      session_.retry_policy("delta.header"));
  }
  if (storage_.charges_time()) {
    ctx.charge(storage_.single_write_seconds(tail_bytes, load_, nullptr));
  }
  am.raw_bytes = res.raw_bytes;
  am.stored_bytes = res.stored_bytes;
  am.dirty_blocks = res.records.size();
  am.total_blocks = blocks.chunk_count();
  array_span.end(ctx.sim_time());
}

CheckpointMeta DrmsCheckpoint::restore_segment(
    rt::TaskContext& ctx, const std::string& prefix, ReplicatedStore& store,
    const AppSegmentModel& segment_model, RestartTiming& timing) {
  ctx.barrier();
  const double t0 = ctx.sim_time();
  obs::ScopedSpan op_span(recorder_, "restore", "segment", ctx.rank(), t0,
                          {obs::Attr::str("prefix", prefix)});

  // Application text load (the paper's residual "other" restart component).
  // This is machine cost, not storage cost, so it comes straight from the
  // backend's cost model.
  if (storage_.charges_time()) {
    ctx.charge(storage_.cost_model()->restart_init_seconds(
        segment_model.text_bytes, jitter_ ? &ctx.shared_rng() : nullptr));
  }
  ctx.barrier();
  const double t1 = ctx.sim_time();
  timing.init_seconds += t1 - t0;

  const CheckpointMeta meta = read_checkpoint_meta(storage_, prefix);

  // Every task loads the single shared segment file.
  const std::string seg_name = segment_file_name(prefix);
  const store::FileHandle seg = storage_.open(seg_name);
  const SegmentHeader h = read_segment_header(seg, seg_name);
  support::ByteBuffer payload = store::read_to_buffer(
      seg, wire::kSegmentHeaderBytes, h.replicated_size);
  store.deserialize(payload);

  if (storage_.charges_time()) {
    ctx.charge(storage_.shared_read_seconds(
        h.total_bytes, ctx.size(), load_,
        jitter_ ? &ctx.shared_rng() : nullptr));
  }
  ctx.barrier();
  timing.segment_seconds += ctx.sim_time() - t1;
  op_span.end(ctx.sim_time());
  return meta;
}

void DrmsCheckpoint::restore_array(rt::TaskContext& ctx,
                                   const CheckpointMeta& meta,
                                   const CheckpointChain& chain,
                                   DistArray& array, RestartTiming& timing) {
  DRMS_EXPECTS_MSG(array.distributed(),
                   "specify a distribution before loading an array");
  const ArrayMeta& am = meta.array(array.name());
  DRMS_EXPECTS_MSG(am.box() == array.global_box() &&
                       am.elem_size == array.elem_size(),
                   "checkpointed array shape does not match declaration");
  ctx.barrier();
  const double t0 = ctx.sim_time();
  obs::ScopedSpan op_span(
      recorder_, "restore", "array", ctx.rank(), t0,
      {obs::Attr::str("array", array.name()),
       obs::Attr::num("bytes", static_cast<std::int64_t>(
                                   array.global_byte_count()))});

  const ArrayStreamer streamer(&storage_, load_, target_chunk_bytes_,
                               jitter_, recorder_);
  const int readers = effective_io_tasks(ctx);
  // The base streams in whole, so its stream CRC is checked, unless the
  // chain's deltas hold every byte; then the kept delta blocks scatter
  // on top, oldest link first.
  const ReplayPlan plan = plan_replay(storage_, chain, array);
  if (!plan.held.covers(0, array.global_byte_count())) {
    const store::FileHandle base_file =
        storage_.open(array_file_name(plan.base, array.name()));
    std::uint32_t crc = 0;
    streamer.read_section(ctx, array, array.global_box(), base_file, 0,
                          readers, &crc);
    if (crc != plan.base_crc) {
      throw support::CorruptCheckpoint(
          "array file for '" + array.name() + "' of generation '" +
          plan.base + "' is corrupt or torn (stream CRC mismatch)");
    }
  }
  for (const DeltaLink& link : plan.links) {
    streamer.apply_delta_blocks(ctx, array, link.blocks, link.records,
                                link.file, readers);
  }
  ctx.barrier();
  timing.arrays_seconds += ctx.sim_time() - t0;
  op_span.end(ctx.sim_time());
}

std::uint64_t DrmsCheckpoint::restore_array_sections(
    rt::TaskContext& ctx, const CheckpointMeta& meta,
    const CheckpointChain& chain, DistArray& array,
    std::span<const Slice> sections, RestartTiming& timing) {
  DRMS_EXPECTS_MSG(array.distributed(),
                   "specify a distribution before loading an array");
  const ArrayMeta& am = meta.array(array.name());
  DRMS_EXPECTS_MSG(am.box() == array.global_box() &&
                       am.elem_size == array.elem_size(),
                   "checkpointed array shape does not match declaration");
  ctx.barrier();
  const double t0 = ctx.sim_time();

  // Decompose every requested section into stream-contiguous runs, then
  // split each run at the chunk target so several readers can share even
  // a single big run (the classic outermost-axis split yields exactly
  // one).
  const std::size_t elem = array.elem_size();
  std::vector<StreamRun> chunks;
  for (const Slice& s : sections) {
    if (s.empty()) {
      continue;
    }
    DRMS_EXPECTS_MSG(array.global_box().covers(s),
                     "restore_array_sections: section outside the array box");
    const Index max_elems =
        std::max<Index>(1, static_cast<Index>(target_chunk_bytes_ / elem));
    for (const StreamRun& run :
         stream_runs(array.global_box(), s, elem)) {
      std::uint64_t off = run.byte_offset;
      for (Slice& part : partition_for_stream(run.slice, 1, max_elems)) {
        StreamRun c;
        c.bytes = static_cast<std::uint64_t>(part.element_count()) * elem;
        c.byte_offset = off;
        off += c.bytes;
        c.slice = std::move(part);
        chunks.push_back(std::move(c));
      }
    }
  }
  std::uint64_t total_bytes = 0;
  for (const StreamRun& c : chunks) {
    total_bytes += c.bytes;
  }

  obs::ScopedSpan op_span(
      recorder_, "restore", "array_sections", ctx.rank(), t0,
      {obs::Attr::str("array", array.name()),
       obs::Attr::num("runs", static_cast<std::int64_t>(chunks.size())),
       obs::Attr::num("bytes", static_cast<std::int64_t>(total_bytes))});
  if (chunks.empty()) {
    ctx.barrier();
    op_span.end(ctx.sim_time());
    return 0;
  }

  // The base's runs are read unless the chain's deltas hold all of a
  // run's bytes; from here on total_bytes counts the bytes read.
  const ReplayPlan plan = plan_replay(storage_, chain, array);
  std::erase_if(chunks, [&](const StreamRun& c) {
    return plan.held.covers(c.byte_offset, c.byte_offset + c.bytes);
  });
  total_bytes = 0;
  for (const StreamRun& c : chunks) {
    total_bytes += c.bytes;
  }
  const std::string base_name = array_file_name(plan.base, array.name());
  const store::FileHandle base_file =
      chunks.empty() ? store::FileHandle() : storage_.open(base_name);
  const std::vector<Slice> dst_mapped = array.distribution().mapped_slices();
  const int readers = effective_io_tasks(ctx);
  const int me = ctx.rank();
  const int d = array.global_box().rank();

  // Round-robin the runs over `readers` ranks, one exchange round per
  // group: each active reader pulls its run's raw bytes, and one
  // collective scatters all of the round's runs into the new
  // distribution's mapped slices at once.
  for (std::size_t r0 = 0; r0 < chunks.size();
       r0 += static_cast<std::size_t>(readers)) {
    const int active = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(readers), chunks.size() - r0));
    std::vector<Slice> src(static_cast<std::size_t>(ctx.size()),
                           Slice::empty_of_rank(d));
    for (int q = 0; q < active; ++q) {
      const StreamRun& run = chunks[r0 + static_cast<std::size_t>(q)];
      src[static_cast<std::size_t>(q)] = run.slice;
    }
    LocalArray staging;
    if (me < active) {
      const StreamRun& run = chunks[r0 + static_cast<std::size_t>(me)];
      // A run is a consecutive span of the box's element stream, and the
      // stream visits the run's own index space in its column-major
      // order, so the raw file bytes land in the staging array as-is.
      staging = LocalArray(run.slice, elem);
      support::retry_io(
          [&] { base_file.read_at_into(run.byte_offset, staging.bytes()); },
          session_.retry_policy("partial-restore read"));
    }
    exchange_sections(ctx, src, me < active ? &staging : nullptr, dst_mapped,
                      &array.local(me), elem, recorder_);
  }
  // One scatter-gather read phase per array: the runs are disjoint spans
  // of one file pulled by `readers` parallel clients, so the modeled cost
  // is bytes-proportional with a single per-phase latency — NOT a
  // latency charge per run, which would make a small partial restore of
  // many short runs cost more than one big sequential stream and break
  // the failed-fraction scaling the partial path exists for. (So far
  // total_bytes counts the base runs only.)
  if (!chunks.empty() && storage_.charges_time()) {
    const int width = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(readers),
                              chunks.size()));
    ctx.charge(storage_.stream_read_round_seconds(
        total_bytes, width, load_, jitter_ ? &ctx.shared_rng() : nullptr));
  }

  // The kept delta blocks that touch the sections, oldest link first.
  // A block that reaches past the sections lands there too; partial
  // restore adopts the survivors' sections afterwards, which overwrites
  // every byte outside the lost ones. Per-block CRCs verify inside
  // apply_delta_blocks.
  const ArrayStreamer streamer(&storage_, load_, target_chunk_bytes_,
                               jitter_, recorder_);
  for (const DeltaLink& link : plan.links) {
    std::vector<DeltaBlockRecord> touching;
    for (const DeltaBlockRecord& rec : link.records) {
      const Slice& block =
          link.blocks.chunks[static_cast<std::size_t>(rec.block_index)];
      for (const Slice& s : sections) {
        if (!block.intersect(s).empty()) {
          touching.push_back(rec);
          total_bytes += rec.stored_bytes;
          break;
        }
      }
    }
    streamer.apply_delta_blocks(ctx, array, link.blocks, touching, link.file,
                                readers);
  }

  ctx.barrier();
  timing.arrays_seconds += ctx.sim_time() - t0;
  op_span.end(ctx.sim_time());
  return total_bytes;
}

}  // namespace drms::core
