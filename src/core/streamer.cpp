#include "core/streamer.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <optional>
#include <utility>

#include "core/exchange.hpp"
#include "rt/collectives.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/retry.hpp"

namespace drms::core {

namespace {

/// Combine per-chunk CRCs (held by whichever task streamed each chunk)
/// into the CRC-32C of the WHOLE byte stream via crc32c_combine — the
/// result is independent of the chunking, so a checkpoint written with
/// t1 I/O tasks verifies against a restore read with t2. Identical on
/// every task.
std::uint32_t combine_chunk_crcs(
    rt::TaskContext& ctx,
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& mine,
    const StreamPlan& plan, std::size_t elem_size) {
  const std::size_t total_chunks = plan.chunk_count();
  support::ByteBuffer contribution;
  contribution.reserve(8 + mine.size() * 12);  // u64 count + (u64, u32) each
  contribution.put_u64(mine.size());
  for (const auto& [index, crc] : mine) {
    contribution.put_u64(index);
    contribution.put_u32(crc);
  }
  const auto all = rt::all_gather(ctx, std::move(contribution));

  std::vector<std::uint32_t> by_chunk(total_chunks, 0);
  std::vector<bool> seen(total_chunks, false);
  for (auto buf : all) {
    const std::uint64_t n = buf.get_u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t index = buf.get_u64();
      const std::uint32_t crc = buf.get_u32();
      DRMS_ENSURES(index < total_chunks && !seen[index]);
      by_chunk[index] = crc;
      seen[index] = true;
    }
  }
  DRMS_ENSURES(std::all_of(seen.begin(), seen.end(),
                           [](bool b) { return b; }));
  std::uint32_t combined = 0;  // CRC-32C of the empty stream
  for (std::size_t c = 0; c < total_chunks; ++c) {
    const std::uint64_t len =
        static_cast<std::uint64_t>(plan.chunks[c].element_count()) *
        elem_size;
    combined = support::crc32c_combine(combined, by_chunk[c], len);
  }
  return combined;
}

/// One task's view of one round of the pipeline.
struct Round {
  std::size_t index = 0;
  std::size_t first = 0;  // the round's first item
  std::size_t count = 0;  // its items, one per I/O task: the round's width
  std::size_t slot = 0;   // staging slot, index % 2
  std::optional<std::size_t> item;  // the item this task carries, if any
  std::uint64_t raw_bytes = 0;      // section bytes of the round's items
};

/// Per-chunk CRCs of one section stream. A lane job folds its chunk's CRC
/// into the staging slot's entry; landing records it in chunk order.
struct ChunkCrcs {
  bool wanted = false;
  std::array<std::uint32_t, 2> slot{};
  std::vector<std::pair<std::uint64_t, std::uint32_t>> mine;

  void land(const Round& round) {
    if (wanted && round.item) {
      mine.emplace_back(*round.item, slot[round.slot]);
    }
  }
};

std::function<const Slice&(std::size_t)> chunks_of(const StreamPlan& plan) {
  return [&plan](std::size_t i) -> const Slice& { return plan.chunks[i]; };
}

}  // namespace

/// What one stream supplies to run_rounds.
struct ArrayStreamer::Stages {
  const char* category;  // span category: "stream" or "delta"
  std::size_t items;     // stream-order items: chunks or blocks
  /// Section of item i (the canonical distribution puts it whole in the
  /// task that carries it).
  std::function<const Slice&(std::size_t)> slice_of;
  /// I/O stage, run on the task's I/O lane against the carried item's
  /// staging. Empty when the landing step does the I/O itself.
  std::function<void(const Round&, LocalArray&)> work;
  /// Runs on every task, in round order, after the round's job has
  /// finished; returns the bytes the round is charged for.
  std::function<std::uint64_t(const Round&, const LocalArray&)> land;
};

StreamPlan make_stream_plan(const Slice& section, std::size_t elem_size,
                            int io_tasks,
                            std::uint64_t target_chunk_bytes) {
  DRMS_EXPECTS(io_tasks >= 1);
  DRMS_EXPECTS(elem_size > 0);
  DRMS_EXPECTS(target_chunk_bytes >= elem_size);

  StreamPlan plan;
  if (section.empty()) {
    return plan;
  }
  const Index max_elements =
      std::max<Index>(1, static_cast<Index>(target_chunk_bytes / elem_size));
  plan.chunks = partition_for_stream(section, io_tasks, max_elements);
  plan.offsets.reserve(plan.chunks.size());
  std::uint64_t offset = 0;
  for (const auto& chunk : plan.chunks) {
    plan.offsets.push_back(offset);
    offset += static_cast<std::uint64_t>(chunk.element_count()) * elem_size;
  }
  plan.total_bytes = offset;
  return plan;
}

void ArrayStreamer::run_rounds(rt::TaskContext& ctx, const DistArray& array,
                               LocalArray* into, int io_tasks,
                               const Stages& stages) const {
  DRMS_EXPECTS_MSG(io_tasks >= 1 && io_tasks <= ctx.size(),
                   "io_tasks must be within the task group size");
  const bool reading = into != nullptr;
  const std::size_t elem = array.elem_size();
  const int me = ctx.rank();
  const auto width = static_cast<std::size_t>(io_tasks);
  const std::size_t rounds = (stages.items + width - 1) / width;
  // The array's side of every exchange: where its elements live.
  const std::vector<Slice> spread =
      reading ? array.distribution().mapped_slices()
              : array.distribution().assigned_slices();
  const Slice empty = Slice::empty_of_rank(array.global_box().rank());
  const bool timed = storage_ != nullptr && storage_->charges_time();
  // One jitter draw per call: round-level noise would average out over
  // the dozens of rounds and understate the paper's run-to-run spread.
  const double jitter =
      jitter_ && timed
          ? ctx.shared_rng().jitter(storage_->cost_model()->jitter_sigma)
          : 1.0;

  // Two staging slots alternate. A slot is either exchanging (task
  // thread) or in flight (the task's I/O lane), never both, and is staged
  // again only after its round has landed.
  struct Slot {
    LocalArray staging;
    // Declared after staging: an unwind waits for the job first.
    rt::TaskContext::LaneTicket inflight;
    // Opened at launch and closed at the landing, both on the task
    // thread, so the recorded overlap (round r+1's exchange opening before
    // round r's in-flight span closes) is program order and deterministic.
    std::size_t span = obs::kNoSpan;
  };
  std::array<Slot, 2> slots;
  // Every staged byte is overwritten before it is read when the job
  // lands the whole item (a read) or the exchange gathers every element
  // (a write of a fully assigned array). A partially assigned array's
  // unassigned elements stream as zeros.
  const auto init = reading || array.distribution().fully_assigned()
                        ? support::PageBuffer::Init::kUninitialized
                        : support::PageBuffer::Init::kZeroed;

  const auto round_of = [&](std::size_t r) {
    Round round;
    round.index = r;
    round.first = r * width;
    round.count = std::min(width, stages.items - round.first);
    round.slot = r % 2;
    if (static_cast<std::size_t>(me) < round.count) {
      round.item = round.first + static_cast<std::size_t>(me);
    }
    for (std::size_t i = round.first; i < round.first + round.count; ++i) {
      round.raw_bytes +=
          static_cast<std::uint64_t>(stages.slice_of(i).element_count()) *
          elem;
    }
    return round;
  };
  const auto stage = [&](const Round& round) {
    slots[round.slot].staging =
        round.item ? LocalArray(stages.slice_of(*round.item), elem, init)
                   : LocalArray();
  };
  const auto launch = [&](const Round& round) {
    if (!round.item || !stages.work) {
      return;
    }
    Slot& slot = slots[round.slot];
    if (recorder_ != nullptr) {
      slot.span = recorder_->begin_span(
          stages.category, reading ? "read_inflight" : "write_inflight", me,
          ctx.sim_time(),
          {obs::Attr::num("round", static_cast<std::int64_t>(round.index)),
           obs::Attr::num("chunk", static_cast<std::int64_t>(*round.item)),
           obs::Attr::num("bytes", static_cast<std::int64_t>(
                                       slot.staging.byte_size()))});
    }
    slot.inflight = ctx.submit(
        [&work = stages.work, round, &staging = slot.staging] {
          work(round, staging);
        });
  };
  // Redistribute the round between the array and the canonical
  // distribution, where task q holds the round's item q.
  const auto exchange = [&](const Round& round) {
    std::vector<Slice> canonical(static_cast<std::size_t>(ctx.size()), empty);
    for (std::size_t q = 0; q < round.count; ++q) {
      canonical[q] = stages.slice_of(round.first + q);
    }
    LocalArray* const slot =
        round.item ? &slots[round.slot].staging : nullptr;
    obs::ScopedSpan span(
        recorder_, stages.category, "exchange", me, ctx.sim_time(),
        {obs::Attr::num("round", static_cast<std::int64_t>(round.index)),
         obs::Attr::str("dir", reading ? "read" : "write"),
         obs::Attr::num("bytes",
                        static_cast<std::int64_t>(round.raw_bytes))});
    if (reading) {
      exchange_sections(ctx, canonical, slot, spread,
                        into->element_count() > 0 ? into : nullptr, elem,
                        recorder_);
    } else {
      exchange_sections(ctx, spread, &array.local(me), canonical, slot, elem,
                        recorder_);
    }
    span.end(ctx.sim_time());
  };
  // Wait for the round's job, rethrowing its error (a torn write,
  // exhausted retries, a corrupt block), then run the landing step.
  const auto land = [&](const Round& round) {
    Slot& slot = slots[round.slot];
    if (slot.inflight.pending()) {
      slot.inflight.wait();
      if (recorder_ != nullptr) {
        recorder_->end_span(slot.span, ctx.sim_time());
      }
    }
    return stages.land(round, slot.staging);
  };
  const auto charge = [&](const Round& round, std::uint64_t bytes) {
    if (timed) {
      const int w = static_cast<int>(round.count);
      ctx.charge(jitter *
                 (reading ? storage_->stream_read_round_seconds(
                                bytes, w, load_, nullptr)
                          : storage_->stream_write_round_seconds(
                                bytes, w, load_, nullptr)));
    }
  };

  if (reading) {
    // Land round r, then stage and launch r+1 so its read overlaps r's
    // scatter, then scatter r, charge, barrier.
    if (rounds > 0) {
      const Round first = round_of(0);
      stage(first);
      launch(first);
    }
    for (std::size_t r = 0; r < rounds; ++r) {
      const Round round = round_of(r);
      const std::uint64_t bytes = land(round);
      if (r + 1 < rounds) {
        const Round next = round_of(r + 1);
        stage(next);
        launch(next);
      }
      exchange(round);
      charge(round, bytes);
      ctx.barrier();
    }
    return;
  }
  // Gather round r into its slot and launch its job, then land r-1,
  // whose job ran during r's exchange, charge it, barrier. The last
  // barrier follows the last landing: every task's writes have landed
  // when run_rounds returns, so a caller (e.g. the commit protocol) may
  // write its "data is complete" record.
  for (std::size_t r = 0; r <= rounds; ++r) {
    if (r < rounds) {
      const Round round = round_of(r);
      stage(round);
      exchange(round);
      launch(round);
    }
    if (r > 0) {
      const Round prev = round_of(r - 1);
      charge(prev, land(prev));
    }
    ctx.barrier();
  }
}

std::uint64_t ArrayStreamer::write_section(rt::TaskContext& ctx,
                                           const DistArray& array,
                                           const Slice& x,
                                           store::FileHandle file,
                                           std::uint64_t file_offset,
                                           int io_tasks,
                                           std::uint32_t* stream_crc) const {
  DRMS_EXPECTS_MSG(array.global_box().covers(x),
                   "section must lie within the array index space");
  const std::size_t elem = array.elem_size();
  const StreamPlan plan = make_stream_plan(x, elem, io_tasks,
                                           target_chunk_bytes_);
  const int me = ctx.rank();
  obs::Recorder* const rec = recorder_;
  ChunkCrcs crcs;
  crcs.wanted = stream_crc != nullptr;
  const Stages stages{
      "stream", plan.chunk_count(), chunks_of(plan),
      // The staging local is column-major over the chunk, so already in
      // stream order: checksum it while cache-hot, then one write_at.
      [&](const Round& round, LocalArray& staging) {
        const auto bytes = std::as_const(staging).bytes();
        {
          obs::ScopedSpan crc_span(rec, "stream.worker", "crc", me, -1.0);
          crcs.slot[round.slot] = crcs.wanted ? support::crc32c(bytes) : 0;
        }
        obs::ScopedSpan write_span(rec, "stream.worker", "write", me, -1.0);
        support::RetryPolicy policy;
        policy.observer = rec;
        policy.what = "stream.write";
        support::retry_io(
            [&] {
              file.write_at(file_offset + plan.offsets[*round.item], bytes);
            },
            policy);
      },
      [&](const Round& round, const LocalArray&) {
        crcs.land(round);
        return round.raw_bytes;
      }};
  run_rounds(ctx, array, nullptr, io_tasks, stages);
  if (stream_crc != nullptr) {
    *stream_crc = combine_chunk_crcs(ctx, crcs.mine, plan, elem);
  }
  return plan.total_bytes;
}

std::uint64_t ArrayStreamer::read_section(rt::TaskContext& ctx,
                                          DistArray& array, const Slice& x,
                                          store::FileHandle file,
                                          std::uint64_t file_offset,
                                          int io_tasks,
                                          std::uint32_t* stream_crc) const {
  DRMS_EXPECTS_MSG(array.global_box().covers(x),
                   "section must lie within the array index space");
  const std::size_t elem = array.elem_size();
  const StreamPlan plan = make_stream_plan(x, elem, io_tasks,
                                           target_chunk_bytes_);
  const int me = ctx.rank();
  obs::Recorder* const rec = recorder_;
  ChunkCrcs crcs;
  crcs.wanted = stream_crc != nullptr;
  const Stages stages{
      "stream", plan.chunk_count(), chunks_of(plan),
      // Land the bytes straight in staging (no intermediate vector) and
      // checksum them while cache-hot.
      [&](const Round& round, LocalArray& staging) {
        {
          obs::ScopedSpan read_span(rec, "stream.worker", "read", me, -1.0);
          file.read_at_into(file_offset + plan.offsets[*round.item],
                            staging.bytes());
        }
        obs::ScopedSpan crc_span(rec, "stream.worker", "crc", me, -1.0);
        crcs.slot[round.slot] =
            crcs.wanted ? support::crc32c(std::as_const(staging).bytes()) : 0;
      },
      [&](const Round& round, const LocalArray&) {
        crcs.land(round);
        return round.raw_bytes;
      }};
  run_rounds(ctx, array, &array.local(me), io_tasks, stages);
  if (stream_crc != nullptr) {
    *stream_crc = combine_chunk_crcs(ctx, crcs.mine, plan, elem);
  }
  return plan.total_bytes;
}

ArrayStreamer::DeltaWriteResult ArrayStreamer::write_delta_blocks(
    rt::TaskContext& ctx, const DistArray& array, const StreamPlan& blocks,
    const std::vector<std::uint64_t>& dirty, store::FileHandle file,
    int io_tasks, support::BlockCodec codec) const {
  const int me = ctx.rank();
  obs::Recorder* const rec = recorder_;
  DeltaWriteResult result;

  /// Codec-stage output of one staging slot. An encoded block lands in
  /// the slot's `encoded` buffer, which keeps its capacity across rounds;
  /// a block the codec cannot shrink is stored from staging as it is.
  struct Compressed {
    std::uint32_t raw_crc = 0;
    std::uint32_t stored_crc = 0;
    support::BlockCodec used = support::BlockCodec::kRaw;
    std::span<const std::byte> stored;
  };
  std::array<Compressed, 2> compressed{};
  std::array<support::ByteBuffer, 2> encoded;
  std::uint64_t payload_cursor = 0;

  const Stages stages{
      "delta", dirty.size(),
      [&](std::size_t i) -> const Slice& {
        return blocks.chunks[static_cast<std::size_t>(dirty[i])];
      },
      [&](const Round& round, LocalArray& staging) {
        const auto raw = std::as_const(staging).bytes();
        Compressed& out = compressed[round.slot];
        {
          obs::ScopedSpan crc_span(rec, "delta.worker", "crc", me, -1.0);
          out.raw_crc = support::crc32c(raw);
        }
        obs::ScopedSpan encode_span(rec, "delta.worker", "encode", me, -1.0);
        support::ByteBuffer& enc = encoded[round.slot];
        enc.resize_uninitialized(raw.size());
        const std::size_t size = support::block_compress(
            codec, raw, std::span<std::byte>(enc.data(), raw.size()));
        if (size == 0) {
          // Stored raw: the stored bytes are the raw bytes, CRC included.
          out.used = support::BlockCodec::kRaw;
          out.stored = raw;
          out.stored_crc = out.raw_crc;
          return;
        }
        out.used = codec;
        out.stored = std::span<const std::byte>(enc.data(), size);
        out.stored_crc = support::crc32c(out.stored);
      },
      // Compressed sizes are data-dependent, so payload offsets cannot be
      // precomputed: agree on the round's stored sizes (an all_gather in
      // rank order == block order), record the index entries, then write
      // this task's payload.
      [&](const Round& round, const LocalArray& staging) -> std::uint64_t {
        const Compressed& mine = compressed[round.slot];
        support::ByteBuffer contribution;
        contribution.put_bool(round.item.has_value());
        if (round.item) {
          contribution.put_u64(staging.byte_size());
          contribution.put_u64(mine.stored.size());
          contribution.put_u32(static_cast<std::uint32_t>(mine.used));
          contribution.put_u32(mine.raw_crc);
          contribution.put_u32(mine.stored_crc);
        }
        auto all = rt::all_gather(ctx, std::move(contribution));
        std::uint64_t my_offset = 0;
        std::uint64_t round_stored = 0;
        for (std::size_t q = 0; q < all.size(); ++q) {
          auto& buf = all[q];
          if (!buf.get_bool()) {
            continue;
          }
          DeltaBlockRecord r;
          r.block_index = dirty[round.first + q];
          r.raw_bytes = buf.get_u64();
          r.stored_bytes = buf.get_u64();
          r.codec = static_cast<support::BlockCodec>(buf.get_u32());
          r.raw_crc = buf.get_u32();
          r.stored_crc = buf.get_u32();
          r.payload_offset = payload_cursor;
          if (q == static_cast<std::size_t>(me)) {
            my_offset = payload_cursor;
          }
          payload_cursor += r.stored_bytes;
          round_stored += r.stored_bytes;
          result.raw_bytes += r.raw_bytes;
          result.stored_bytes += r.stored_bytes;
          result.records.push_back(r);
        }
        if (round.item) {
          obs::ScopedSpan write_span(rec, "delta.worker", "write", me, -1.0);
          support::RetryPolicy policy;
          policy.observer = rec;
          policy.what = "delta.write";
          support::retry_io(
              [&] {
                file.write_at(wire::kDeltaHeaderBytes + my_offset,
                              mine.stored);
              },
              policy);
        }
        return round_stored;
      }};
  run_rounds(ctx, array, nullptr, io_tasks, stages);
  return result;
}

void ArrayStreamer::apply_delta_blocks(
    rt::TaskContext& ctx, DistArray& array, const StreamPlan& blocks,
    const std::vector<DeltaBlockRecord>& records, store::FileHandle file,
    int io_tasks) const {
  // The reader checked each record against the plan (restore's
  // open_delta_link); load_delta_block checks its raw size again.
  for (const auto& rec : records) {
    DRMS_EXPECTS(rec.block_index < blocks.chunks.size());
  }
  const int me = ctx.rank();
  std::array<support::ByteBuffer, 2> reads;  // encoded blocks, per slot
  const Stages stages{
      "delta", records.size(),
      [&](std::size_t i) -> const Slice& {
        return blocks
            .chunks[static_cast<std::size_t>(records[i].block_index)];
      },
      // Load the block (read, verify, decode) into staging: the decode
      // overlaps the previous round's scatter.
      [&](const Round& round, LocalArray& staging) {
        load_delta_block(file, records[*round.item], staging.bytes(),
                         reads[round.slot], recorder_, me);
      },
      [&](const Round& round, const LocalArray&) {
        std::uint64_t stored = 0;
        for (std::size_t i = round.first; i < round.first + round.count; ++i) {
          stored += records[i].stored_bytes;
        }
        return stored;
      }};
  run_rounds(ctx, array, &array.local(me), io_tasks, stages);
}

std::uint64_t ArrayStreamer::write_section_sequential(
    rt::TaskContext& ctx, const DistArray& array, const Slice& x,
    SequentialSink& sink) const {
  DRMS_EXPECTS_MSG(array.global_box().covers(x),
                   "section must lie within the array index space");
  const StreamPlan plan = make_stream_plan(x, array.elem_size(), 1,
                                           target_chunk_bytes_);
  // No lane job: task 0 appends in the landing step, on its own thread and
  // in round order, so the channel sees the stream with no seek.
  const Stages stages{
      "stream", plan.chunk_count(), chunks_of(plan), {},
      [&](const Round& round, const LocalArray& staging) {
        if (round.item) {
          sink.write(staging.bytes());
        }
        return round.raw_bytes;
      }};
  run_rounds(ctx, array, nullptr, 1, stages);
  return plan.total_bytes;
}

std::uint64_t ArrayStreamer::read_section_sequential(
    rt::TaskContext& ctx, DistArray& array, const Slice& x,
    SequentialSource& source) const {
  DRMS_EXPECTS_MSG(array.global_box().covers(x),
                   "section must lie within the array index space");
  const StreamPlan plan = make_stream_plan(x, array.elem_size(), 1,
                                           target_chunk_bytes_);
  // Task 0's lane consumes the channel, one job at a time and in round
  // order, so the reads stay in stream order.
  const Stages stages{
      "stream", plan.chunk_count(), chunks_of(plan),
      [&](const Round&, LocalArray& staging) { source.read(staging.bytes()); },
      [](const Round& round, const LocalArray&) { return round.raw_bytes; }};
  run_rounds(ctx, array, &array.local(ctx.rank()), 1, stages);
  return plan.total_bytes;
}

}  // namespace drms::core
