// Trace-invariant tests for the deterministic observability layer
// (drms::obs). The assertions follow the determinism contract from
// recorder.hpp: ordering invariants — manifest-last, decommit-first,
// pipeline overlap — are checked against global sequence numbers (which
// are deterministic across barriers and joins), never against the host
// wall clock. Also here: the seeded property test that round-trips a
// checkpoint through a reconfigured restore and checks, from the trace,
// that every array byte is written exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/checkpoint_format.hpp"
#include "core/drms_checkpoint.hpp"
#include "core/drms_context.hpp"
#include "core/spmd_checkpoint.hpp"
#include "core/streamer.hpp"
#include "obs/instrumented_backend.hpp"
#include "obs/recorder.hpp"
#include "obs/trace_export.hpp"
#include "rt/task_group.hpp"
#include "store/fault_injection_backend.hpp"
#include "store/memory_backend.hpp"
#include "test_helpers.hpp"

namespace {

using namespace drms;
using core::AppSegmentModel;
using core::CheckpointMode;
using core::DistArray;
using core::DistSpec;
using core::Index;
using rt::TaskContext;
using rt::TaskGroup;
using test::count_mapped_mismatches;
using test::cube;
using test::fill_assigned_tagged;
using test::placement_of;

AppSegmentModel tiny_segment() {
  AppSegmentModel m;
  m.static_local_bytes = 4 * 1024;
  m.system_bytes = 4 * 1024;
  return m;
}

/// One full checkpoint through the public engine API with a recorder
/// attached (the storage itself may additionally be instrumented).
void run_checkpoint(store::StorageBackend& storage, CheckpointMode mode,
                    const std::string& prefix, int tasks, Index n,
                    obs::Recorder* recorder,
                    std::uint64_t chunk_bytes = 4096) {
  TaskGroup group(placement_of(tasks));
  DistArray array("u", cube(n), sizeof(double), tasks);
  const auto outcome = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(
          DistSpec::block_auto(cube(n), tasks, std::vector<Index>(3, 0)));
    }
    ctx.barrier();
    fill_assigned_tagged(array, ctx.rank());
    ctx.barrier();

    std::int64_t it = 7;
    core::ReplicatedStore store;
    store.register_i64("it", &it);
    const std::array<DistArray*, 1> arrays{&array};
    if (mode == CheckpointMode::kDrms) {
      core::DrmsCheckpoint engine(storage, {}, /*io_tasks=*/0, chunk_bytes,
                                  /*jitter=*/false, recorder);
      (void)engine.write(ctx, prefix, "obs", 1, store, arrays,
                         tiny_segment());
    } else {
      core::SpmdCheckpoint engine(storage, {}, /*jitter=*/false, recorder);
      (void)engine.write(ctx, prefix, "obs", 1, store, arrays,
                         tiny_segment());
    }
  });
  ASSERT_TRUE(outcome.completed) << outcome.kill_reason;
}

bool is_mutation_op(const std::string& name) {
  return name == "create" || name == "remove" || name == "remove_prefix" ||
         name == "write_at" || name == "write_zeros_at" || name == "append";
}

std::string attr_text(const obs::SpanRecord& span, std::string_view key) {
  const obs::Attr* a = span.attr(key);
  return (a != nullptr && !a->numeric) ? a->text : std::string();
}

// ---- Recorder unit tests ----------------------------------------------------

TEST(ObsRecorder, SpansCarrySequenceClocksAndAttrs) {
  obs::Recorder rec;
  const std::size_t id = rec.begin_span(
      "cat", "outer", 3, 1.5,
      {obs::Attr::num("k", 42), obs::Attr::str("s", "v")});
  rec.instant("cat", "evt", -1, -1.0);
  rec.end_span(id, 3.0);

  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  const obs::SpanRecord& outer = spans[0];
  const obs::SpanRecord& evt = spans[1];

  // Sequence numbers form a total order over begin/end events.
  EXPECT_EQ(outer.begin_seq, 0u);
  EXPECT_EQ(evt.begin_seq, 1u);
  EXPECT_EQ(outer.end_seq, 2u);
  EXPECT_TRUE(outer.closed);
  EXPECT_EQ(outer.rank, 3);
  EXPECT_DOUBLE_EQ(outer.begin_sim, 1.5);
  EXPECT_DOUBLE_EQ(outer.end_sim, 3.0);
  EXPECT_LE(outer.begin_wall_ns, outer.end_wall_ns);
  EXPECT_EQ(outer.attr_num("k"), 42);
  EXPECT_EQ(outer.attr_num("missing", -5), -5);
  ASSERT_NE(outer.attr("s"), nullptr);
  EXPECT_EQ(outer.attr("s")->text, "v");

  // An instant is born closed, with begin == end.
  EXPECT_TRUE(evt.closed);
  EXPECT_EQ(evt.begin_seq, evt.end_seq);
  EXPECT_EQ(evt.rank, -1);
}

TEST(ObsRecorder, EndSpanIsIdempotentAndBoundsChecked) {
  obs::Recorder rec;
  const std::size_t id = rec.begin_span("c", "n", 0, 0.0);
  rec.end_span(id, 1.0);
  const std::uint64_t end_seq = rec.spans()[0].end_seq;
  rec.end_span(id, 2.0);                 // already closed: no effect
  rec.end_span(obs::kNoSpan, 1.0);       // out of range: no effect
  EXPECT_EQ(rec.spans()[0].end_seq, end_seq);
  EXPECT_DOUBLE_EQ(rec.spans()[0].end_sim, 1.0);
  EXPECT_EQ(rec.span_count(), 1u);
}

TEST(ObsRecorder, CountersAccumulate) {
  obs::Recorder rec;
  EXPECT_EQ(rec.counter("a"), 0u);
  rec.count("a");
  rec.count("a", 4);
  rec.count("b", 2);
  EXPECT_EQ(rec.counter("a"), 5u);
  const auto counters = rec.counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters.at("b"), 2u);
}

TEST(ObsRecorder, HistogramLog2Buckets) {
  obs::Histogram h;
  h.add(0);
  h.add(1);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 1028u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1024u);
  EXPECT_EQ(h.buckets[0], 2u);   // 0 and 1
  EXPECT_EQ(h.buckets[1], 1u);   // 2 <= 3 < 4
  EXPECT_EQ(h.buckets[10], 1u);  // 1024

  obs::Recorder rec;
  rec.record_ns("lat", 100);
  rec.record_ns("lat", 200);
  const auto histograms = rec.histograms();
  ASSERT_EQ(histograms.count("lat"), 1u);
  EXPECT_EQ(histograms.at("lat").count, 2u);
}

TEST(ObsRecorder, ScopedSpanNullRecorderIsNoop) {
  {
    obs::ScopedSpan span(nullptr, "c", "n", 0, 0.0);
    span.end(1.0);
  }
  obs::Recorder rec;
  {
    obs::ScopedSpan span(&rec, "c", "n", 0, 0.0);
    // Destructor closes the span with unknown sim time.
  }
  ASSERT_EQ(rec.span_count(), 1u);
  EXPECT_TRUE(rec.spans()[0].closed);
  EXPECT_DOUBLE_EQ(rec.spans()[0].end_sim, -1.0);

  // Moving transfers ownership: only one close happens.
  obs::ScopedSpan a(&rec, "c", "m", 0, 0.0);
  obs::ScopedSpan b(std::move(a));
  b.end(5.0);
  EXPECT_DOUBLE_EQ(rec.spans()[1].end_sim, 5.0);
}

TEST(ObsRecorder, RetryObserverCountsTotalAndPerSite) {
  obs::Recorder rec;
  rec.on_transient_retry("meta.write", 1);
  rec.on_transient_retry("meta.write", 2);
  rec.on_transient_retry("segment.write", 1);
  EXPECT_EQ(rec.counter("retry.transient"), 3u);
  EXPECT_EQ(rec.counter("retry.transient.meta.write"), 2u);
  EXPECT_EQ(rec.counter("retry.transient.segment.write"), 1u);
}

// ---- Export -----------------------------------------------------------------

TEST(ObsExport, ChromeTraceCarriesSpansSeqAndEscapedAttrs) {
  obs::Recorder rec;
  const std::size_t id = rec.begin_span(
      "ckpt", "write", 2, 0.25, {obs::Attr::str("prefix", "a\"b\nc")});
  rec.end_span(id, 0.5);
  rec.instant("store", "write_at", -1, -1.0,
              {obs::Attr::num("bytes", 64)});

  const std::string json = obs::chrome_trace_json(rec);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"write\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"ckpt\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  // Rank-less store events land on the dedicated store tid.
  EXPECT_NE(json.find("\"tid\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(json.find("\"sim_begin_s\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":64"), std::string::npos);
  // Control characters and quotes inside attribute values are escaped.
  EXPECT_NE(json.find("a\\\"b\\nc"), std::string::npos);
  // Unknown sim times are omitted, not emitted as -1.
  EXPECT_EQ(json.find("\"sim_begin_s\":-1"), std::string::npos);
}

TEST(ObsExport, StatsTableListsCountersAndHistograms) {
  obs::Recorder rec;
  EXPECT_EQ(obs::stats_table(rec), "no recorded metrics\n");
  rec.count("store.mem.write_at.ops", 3);
  rec.record_ns("store.mem.write_at.ns", 500);
  const std::string table = obs::stats_table(rec);
  EXPECT_NE(table.find("store.mem.write_at.ops"), std::string::npos);
  EXPECT_NE(table.find("store.mem.write_at.ns"), std::string::npos);
  EXPECT_NE(table.find("3"), std::string::npos);
  EXPECT_NE(table.find("500"), std::string::npos);
}

// ---- InstrumentedBackend ----------------------------------------------------

TEST(ObsBackend, RecordsOpsBytesAndMutations) {
  store::MemoryBackend inner;
  obs::Recorder rec;
  obs::InstrumentedBackend backend(inner, &rec, "mem");
  EXPECT_EQ(backend.description(), "obs(" + inner.description() + ")");

  std::vector<std::byte> data(64, std::byte{0x5a});
  store::FileHandle f = backend.create("x");
  f.write_at(0, data);
  f.append(data);
  const store::FileHandle g = backend.open("x");
  EXPECT_EQ(g.read_at(0, 64), data);  // contents pass through unchanged
  backend.remove("x");

  EXPECT_EQ(rec.counter("store.mem.create.ops"), 1u);
  EXPECT_EQ(rec.counter("store.mem.write_at.ops"), 1u);
  EXPECT_EQ(rec.counter("store.mem.write_at.bytes"), 64u);
  EXPECT_EQ(rec.counter("store.mem.append.ops"), 1u);
  EXPECT_EQ(rec.counter("store.mem.open.ops"), 1u);
  EXPECT_EQ(rec.counter("store.mem.read_at.ops"), 1u);
  EXPECT_EQ(rec.counter("store.mem.read_at.bytes"), 64u);
  EXPECT_EQ(rec.counter("store.mem.remove.ops"), 1u);
  // create + write_at + append + remove; open/read are not mutations.
  EXPECT_EQ(rec.counter("store.mutation"), 4u);
  EXPECT_EQ(rec.histograms().count("store.mem.write_at.ns"), 1u);

  // The write_at event carries the file name, offset and size.
  bool found = false;
  for (const auto& span : rec.spans()) {
    if (span.category == "store" && span.name == "write_at") {
      EXPECT_EQ(attr_text(span, "file"), "x");
      EXPECT_EQ(span.attr_num("offset"), 0);
      EXPECT_EQ(span.attr_num("bytes"), 64);
      EXPECT_EQ(span.rank, -1);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsBackend, NullRecorderPassesThrough) {
  store::MemoryBackend inner;
  obs::InstrumentedBackend backend(inner, nullptr, "mem");
  std::vector<std::byte> data(16, std::byte{0x11});
  backend.create("y").write_at(0, data);
  EXPECT_EQ(backend.open("y").read_at(0, 16), data);
  EXPECT_EQ(backend.file_size("y"), 16u);
  EXPECT_TRUE(inner.exists("y"));
}

// ---- Engine ordering invariants ---------------------------------------------

/// Checkpoint the same prefix twice through an instrumented store and
/// check the two-phase-commit trace invariants: in every attempt the
/// commit-manifest write is the final mutation, and in the overwrite
/// attempt the decommit (manifest removal) precedes every data write.
void check_commit_protocol_trace(CheckpointMode mode) {
  store::MemoryBackend inner;
  obs::Recorder rec;
  obs::InstrumentedBackend storage(inner, &rec, "mem");
  const std::string commit = core::commit_file_name("inv");

  run_checkpoint(storage, mode, "inv", 2, 6, &rec);
  const std::size_t attempt2_begin = rec.span_count();
  run_checkpoint(storage, mode, "inv", 2, 6, &rec);

  const auto spans = rec.spans();
  // Attempt boundaries: spans are indexed in begin order, and attempt 1
  // fully completes before attempt 2 starts.
  const auto mutation_events =
      [&](std::size_t lo, std::size_t hi) {
        std::vector<const obs::SpanRecord*> out;
        for (std::size_t i = lo; i < hi; ++i) {
          if (spans[i].category == "store" &&
              is_mutation_op(spans[i].name)) {
            out.push_back(&spans[i]);
          }
        }
        return out;
      };

  const auto attempt1 = mutation_events(0, attempt2_begin);
  const auto attempt2 = mutation_events(attempt2_begin, spans.size());
  ASSERT_FALSE(attempt1.empty());
  ASSERT_FALSE(attempt2.empty());

  // Manifest-last: in both attempts the mutation with the highest
  // sequence number is the write of the commit manifest.
  for (const auto* attempt : {&attempt1, &attempt2}) {
    const obs::SpanRecord* last = attempt->front();
    for (const auto* e : *attempt) {
      if (e->begin_seq > last->begin_seq) {
        last = e;
      }
    }
    EXPECT_EQ(last->name, "write_at");
    EXPECT_EQ(attr_text(*last, "file"), commit);
  }

  // A fresh prefix has nothing to decommit: no removes in attempt 1.
  for (const auto* e : attempt1) {
    EXPECT_NE(e->name, "remove") << attr_text(*e, "file");
  }

  // Decommit-first: the overwrite's FIRST mutation (lowest seq) is the
  // removal of the previous manifest — before any data write can tear
  // the committed state.
  const obs::SpanRecord* first = attempt2.front();
  for (const auto* e : attempt2) {
    if (e->begin_seq < first->begin_seq) {
      first = e;
    }
  }
  EXPECT_EQ(first->name, "remove");
  EXPECT_EQ(attr_text(*first, "file"), commit);

  // The engine-level phase spans are present and closed.
  const std::string cat = mode == CheckpointMode::kDrms ? "ckpt" : "spmd";
  for (const char* name : {"write", "segment", "meta", "commit"}) {
    const bool present = std::any_of(
        spans.begin(), spans.end(), [&](const obs::SpanRecord& s) {
          return s.category == cat && s.name == name && s.closed;
        });
    EXPECT_TRUE(present) << cat << "." << name;
  }
  // ...and "decommit" appears in the overwrite attempt.
  const bool decommit_span = std::any_of(
      spans.begin() + static_cast<std::ptrdiff_t>(attempt2_begin),
      spans.end(), [&](const obs::SpanRecord& s) {
        return s.category == cat && s.name == "decommit" && s.closed;
      });
  EXPECT_TRUE(decommit_span);
}

TEST(ObsInvariants, ManifestLastAndDecommitFirstDrms) {
  check_commit_protocol_trace(CheckpointMode::kDrms);
}

TEST(ObsInvariants, ManifestLastAndDecommitFirstSpmd) {
  check_commit_protocol_trace(CheckpointMode::kSpmd);
}

// ---- Pipelined streamer overlap ---------------------------------------------

/// PR 3's double-buffered pipelining, made visible by the trace: round
/// r+1's exchange span OPENS (begin_seq) before round r's in-flight I/O
/// span CLOSES (end_seq) — both recorded by the main task thread, so the
/// ordering is deterministic. A sequential streamer could never produce
/// this interleaving.
TEST(ObsPipeline, NextRoundExchangeOpensBeforeInflightWriteCloses) {
  constexpr int kTasks = 2;
  constexpr Index kN = 16;  // 16^3 doubles / 4 KiB chunks -> 8 chunks
  store::MemoryBackend backend;
  obs::Recorder rec;
  TaskGroup group(placement_of(kTasks));
  DistArray array("u", cube(kN), sizeof(double), kTasks);
  store::FileHandle file = backend.create("stream.u");

  const auto outcome = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(DistSpec::block_auto(
          cube(kN), kTasks, std::vector<Index>(3, 0)));
    }
    ctx.barrier();
    fill_assigned_tagged(array, ctx.rank());
    ctx.barrier();
    const core::ArrayStreamer streamer(nullptr, {}, /*chunk=*/4096,
                                       /*jitter=*/false, &rec);
    std::uint32_t crc = 0;
    streamer.write_section(ctx, array, array.global_box(), file, 0, kTasks,
                           &crc);
  });
  ASSERT_TRUE(outcome.completed) << outcome.kill_reason;

  const auto spans = rec.spans();
  int overlapping_pairs = 0;
  for (const auto& inflight : spans) {
    if (inflight.category != "stream" ||
        inflight.name != "write_inflight") {
      continue;
    }
    ASSERT_TRUE(inflight.closed);
    for (const auto& exchange : spans) {
      if (exchange.category == "stream" && exchange.name == "exchange" &&
          exchange.rank == inflight.rank &&
          attr_text(exchange, "dir") == "write" &&
          exchange.attr_num("round") == inflight.attr_num("round") + 1) {
        EXPECT_LT(exchange.begin_seq, inflight.end_seq)
            << "rank " << inflight.rank << " round "
            << inflight.attr_num("round");
        ++overlapping_pairs;
      }
    }
  }
  // 8 chunks / 2 I/O tasks = 4 rounds: at least rounds 0..2 of each rank
  // have a successor-round exchange.
  EXPECT_GE(overlapping_pairs, 2 * kTasks);
}

TEST(ObsPipeline, NextRoundReadOpensBeforeExchangeCloses) {
  constexpr int kTasks = 2;
  constexpr Index kN = 16;
  store::MemoryBackend backend;
  store::FileHandle file = backend.create("stream.u");
  DistArray src("u", cube(kN), sizeof(double), kTasks);
  {
    TaskGroup group(placement_of(kTasks));
    const auto outcome = group.run([&](TaskContext& ctx) {
      if (ctx.rank() == 0) {
        src.install_distribution(DistSpec::block_auto(
            cube(kN), kTasks, std::vector<Index>(3, 0)));
      }
      ctx.barrier();
      fill_assigned_tagged(src, ctx.rank());
      ctx.barrier();
      const core::ArrayStreamer streamer(nullptr, {}, 4096);
      streamer.write_section(ctx, src, src.global_box(), file, 0, kTasks);
    });
    ASSERT_TRUE(outcome.completed) << outcome.kill_reason;
  }

  obs::Recorder rec;
  DistArray dst("u", cube(kN), sizeof(double), kTasks);
  TaskGroup group(placement_of(kTasks));
  const auto outcome = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      dst.install_distribution(DistSpec::block_auto(
          cube(kN), kTasks, std::vector<Index>(3, 0)));
    }
    ctx.barrier();
    const core::ArrayStreamer streamer(nullptr, {}, 4096, false, &rec);
    streamer.read_section(ctx, dst, dst.global_box(), file, 0, kTasks);
  });
  ASSERT_TRUE(outcome.completed) << outcome.kill_reason;

  // The read pipeline prefetches: round r+1's in-flight read is LAUNCHED
  // before round r's exchange span closes.
  const auto spans = rec.spans();
  int overlapping_pairs = 0;
  for (const auto& inflight : spans) {
    if (inflight.category != "stream" || inflight.name != "read_inflight") {
      continue;
    }
    const std::int64_t round = inflight.attr_num("round");
    if (round == 0) {
      continue;  // the first read has no predecessor exchange
    }
    for (const auto& exchange : spans) {
      if (exchange.category == "stream" && exchange.name == "exchange" &&
          exchange.rank == inflight.rank &&
          attr_text(exchange, "dir") == "read" &&
          exchange.attr_num("round") == round - 1) {
        EXPECT_LT(inflight.begin_seq, exchange.end_seq)
            << "rank " << inflight.rank << " round " << round;
        ++overlapping_pairs;
      }
    }
  }
  EXPECT_GE(overlapping_pairs, 2 * kTasks);
}

/// Delta blocks of a 16^3-double array at 2 tasks: 8 blocks of 4 KiB, all
/// dirty, written by write_delta_blocks with the recorder `rec` (when
/// non-null) into `file`; returns the index records.
std::vector<core::DeltaBlockRecord> write_delta_for_pipeline(
    store::FileHandle file, obs::Recorder* rec) {
  constexpr int kTasks = 2;
  constexpr Index kN = 16;
  const core::StreamPlan blocks =
      core::make_stream_plan(cube(kN), sizeof(double), 1, 4096);
  std::vector<std::uint64_t> dirty(blocks.chunk_count());
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    dirty[i] = i;
  }
  std::vector<core::DeltaBlockRecord> records;
  TaskGroup group(placement_of(kTasks));
  DistArray array("u", cube(kN), sizeof(double), kTasks);
  const auto outcome = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      array.install_distribution(DistSpec::block_auto(
          cube(kN), kTasks, std::vector<Index>(3, 0)));
    }
    ctx.barrier();
    fill_assigned_tagged(array, ctx.rank());
    ctx.barrier();
    const core::ArrayStreamer streamer(nullptr, {}, 4096, false, rec);
    const auto res = streamer.write_delta_blocks(
        ctx, array, blocks, dirty, file, kTasks, support::BlockCodec::kLz);
    if (ctx.rank() == 0) {
      records = res.records;
    }
  });
  EXPECT_TRUE(outcome.completed) << outcome.kill_reason;
  return records;
}

TEST(ObsPipeline, DeltaWriteExchangeOpensBeforeInflightEncodeCloses) {
  store::MemoryBackend backend;
  obs::Recorder rec;
  (void)write_delta_for_pipeline(backend.create("delta.u"), &rec);

  const auto spans = rec.spans();
  int overlapping_pairs = 0;
  for (const auto& inflight : spans) {
    if (inflight.category != "delta" || inflight.name != "write_inflight") {
      continue;
    }
    ASSERT_TRUE(inflight.closed);
    for (const auto& exchange : spans) {
      if (exchange.category == "delta" && exchange.name == "exchange" &&
          exchange.rank == inflight.rank &&
          attr_text(exchange, "dir") == "write" &&
          exchange.attr_num("round") == inflight.attr_num("round") + 1) {
        EXPECT_LT(exchange.begin_seq, inflight.end_seq)
            << "rank " << inflight.rank << " round "
            << inflight.attr_num("round");
        ++overlapping_pairs;
      }
    }
  }
  // 8 blocks / 2 I/O tasks = 4 rounds: rounds 0..2 of each rank have a
  // successor-round exchange.
  EXPECT_GE(overlapping_pairs, 2 * 3);
}

TEST(ObsPipeline, DeltaApplyNextReadOpensBeforeExchangeCloses) {
  constexpr int kTasks = 2;
  constexpr Index kN = 16;
  store::MemoryBackend backend;
  const std::vector<core::DeltaBlockRecord> records =
      write_delta_for_pipeline(backend.create("delta.u"), nullptr);
  const core::StreamPlan blocks =
      core::make_stream_plan(cube(kN), sizeof(double), 1, 4096);

  obs::Recorder rec;
  DistArray dst("u", cube(kN), sizeof(double), kTasks);
  TaskGroup group(placement_of(kTasks));
  const auto outcome = group.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      dst.install_distribution(DistSpec::block_auto(
          cube(kN), kTasks, std::vector<Index>(3, 0)));
    }
    ctx.barrier();
    const core::ArrayStreamer streamer(nullptr, {}, 4096, false, &rec);
    streamer.apply_delta_blocks(ctx, dst, blocks, records,
                                backend.open("delta.u"), kTasks);
    ctx.barrier();
    EXPECT_EQ(count_mapped_mismatches(dst, ctx.rank()), 0);
  });
  ASSERT_TRUE(outcome.completed) << outcome.kill_reason;

  // Round r+1's in-flight read and decode is launched before round r's
  // scatter exchange closes.
  const auto spans = rec.spans();
  int overlapping_pairs = 0;
  for (const auto& inflight : spans) {
    if (inflight.category != "delta" || inflight.name != "read_inflight") {
      continue;
    }
    const std::int64_t round = inflight.attr_num("round");
    if (round == 0) {
      continue;  // the first read has no predecessor exchange
    }
    for (const auto& exchange : spans) {
      if (exchange.category == "delta" && exchange.name == "exchange" &&
          exchange.rank == inflight.rank &&
          attr_text(exchange, "dir") == "read" &&
          exchange.attr_num("round") == round - 1) {
        EXPECT_LT(inflight.begin_seq, exchange.end_seq)
            << "rank " << inflight.rank << " round " << round;
        ++overlapping_pairs;
      }
    }
  }
  EXPECT_GE(overlapping_pairs, 2 * 3);
}

// ---- Retry counters ---------------------------------------------------------

TEST(ObsRetry, TransientRetryCountersMatchFaultSchedule) {
  for (const CheckpointMode mode :
       {CheckpointMode::kDrms, CheckpointMode::kSpmd}) {
    for (const int faults : {1, 3}) {
      SCOPED_TRACE(std::string(mode == CheckpointMode::kDrms ? "drms"
                                                             : "spmd") +
                   " faults=" + std::to_string(faults));
      store::MemoryBackend inner;
      store::FaultInjectionBackend fault(inner);
      obs::Recorder rec;
      fault.inject_transient_faults(faults);
      run_checkpoint(fault, mode, "rt", 2, 6, &rec);
      EXPECT_EQ(fault.faults_injected(), static_cast<std::uint64_t>(faults));
      // Every injected transient fault surfaces as exactly one observed
      // retry — and each is attributed to a per-site sub-counter.
      EXPECT_EQ(rec.counter("retry.transient"),
                static_cast<std::uint64_t>(faults));
      std::uint64_t per_site = 0;
      for (const auto& [key, value] : rec.counters()) {
        if (key.rfind("retry.transient.", 0) == 0) {
          per_site += value;
        }
      }
      EXPECT_EQ(per_site, static_cast<std::uint64_t>(faults));
    }
  }
}

// ---- Seeded property test ---------------------------------------------------

/// Random (distribution, task-count) pairs round-trip through a
/// reconfigured restore: checkpoint with t1 tasks, restore + re-checkpoint
/// with t2 tasks. The distribution-independent stream CRC must survive
/// the round trip bit-exactly, and the trace must account for every array
/// byte exactly once (contiguous write tiles, no overlap, no gap).
TEST(ObsProperty, ReconfiguredRoundTripKeepsCrcAndTilesEveryByteOnce) {
  std::mt19937_64 rng(20260805);
  for (int iter = 0; iter < 6; ++iter) {
    const Index n = 4 + static_cast<Index>(rng() % 6);
    const int t1 = 1 + static_cast<int>(rng() % 4);
    const int t2 = 1 + static_cast<int>(rng() % 4);
    const Index shadow1 = static_cast<Index>(rng() % 2);
    const Index shadow2 = static_cast<Index>(rng() % 2);
    SCOPED_TRACE("iter " + std::to_string(iter) + ": n=" +
                 std::to_string(n) + " t1=" + std::to_string(t1) +
                 " t2=" + std::to_string(t2) + " shadows=" +
                 std::to_string(shadow1) + "/" + std::to_string(shadow2));

    store::MemoryBackend inner;
    obs::Recorder rec;
    obs::InstrumentedBackend storage(inner, &rec, "mem");

    // Checkpoint with t1 tasks.
    {
      TaskGroup group(placement_of(t1));
      DistArray array("u", cube(n), sizeof(double), t1);
      const auto outcome = group.run([&](TaskContext& ctx) {
        if (ctx.rank() == 0) {
          array.install_distribution(DistSpec::block_auto(
              cube(n), t1, std::vector<Index>(3, shadow1)));
        }
        ctx.barrier();
        fill_assigned_tagged(array, ctx.rank());
        ctx.barrier();
        std::int64_t it = 7;
        core::ReplicatedStore store;
        store.register_i64("it", &it);
        const std::array<DistArray*, 1> arrays{&array};
        core::DrmsCheckpoint engine(storage, {}, 0, /*chunk=*/2048,
                                    false, &rec);
        (void)engine.write(ctx, "prop.a", "prop", 1, store, arrays,
                           tiny_segment());
      });
      ASSERT_TRUE(outcome.completed) << outcome.kill_reason;
    }
    const core::CheckpointMeta meta_a =
        core::read_checkpoint_meta(storage, "prop.a");
    const std::uint64_t stream_bytes = meta_a.array("u").stream_bytes;
    EXPECT_EQ(stream_bytes, static_cast<std::uint64_t>(n) * n * n *
                                sizeof(double));

    // Byte accounting from the trace: the write tiles on the array file
    // cover [0, stream_bytes) exactly once.
    const std::string array_file = core::array_file_name("prop.a", "u");
    std::vector<std::pair<std::int64_t, std::int64_t>> tiles;
    for (const auto& span : rec.spans()) {
      if (span.category == "store" && span.name == "write_at" &&
          attr_text(span, "file") == array_file) {
        tiles.emplace_back(span.attr_num("offset"), span.attr_num("bytes"));
      }
    }
    ASSERT_FALSE(tiles.empty());
    std::sort(tiles.begin(), tiles.end());
    std::int64_t cursor = 0;
    for (const auto& [offset, bytes] : tiles) {
      EXPECT_EQ(offset, cursor) << "gap or double-write at " << offset;
      EXPECT_GT(bytes, 0);
      cursor = offset + bytes;
    }
    EXPECT_EQ(static_cast<std::uint64_t>(cursor), stream_bytes);

    // Reconfigured restore with t2 tasks, then re-checkpoint.
    std::vector<int> mismatches(static_cast<std::size_t>(t2), -1);
    std::vector<std::int64_t> restored_it(static_cast<std::size_t>(t2), 0);
    {
      TaskGroup group(placement_of(t2));
      DistArray array("u", cube(n), sizeof(double), t2);
      const auto outcome = group.run([&](TaskContext& ctx) {
        if (ctx.rank() == 0) {
          array.install_distribution(DistSpec::block_auto(
              cube(n), t2, std::vector<Index>(3, shadow2)));
        }
        ctx.barrier();
        std::int64_t it = 0;
        core::ReplicatedStore store;
        store.register_i64("it", &it);
        core::DrmsCheckpoint engine(storage, {}, 0, 2048, false, &rec);
        core::RestartTiming timing;
        const core::CheckpointMeta meta =
            engine.restore_segment(ctx, "prop.a", store, tiny_segment(),
                                   timing);
        const core::CheckpointChain chain =
            core::resolve_checkpoint_chain(storage, "prop.a", meta);
        engine.restore_array(ctx, meta, chain, array, timing);
        const std::size_t me = static_cast<std::size_t>(ctx.rank());
        mismatches[me] = count_mapped_mismatches(array, ctx.rank());
        restored_it[me] = it;
        const std::array<DistArray*, 1> arrays{&array};
        (void)engine.write(ctx, "prop.b", "prop", 2, store, arrays,
                           tiny_segment());
      });
      ASSERT_TRUE(outcome.completed) << outcome.kill_reason;
    }
    for (int r = 0; r < t2; ++r) {
      EXPECT_EQ(mismatches[static_cast<std::size_t>(r)], 0)
          << "rank " << r;
      EXPECT_EQ(restored_it[static_cast<std::size_t>(r)], 7);
    }

    // The re-checkpointed stream fingerprint matches bit-exactly — the
    // stream is distribution-independent, so any redistribution error
    // would flip the CRC.
    const core::CheckpointMeta meta_b =
        core::read_checkpoint_meta(storage, "prop.b");
    EXPECT_EQ(meta_b.array("u").stream_crc, meta_a.array("u").stream_crc);
    EXPECT_EQ(meta_b.array("u").stream_bytes, stream_bytes);
  }
}

}  // namespace
