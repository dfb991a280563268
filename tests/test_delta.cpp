// Tests for block-level delta generations: the block codecs (known-answer
// + property tests mirroring the CRC suite, and seeded mutations of real
// streams), the delta file's header and index checks, the runtime dirty
// tracking, the chained write/restore path, and the chain-aware catalog
// (GC keeps a base alive while a kept delta depends on it; fsck reports a
// delta whose base is gone as torn).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/checkpoint_catalog.hpp"
#include "core/checkpoint_format.hpp"
#include "core/delta_format.hpp"
#include "core/drms_context.hpp"
#include "core/streamer.hpp"
#include "rt/task_group.hpp"
#include "store/memory_backend.hpp"
#include "support/block_codec.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "test_helpers.hpp"

namespace {

using namespace drms::core;
namespace support = drms::support;
using Volume = drms::test::TestVolume;
using drms::rt::TaskContext;
using drms::rt::TaskGroup;
using drms::test::cube;
using drms::test::placement_of;
using drms::test::tag_of;
using support::BlockCodec;

constexpr Index kN = 8;

AppSegmentModel tiny_segment() {
  AppSegmentModel m;
  m.static_local_bytes = 16 * 1024;
  m.system_bytes = 16 * 1024;
  return m;
}

/// Deterministic pseudo-random bytes (xorshift64*) — incompressible for
/// LZ.
std::vector<std::byte> noise(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n);
  std::uint64_t x = seed | 1;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<std::byte>(x * 0x2545f4914f6cdd1dull >> 56);
  }
  return out;
}

/// Solver-like bytes: long zero runs (halo padding) interleaved with
/// slowly varying doubles — compressible by LZ.
std::vector<std::byte> solver_like(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> out(n, std::byte{0});
  std::uint64_t x = seed | 1;
  for (std::size_t i = 0; i + sizeof(double) <= n; i += sizeof(double)) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (x % 3 == 0) {
      continue;  // leave a zero-run hole
    }
    const double v = 0.25 * static_cast<double>(i % 97);
    std::memcpy(out.data() + i, &v, sizeof(double));
  }
  return out;
}

std::vector<std::byte> round_trip(BlockCodec requested,
                                  std::span<const std::byte> raw,
                                  BlockCodec* used = nullptr) {
  support::ByteBuffer stored;
  const BlockCodec actual = support::block_encode(requested, raw, stored);
  if (used != nullptr) {
    *used = actual;
  }
  support::ByteBuffer decoded;
  support::block_decode(actual, stored.bytes(), raw.size(), decoded);
  const auto span = decoded.bytes();
  return {span.begin(), span.end()};
}

/// A slowly varying field sampled in quarter steps: long runs of equal
/// doubles, as a coarse smooth solution has.
std::vector<std::byte> smooth_field(std::size_t doubles) {
  std::vector<double> v(doubles);
  for (std::size_t i = 0; i < doubles; ++i) {
    v[i] = 0.25 * std::floor(16.0 * std::sin(static_cast<double>(i) * 1e-3));
  }
  const auto bytes = std::as_bytes(std::span<const double>(v));
  return {bytes.begin(), bytes.end()};
}

std::vector<std::byte> to_bytes(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (const int v : values) {
    out.push_back(static_cast<std::byte>(v));
  }
  return out;
}

/// Writes a delta file: header, payload, then `index` (a framed index).
drms::store::FileHandle write_delta_file(drms::store::StorageBackend& storage,
                                         const std::string& name,
                                         const DeltaFileHeader& header,
                                         std::span<const std::byte> payload,
                                         std::span<const std::byte> index) {
  drms::store::FileHandle file = storage.create(name);
  file.write_at(0, encode_delta_header(header).bytes());
  file.write_at(wire::kDeltaHeaderBytes, payload);
  file.write_at(header.index_offset, index);
  return file;
}

/// A framed index whose body holds `count`, then `records` — CRC and
/// size consistent however many records `count` claims.
support::ByteBuffer framed_index(std::uint64_t count,
                                 const std::vector<DeltaBlockRecord>& records) {
  support::ByteBuffer full = encode_delta_index(records);
  // Re-frame the body with its count field replaced.
  support::ByteBuffer body;
  body.put_u64(count);
  body.append(full.bytes().subspan(4 + 8 + 8));
  support::ByteBuffer out;
  out.put_u32(support::crc32c(body.bytes()));
  out.put_u64(body.size());
  out.append(body.bytes());
  return out;
}

/// One 64-byte raw block and the header of a file that stores only it.
struct OneBlockDelta {
  std::vector<std::byte> payload = noise(64, 0x64);
  DeltaBlockRecord record;
  DeltaFileHeader header;

  OneBlockDelta() {
    record.raw_bytes = payload.size();
    record.stored_bytes = payload.size();
    record.raw_crc = support::crc32c(payload);
    record.stored_crc = record.raw_crc;
    header.block_bytes = payload.size();
    header.total_blocks = 1;
    header.record_count = 1;
    header.payload_bytes = payload.size();
    header.raw_bytes = payload.size();
    header.index_offset = wire::kDeltaHeaderBytes + payload.size();
  }
};

TEST(DeltaCodec, AllZeroBlockCollapses) {
  const std::vector<std::byte> raw(64 * 1024, std::byte{0});
  for (const BlockCodec codec : {BlockCodec::kRaw, BlockCodec::kLz}) {
    support::ByteBuffer stored;
    const BlockCodec used = support::block_encode(codec, raw, stored);
    if (codec != BlockCodec::kRaw) {
      EXPECT_EQ(used, codec) << support::to_string(codec);
      // A 64 KiB zero block must collapse: LZ stores it as one literal
      // and one offset-1 match whose length runs on in bytes of 255.
      EXPECT_LT(stored.size(), raw.size() / 50) << support::to_string(codec);
    }
    support::ByteBuffer decoded;
    support::block_decode(used, stored.bytes(), raw.size(), decoded);
    EXPECT_TRUE(std::equal(raw.begin(), raw.end(), decoded.bytes().begin()));
  }
}

TEST(DeltaCodec, IncompressibleFallsBackToRaw) {
  const std::vector<std::byte> raw = noise(32 * 1024, 0x5eed);
  support::ByteBuffer stored;
  const BlockCodec used = support::block_encode(BlockCodec::kLz, raw, stored);
  EXPECT_EQ(used, BlockCodec::kRaw);
  // The raw fallback is a plain copy: stored blocks never expand.
  EXPECT_EQ(stored.size(), raw.size());
  support::ByteBuffer decoded;
  support::block_decode(used, stored.bytes(), raw.size(), decoded);
  EXPECT_TRUE(std::equal(raw.begin(), raw.end(), decoded.bytes().begin()));
}

TEST(DeltaCodec, RoundTripAtBoundarySizes) {
  // Sizes straddling the codecs' internal units: the LZ control-byte
  // group (8), its minimum match (4), and block-boundary sizes around the
  // default granularities.
  const std::size_t sizes[] = {1,    3,    7,     8,     9,     255,  256,
                               4095, 4096, 65535, 65536, 65537, 262144};
  for (const std::size_t n : sizes) {
    const std::vector<std::byte> compressible = solver_like(n, n);
    const std::vector<std::byte> incompressible = noise(n, n);
    for (const BlockCodec codec : {BlockCodec::kRaw, BlockCodec::kLz}) {
      EXPECT_EQ(round_trip(codec, compressible), compressible)
          << support::to_string(codec) << " size " << n;
      EXPECT_EQ(round_trip(codec, incompressible), incompressible)
          << support::to_string(codec) << " size " << n;
    }
  }
}

TEST(DeltaCodec, CrossCodecEquivalence) {
  // Whatever the wire bytes look like, every codec must decode to the
  // same raw block.
  const std::vector<std::byte> raw = solver_like(48 * 1024, 0xabcd);
  const std::vector<std::byte> via_raw = round_trip(BlockCodec::kRaw, raw);
  const std::vector<std::byte> via_lz = round_trip(BlockCodec::kLz, raw);
  EXPECT_EQ(via_raw, raw);
  EXPECT_EQ(via_lz, raw);
}

TEST(DeltaCodec, SolverLikeBlocksShrink) {
  const std::vector<std::byte> raw = solver_like(64 * 1024, 0x1234);
  support::ByteBuffer stored;
  EXPECT_EQ(support::block_encode(BlockCodec::kLz, raw, stored),
            BlockCodec::kLz);
  EXPECT_LT(stored.size(), raw.size());
}

TEST(DeltaCodec, TruncatedStoredBytesRejected) {
  const std::vector<std::byte> raw = solver_like(16 * 1024, 0x77);
  support::ByteBuffer stored;
  ASSERT_EQ(support::block_encode(BlockCodec::kLz, raw, stored),
            BlockCodec::kLz);
  const auto bytes = stored.bytes();
  support::ByteBuffer decoded;
  EXPECT_THROW(support::block_decode(BlockCodec::kLz,
                                     bytes.subspan(0, bytes.size() / 2),
                                     raw.size(), decoded),
               support::CorruptCheckpoint);
}

TEST(DeltaCodec, ReservedCodecIdOneIsRejected) {
  // Id 1 was zero-RLE. A well-formed zero-RLE payload: one record, a run
  // of 64 zero bytes ([u8 kind 0][u32 length]).
  constexpr BlockCodec kReserved = static_cast<BlockCodec>(1);
  support::ByteBuffer payload;
  payload.put_u8(0);
  payload.put_u32(64);
  support::ByteBuffer decoded;
  EXPECT_THROW(support::block_decode(kReserved, payload.bytes(), 64, decoded),
               support::CorruptCheckpoint);

  // A delta file whose one index record names codec 1 fails at the index.
  DeltaBlockRecord rec;
  rec.raw_bytes = 64;
  rec.stored_bytes = payload.size();
  rec.codec = kReserved;
  rec.raw_crc = support::crc32c(std::vector<std::byte>(64, std::byte{0}));
  rec.stored_crc = support::crc32c(payload.bytes());
  DeltaFileHeader h;
  h.block_bytes = 64;
  h.total_blocks = 1;
  h.record_count = 1;
  h.payload_bytes = payload.size();
  h.raw_bytes = 64;
  h.index_offset = wire::kDeltaHeaderBytes + payload.size();
  drms::store::MemoryBackend storage;
  const drms::store::FileHandle file = write_delta_file(
      storage, "d", h, payload.bytes(), encode_delta_index({rec}).bytes());
  const DeltaFileHeader read_back = read_delta_header(file, "d");
  EXPECT_THROW((void)read_delta_index(file, read_back, "d"),
               support::CorruptCheckpoint);
}

TEST(DeltaCodec, KnownAnswerBytes) {
  // The exact kLz stream of two small inputs, so a change of the format
  // or of the encoder's choices fails here. 20 letters repeated, then 6
  // more: one sequence of 20 literals (nibble 15 + byte 5) and a 20-byte
  // match 20 back (nibble 15 + byte 1), then the last 6 literals.
  std::vector<std::byte> letters;
  for (int round = 0; round < 2; ++round) {
    for (char ch = 'a'; ch <= 't'; ++ch) {
      letters.push_back(static_cast<std::byte>(ch));
    }
  }
  for (const char ch : std::string("uvwxyz")) {
    letters.push_back(static_cast<std::byte>(ch));
  }
  std::vector<std::byte> expected = to_bytes({0xff, 0x05});
  expected.insert(expected.end(), letters.begin(), letters.begin() + 20);
  for (const std::byte b : to_bytes({0x14, 0x00, 0x01, 0x60})) {
    expected.push_back(b);
  }
  expected.insert(expected.end(), letters.end() - 6, letters.end());
  // 32 zero bytes: one literal, an offset-1 match of 26 (nibble 15 + byte
  // 7) that overlaps its own output, and the last 5 bytes as literals.
  const std::vector<std::byte> zeros(32, std::byte{0});
  const std::vector<std::byte> zeros_expected = to_bytes(
      {0x1f, 0x00, 0x01, 0x00, 0x07, 0x50, 0x00, 0x00, 0x00, 0x00, 0x00});

  for (const auto& [raw, want] :
       {std::pair{letters, expected}, std::pair{zeros, zeros_expected}}) {
    support::ByteBuffer stored;
    ASSERT_EQ(support::block_encode(BlockCodec::kLz, raw, stored),
              BlockCodec::kLz);
    EXPECT_EQ(std::vector<std::byte>(stored.bytes().begin(),
                                     stored.bytes().end()),
              want);
    EXPECT_EQ(round_trip(BlockCodec::kLz, raw), raw);
  }
}

TEST(DeltaCodec, MutatedStreamsDecodeOrThrowTyped) {
  // Seeded mutations of real kLz streams. Each input must decode to
  // exactly the raw size it is given or throw CorruptCheckpoint: any
  // other exception (a bad_alloc from sizing the output by an unchecked
  // raw size, a contract violation) fails the test, and the asan_gate
  // build turns an out-of-bounds copy into a report.
  struct Seed {
    std::vector<std::byte> stored;
    std::uint64_t raw_bytes = 0;
  };
  std::vector<Seed> corpus;
  const auto add = [&](const std::vector<std::byte>& raw) {
    support::ByteBuffer stored;
    if (support::block_encode(BlockCodec::kLz, raw, stored) ==
        BlockCodec::kLz) {
      corpus.push_back({{stored.bytes().begin(), stored.bytes().end()},
                        raw.size()});
    }
  };
  add(std::vector<std::byte>(64 * 1024, std::byte{0}));
  for (const std::size_t n : {255, 256, 4095, 4096, 65535, 65536, 65537,
                              262144}) {
    add(solver_like(n, n));
  }
  add(smooth_field(4096));
  ASSERT_EQ(corpus.size(), 10u);

  std::uint64_t decoded = 0;
  std::uint64_t rejected = 0;
  const auto check = [&](std::span<const std::byte> stored,
                         std::uint64_t raw_bytes) {
    support::ByteBuffer out;
    try {
      support::block_decode(BlockCodec::kLz, stored, raw_bytes, out);
    } catch (const support::CorruptCheckpoint&) {
      ++rejected;
      // A stored byte decodes to at most 255 raw bytes: past that, the
      // output must not have been sized at all.
      if (raw_bytes > 255 * std::uint64_t{stored.size()}) {
        EXPECT_EQ(out.size(), 0u) << "sized before the raw size was checked";
      }
      return;
    }
    ++decoded;
    EXPECT_EQ(out.size(), raw_bytes);
  };

  std::mt19937_64 rng(0x6c7a6d7574);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (const Seed& seed : corpus) {
    const std::vector<std::byte>& s = seed.stored;
    const std::uint64_t raw = seed.raw_bytes;
    check(s, raw);
    // Truncation: every prefix of short streams, a stride of long ones.
    const std::size_t stride = s.size() <= 16 * 1024 ? 1 : 61;
    for (std::size_t len = 0; len < s.size(); len += stride) {
      check(std::span(s).first(len), raw);
    }
    // Wrong raw sizes, up to one no block could expand to.
    for (const std::uint64_t wrong :
         {std::uint64_t{0}, raw - 1, raw + 1, 2 * raw,
          std::uint64_t{1} << 40}) {
      check(s, wrong);
    }
    for (int k = 0; k < 120; ++k) {
      std::vector<std::byte> m = s;
      switch (k % 6) {
        case 0:  // flip one bit
          m[pick(m.size())] ^= static_cast<std::byte>(1u << pick(8));
          break;
        case 1:
          m[pick(m.size())] = std::byte{0x00};
          break;
        case 2:
          m[pick(m.size())] = std::byte{0xff};
          break;
        case 3:
          m[pick(m.size())] = static_cast<std::byte>(rng());
          break;
        case 4: {  // a run of 0xFF: lengths that run on
          const std::size_t at = pick(m.size());
          m.insert(m.begin() + static_cast<std::ptrdiff_t>(at),
                   1 + pick(600), std::byte{0xff});
          break;
        }
        default: {  // the head of this stream on the tail of another
          const std::vector<std::byte>& other =
              corpus[pick(corpus.size())].stored;
          m.resize(pick(m.size()));
          m.insert(m.end(),
                   other.begin() +
                       static_cast<std::ptrdiff_t>(pick(other.size())),
                   other.end());
          break;
        }
      }
      check(m, raw);
    }
  }
  // Both outcomes occur: the mutations reach past the first checks.
  EXPECT_GT(decoded, 100u);
  EXPECT_GT(rejected, 1000u);
}

TEST(DeltaFormat, VersionOneFilesAreRejected) {
  // Version 1 held LZSS tokens under the same codec id: a reader must
  // refuse the file, not misdecode its blocks.
  const OneBlockDelta d;
  drms::store::MemoryBackend storage;
  drms::store::FileHandle file =
      write_delta_file(storage, "d", d.header, d.payload,
                       encode_delta_index({d.record}).bytes());
  std::vector<std::string> problems;
  ASSERT_TRUE(verify_delta_file(storage, "d", file.size(), true, problems));
  support::ByteBuffer version;
  version.put_u32(1);
  file.write_at(4, version.bytes());
  EXPECT_THROW((void)read_delta_header(file, "d"), support::CorruptCheckpoint);
  EXPECT_FALSE(verify_delta_file(storage, "d", file.size(), false, problems));
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("unsupported delta version"), std::string::npos)
      << problems[0];
}

TEST(DeltaFormat, IndexCountBeyondItsBodyIsRejected) {
  // A CRC-consistent index whose header and body agree on a count far
  // beyond the records present: no reservation sized from it.
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 26}) {
    OneBlockDelta d;
    d.header.record_count = count;
    drms::store::MemoryBackend storage;
    const drms::store::FileHandle file =
        write_delta_file(storage, "d", d.header, d.payload,
                         framed_index(count, {d.record}).bytes());
    const DeltaFileHeader h = read_delta_header(file, "d");
    EXPECT_THROW((void)read_delta_index(file, h, "d"),
                 support::CorruptCheckpoint)
        << count;
  }
}

TEST(DeltaFormat, RecordRawSizeOutsideTheBlockTargetIsRejected) {
  for (const std::uint64_t raw_bytes : {std::uint64_t{0}, std::uint64_t{65}}) {
    OneBlockDelta d;
    d.record.raw_bytes = raw_bytes;
    drms::store::MemoryBackend storage;
    const drms::store::FileHandle file =
        write_delta_file(storage, "d", d.header, d.payload,
                         encode_delta_index({d.record}).bytes());
    const DeltaFileHeader h = read_delta_header(file, "d");
    EXPECT_THROW((void)read_delta_index(file, h, "d"),
                 support::CorruptCheckpoint)
        << raw_bytes;
  }
}

TEST(DeltaFormat, RawAndEncodedBlocksReadBackAndVerify) {
  // Tagged values (LZ shrinks them) in the z < 4 half of an 8^3 array,
  // large random integers (stored raw) in the rest, in 512-byte blocks.
  // Restore and deep verify take both kinds, and catch a flipped byte in
  // a raw block, which they check by one CRC.
  constexpr int kTasks = 2;
  const Slice box = cube(kN);
  const StreamPlan plan = make_stream_plan(box, sizeof(double), 1, 512);
  std::vector<std::uint64_t> dirty(plan.chunk_count());
  std::iota(dirty.begin(), dirty.end(), 0);
  const auto value = [](std::span<const Index> p) {
    if (p[2] < kN / 2) {
      return tag_of(p);
    }
    std::uint64_t x =
        static_cast<std::uint64_t>(tag_of(p)) * 0x9e3779b97f4a7c15ull;
    x ^= x >> 29;
    return static_cast<double>(x);
  };
  drms::store::MemoryBackend storage;
  drms::store::FileHandle file = storage.create("d");
  std::vector<DeltaBlockRecord> records;
  const auto run = [&](bool write) {
    DistArray array("u", box, sizeof(double), kTasks);
    TaskGroup group(placement_of(kTasks));
    return group.run([&](TaskContext& ctx) {
      if (ctx.rank() == 0) {
        array.install_distribution(
            DistSpec::block_auto(box, kTasks, std::vector<Index>(3, 0)));
      }
      ctx.barrier();
      const ArrayStreamer streamer(nullptr, {});
      LocalArray& local = array.local(ctx.rank());
      const Slice& mine = array.distribution().assigned(ctx.rank());
      if (write) {
        mine.for_each_column_major(
            [&](std::span<const Index> p) { local.set_f64(p, value(p)); });
        ctx.barrier();
        auto res = streamer.write_delta_blocks(ctx, array, plan, dirty, file,
                                               kTasks, BlockCodec::kLz);
        if (ctx.rank() == 0) {
          records = std::move(res.records);
        }
        return;
      }
      streamer.apply_delta_blocks(ctx, array, plan, records, file, kTasks);
      mine.for_each_column_major([&](std::span<const Index> p) {
        EXPECT_EQ(local.get_f64(p), value(p));
      });
    });
  };
  ASSERT_TRUE(run(true).completed);
  const auto stored_as = [&](BlockCodec codec) {
    return std::find_if(records.begin(), records.end(),
                        [&](const DeltaBlockRecord& r) {
                          return r.codec == codec;
                        });
  };
  ASSERT_NE(stored_as(BlockCodec::kLz), records.end());
  const auto raw_block = stored_as(BlockCodec::kRaw);
  ASSERT_NE(raw_block, records.end());
  EXPECT_EQ(raw_block->stored_crc, raw_block->raw_crc);
  EXPECT_TRUE(run(false).completed);

  DeltaFileHeader h;
  h.block_bytes = 512;
  h.total_blocks = plan.chunk_count();
  h.record_count = records.size();
  for (const DeltaBlockRecord& r : records) {
    h.payload_bytes += r.stored_bytes;
    h.raw_bytes += r.raw_bytes;
  }
  h.index_offset = wire::kDeltaHeaderBytes + h.payload_bytes;
  file.write_at(0, encode_delta_header(h).bytes());
  file.write_at(h.index_offset, encode_delta_index(records).bytes());
  std::vector<std::string> problems;
  EXPECT_TRUE(verify_delta_file(storage, "d", file.size(), true, problems));

  const std::uint64_t at =
      wire::kDeltaHeaderBytes + raw_block->payload_offset + 3;
  std::vector<std::byte> byte = file.read_at(at, 1);
  byte[0] ^= std::byte{0x01};
  file.write_at(at, byte);
  const std::string mismatch =
      "block " + std::to_string(raw_block->block_index) +
      " stored CRC mismatch";
  EXPECT_FALSE(verify_delta_file(storage, "d", file.size(), true, problems));
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find(mismatch), std::string::npos) << problems[0];
  const auto corrupt = run(false);
  ASSERT_FALSE(corrupt.completed);
  EXPECT_TRUE(std::any_of(corrupt.errors.begin(), corrupt.errors.end(),
                          [&](const std::string& e) {
                            return e.find("delta block " +
                                          std::to_string(
                                              raw_block->block_index) +
                                          ": stored CRC mismatch") !=
                                   std::string::npos;
                          }));
}

TEST(DeltaTracking, MutationLogDegradesToMarkAll) {
  MutationLog log;
  EXPECT_TRUE(log.clean());
  const Slice s = cube(2);
  log.mark(s);
  EXPECT_FALSE(log.clean());
  EXPECT_FALSE(log.all);
  EXPECT_TRUE(log.intersects(cube(8)));
  for (std::size_t i = 0; i < MutationLog::kMaxSlices + 1; ++i) {
    log.mark(s);
  }
  EXPECT_TRUE(log.all) << "the slice list must overflow into mark-all";
  log.clear();
  EXPECT_TRUE(log.clean());
}

TEST(DeltaTracking, WritePathsMarkAndConstPathsDoNot) {
  LocalArray local(cube(4), sizeof(double));
  MutationLog log;
  local.attach_mutation_log(&log);

  // Const reads leave the log clean.
  (void)static_cast<const LocalArray&>(local).as_f64();
  (void)static_cast<const LocalArray&>(local).bytes();
  const std::array<Index, 3> p{1, 2, 3};
  (void)local.get_f64(p);
  EXPECT_TRUE(log.clean());

  // set_f64 marks the point.
  local.set_f64(p, 7.0);
  EXPECT_FALSE(log.clean());
  EXPECT_FALSE(log.all);
  log.clear();

  // insert marks its target slice.
  const Slice slab =
      Slice::box(std::array<Index, 3>{0, 0, 0}, std::array<Index, 3>{3, 3, 0});
  std::vector<std::byte> buf(
      static_cast<std::size_t>(slab.element_count()) * sizeof(double));
  local.insert(slab, buf);
  EXPECT_FALSE(log.clean());
  EXPECT_TRUE(log.intersects(slab));
  log.clear();

  // Raw-span access is conservative: everything goes dirty.
  (void)local.as_f64();
  EXPECT_TRUE(log.all);
}

TEST(DeltaTracking, CollectDirtyBlocksIsPrecise) {
  constexpr int kP = 2;
  DistArray array("u", cube(kN), sizeof(double), kP);
  array.enable_dirty_tracking();
  array.install_distribution(
      DistSpec::block_auto(cube(kN), kP, std::vector<Index>(3, 0)));

  // 8^3 doubles in 512-byte blocks -> 8 blocks of 64 elements each.
  const StreamPlan plan = make_stream_plan(cube(kN), sizeof(double), 1, 512);
  ASSERT_EQ(plan.chunk_count(), 8u);

  // Fresh logs start all-dirty (everything must land in the first
  // generation).
  EXPECT_EQ(collect_dirty_blocks(array, plan.chunks).size(), 8u);

  array.clear_mutation_logs();
  EXPECT_TRUE(collect_dirty_blocks(array, plan.chunks).empty());

  // One point dirtied -> exactly the covering block comes back.
  const std::array<Index, 3> p{0, 0, 0};
  array.local(0).set_f64(p, 1.0);
  const std::vector<std::uint64_t> dirty =
      collect_dirty_blocks(array, plan.chunks);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 0u);

  array.mark_all_dirty();
  EXPECT_EQ(collect_dirty_blocks(array, plan.chunks).size(), 8u);
}

/// One-array app under delta mode: checkpoints at every even iteration
/// under per-generation prefixes "<stem>.g<k>"; mutates one plane of the
/// array each iteration through the precise write path.
struct DeltaApp {
  static void run(DrmsProgram& program, TaskContext& ctx, int iterations,
                  const std::string& stem) {
    DrmsContext drms(program, ctx);
    std::int64_t it = 0;
    drms.store().register_i64("it", &it);
    drms.initialize();

    const std::array<Index, 3> lo{0, 0, 0};
    const std::array<Index, 3> hi{kN - 1, kN - 1, kN - 1};
    DistArray& u = drms.create_array("u", lo, hi);
    DistArray& cold = drms.create_array("cold", lo, hi);
    const DistSpec spec = DistSpec::block_auto(
        cube(kN), ctx.size(), std::vector<Index>(3, 0));
    drms.distribute(u, spec);
    drms.distribute(cold, spec);

    if (!drms.restarted()) {
      const Slice& mine = spec.assigned(ctx.rank());
      mine.for_each_column_major([&](std::span<const Index> p) {
        u.local(ctx.rank()).set_f64(p, tag_of(p));
        cold.local(ctx.rank()).set_f64(p, 3.0 * tag_of(p));
      });
      ctx.barrier();
    }

    while (it < iterations) {
      if (it > 0 && it % 2 == 0) {
        (void)drms.reconfig_checkpoint(stem + ".g" + std::to_string(it));
      }
      // Touch only the global z == 0 plane — a task-count-independent
      // mutation (each task scales whatever part of the plane it owns),
      // recorded precisely by the set_f64 hook.
      const Slice& mine = u.distribution().assigned(ctx.rank());
      mine.for_each_column_major([&](std::span<const Index> p) {
        if (p[2] == 0) {
          u.local(ctx.rank())
              .set_f64(p, u.local(ctx.rank()).get_f64(p) * 1.01);
        }
      });
      ctx.barrier();
      ++it;
    }
  }
};

double digest(DrmsProgram& program, TaskContext& ctx,
              const std::string& name) {
  double sum = 0.0;
  if (ctx.rank() == 0) {
    DrmsContext view(program, ctx);
    DistArray& a = view.array(name);
    cube(kN).for_each_column_major(
        [&](std::span<const Index> p) { sum += a.get_f64(p); });
  }
  ctx.barrier();
  return sum;
}

DrmsEnv delta_env(Volume& volume, int full_every_k,
                  const std::string& restart = "") {
  DrmsEnv env;
  env.storage = &volume.backend();
  env.delta = true;
  env.delta_full_every_k = full_every_k;
  env.delta_block_bytes = 512;  // 8 stream blocks over the 8^3 array
  env.restart_prefix = restart;
  return env;
}

TEST(DeltaChain, GenerationsAlternatePerPolicy) {
  Volume volume(16);
  DrmsProgram program("dc", delta_env(volume, 2), tiny_segment(), 4);
  TaskGroup group(placement_of(4));
  const auto result = group.run([&](TaskContext& ctx) {
    DeltaApp::run(program, ctx, 9, "dc");  // checkpoints at it=2,4,6,8
  });
  ASSERT_TRUE(result.completed);

  // full_every_k=2: full, delta-on-g2, full, delta-on-g6.
  EXPECT_EQ(read_checkpoint_meta(volume, "dc.g2").kind, GenerationKind::kFull);
  const CheckpointMeta g4 = read_checkpoint_meta(volume, "dc.g4");
  EXPECT_EQ(g4.kind, GenerationKind::kDelta);
  EXPECT_EQ(g4.base_prefix, "dc.g2");
  EXPECT_EQ(g4.chain_depth, 1);
  EXPECT_EQ(read_checkpoint_meta(volume, "dc.g6").kind, GenerationKind::kFull);
  const CheckpointMeta g8 = read_checkpoint_meta(volume, "dc.g8");
  EXPECT_EQ(g8.kind, GenerationKind::kDelta);
  EXPECT_EQ(g8.base_prefix, "dc.g6");

  // The delta's array files exist in the delta layout; the cold array
  // (never written after the base) stores zero blocks but the file is
  // still published so the chain walk sees a complete state.
  EXPECT_TRUE(volume.exists(delta_array_file_name("dc.g8", "u")));
  const ArrayMeta& cold = g8.array("cold");
  EXPECT_EQ(cold.dirty_blocks, 0u);
  EXPECT_GT(g8.array("u").dirty_blocks, 0u);

  const DeltaChainState state = program.delta_chain_state();
  EXPECT_EQ(state.last_kind, GenerationKind::kDelta);
  EXPECT_GT(state.last_stored_bytes, 0u);
  EXPECT_EQ(state.chain.size(), 2u);
  EXPECT_EQ(state.chain.back(), "dc.g8");
}

TEST(DeltaChain, RestartFromChainTipIsExactAcrossTaskCounts) {
  // Reference: same app, plain full dumps, run to completion.
  const auto run_app = [&](Volume& volume, int tasks, bool delta,
                           const std::string& restart) {
    DrmsEnv env = delta_env(volume, 4, restart);
    env.delta = delta;
    DrmsProgram program("dc", env, tiny_segment(), tasks);
    TaskGroup group(placement_of(tasks));
    double sum = 0.0;
    const auto result = group.run([&](TaskContext& ctx) {
      DeltaApp::run(program, ctx, 9, "dc");
      const double d = digest(program, ctx, "u");
      if (ctx.rank() == 0) {
        sum = d;
      }
    });
    EXPECT_TRUE(result.completed);
    return sum;
  };

  Volume ref_volume(16);
  const double reference = run_app(ref_volume, 4, false, "");

  Volume volume(16);
  (void)run_app(volume, 4, true, "");
  // full_every_k=4: g2 full, then g4/g6/g8 deltas — the tip is a depth-3
  // delta whose restore must replay the base plus three links, on a
  // DIFFERENT task count (chain replay is distribution-independent).
  const auto tip = latest_checkpoint(volume, "dc");
  ASSERT_TRUE(tip.has_value());
  ASSERT_EQ(tip->prefix, "dc.g8");
  ASSERT_EQ(tip->meta.chain_depth, 3);
  const double resumed = run_app(volume, 6, true, tip->prefix);
  EXPECT_EQ(resumed, reference);
}

TEST(DeltaChain, BlockTargetBelowOneElementIsCorrupt) {
  // The never-written array's delta holds no records, so only the
  // header's block target, set below one double, is wrong: the restart
  // must fail typed, not trip the block planner's precondition.
  Volume volume(16);
  {
    DrmsProgram program("dc", delta_env(volume, 4), tiny_segment(), 4);
    TaskGroup group(placement_of(4));
    ASSERT_TRUE(group
                    .run([&](TaskContext& ctx) {
                      DeltaApp::run(program, ctx, 9, "dc");
                    })
                    .completed);
  }
  auto file = volume.backend().open(delta_array_file_name("dc.g8", "cold"));
  ASSERT_EQ(read_delta_index(file, read_delta_header(file, "cold"), "cold")
                .size(),
            0u);
  support::ByteBuffer block_bytes;
  block_bytes.put_u64(4);
  file.write_at(8, block_bytes.bytes());  // after magic and version
  DrmsProgram restarted("dc", delta_env(volume, 4, "dc.g8"), tiny_segment(),
                        4);
  TaskGroup group(placement_of(4));
  const auto result = group.run(
      [&](TaskContext& ctx) { DeltaApp::run(restarted, ctx, 9, "dc"); });
  ASSERT_FALSE(result.completed);
  EXPECT_NE(result.kill_reason.find("block target is smaller than one element"),
            std::string::npos)
      << result.kill_reason;
}

TEST(DeltaChain, DeepVerifyWalksChainAndCatchesCorruption) {
  Volume volume(16);
  DrmsProgram program("dc", delta_env(volume, 4), tiny_segment(), 4);
  TaskGroup group(placement_of(4));
  const auto result = group.run([&](TaskContext& ctx) {
    DeltaApp::run(program, ctx, 9, "dc");  // g2 full; g4,g6,g8 deltas
  });
  ASSERT_TRUE(result.completed);

  const auto tip = latest_checkpoint(volume, "dc");
  ASSERT_TRUE(tip.has_value());
  EXPECT_EQ(tip->prefix, "dc.g8");
  EXPECT_TRUE(verify_checkpoint(volume, *tip, /*deep=*/true).ok);

  // Corrupt one payload byte of an ANCESTOR delta (g4's u file): only the
  // whole-chain walk can see it.
  {
    auto file = volume.backend().open(delta_array_file_name("dc.g4", "u"));
    std::byte flip[1];
    file.read_at_into(wire::kDeltaHeaderBytes, flip);
    flip[0] ^= std::byte{0xff};
    file.write_at(wire::kDeltaHeaderBytes, flip);
  }
  const VerifyResult bad = verify_checkpoint(volume, *tip, /*deep=*/true);
  EXPECT_FALSE(bad.ok);
  ASSERT_FALSE(bad.problems.empty());
}

TEST(DeltaChain, GcKeepsBaseAcrossChainBoundary) {
  Volume volume(16);
  DrmsProgram program("dc", delta_env(volume, 2), tiny_segment(), 4);
  TaskGroup group(placement_of(4));
  const auto result = group.run([&](TaskContext& ctx) {
    DeltaApp::run(program, ctx, 9, "dc");
  });
  ASSERT_TRUE(result.completed);
  // States: g2 full, g4 delta(g2), g6 full, g8 delta(g6).

  // keep_last_k=1 spans the g8 -> g6 chain boundary: g6 must survive as
  // g8's base even though retention alone would retire it.
  const int removed = gc_superseded_states(volume.backend(), "dc", "", 1);
  EXPECT_EQ(removed, 2);
  EXPECT_TRUE(checkpoint_exists(volume, "dc.g8"));
  EXPECT_TRUE(checkpoint_exists(volume, "dc.g6"));
  EXPECT_FALSE(commit_manifest_exists(volume, "dc.g4"));
  EXPECT_FALSE(commit_manifest_exists(volume, "dc.g2"));

  // The surviving chain still restores: the tip stays a valid candidate.
  const VerifyResult v = verify_checkpoint(
      volume, *latest_checkpoint(volume.backend(), "dc"), /*deep=*/true);
  EXPECT_TRUE(v.ok) << (v.problems.empty() ? "" : v.problems.front());
}

TEST(DeltaChain, BrokenBaseMakesDeltaTorn) {
  Volume volume(16);
  DrmsProgram program("dc", delta_env(volume, 2), tiny_segment(), 4);
  TaskGroup group(placement_of(4));
  const auto result = group.run([&](TaskContext& ctx) {
    DeltaApp::run(program, ctx, 5, "dc");  // g2 full, g4 delta(g2)
  });
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(commit_status(volume, "dc.g4", false).committed);

  // Decommit the base: every delta that depends on it becomes torn.
  ASSERT_TRUE(decommit_checkpoint(volume.backend(), "dc.g2"));

  const CommitCheck check = commit_status(volume, "dc.g4", false);
  EXPECT_FALSE(check.committed);
  ASSERT_FALSE(check.problems.empty());

  // Not a restart candidate anymore...
  for (const auto& r : restart_candidates(volume, "dc")) {
    EXPECT_NE(r.prefix, "dc.g4");
  }
  // ...and fsck surfaces it as a torn state with reclaimable files.
  bool flagged = false;
  for (const auto& s : fsck_scan(volume, "dc.g4")) {
    if (s.prefix == "dc.g4") {
      flagged = true;
      EXPECT_FALSE(s.committed);
      EXPECT_FALSE(s.problems.empty());
    }
  }
  EXPECT_TRUE(flagged);
}

}  // namespace
