// Tests for block-level delta generations: the block codecs (known-answer
// + property tests mirroring the CRC suite, and seeded mutations of real
// streams), the delta file's header and index checks (and seeded
// mutations of real files), the runtime dirty tracking, the chained
// write/restore path (a restart reads each block once, from the newest
// link that holds it), and the chain-aware catalog (GC keeps a base alive
// while a kept delta depends on it; fsck reports a delta whose base is
// gone as torn).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/checkpoint_catalog.hpp"
#include "core/checkpoint_format.hpp"
#include "core/delta_format.hpp"
#include "core/drms_context.hpp"
#include "core/partial_restore.hpp"
#include "core/streamer.hpp"
#include "obs/instrumented_backend.hpp"
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
  ASSERT_TRUE(verify_delta_file(file, "d", true, problems));
  support::ByteBuffer version;
  version.put_u32(1);
  file.write_at(4, version.bytes());
  EXPECT_THROW((void)read_delta_header(file, "d"), support::CorruptCheckpoint);
  EXPECT_FALSE(verify_delta_file(file, "d", false, problems));
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

TEST(DeltaFormat, RepeatedOrDescendingBlockIndexIsRejected) {
  // Two CRC-consistent records over a two-block file: restore takes a
  // block at most once per file, so the index must name blocks in
  // strictly ascending order. The ascending pair is the control.
  for (const auto& [first, second] :
       {std::pair<std::uint64_t, std::uint64_t>{0, 1}, {1, 1}, {1, 0}}) {
    OneBlockDelta d;
    d.header.total_blocks = 2;
    d.header.record_count = 2;
    DeltaBlockRecord a = d.record;
    a.block_index = first;
    DeltaBlockRecord b = d.record;
    b.block_index = second;
    drms::store::MemoryBackend storage;
    const drms::store::FileHandle file =
        write_delta_file(storage, "d", d.header, d.payload,
                         encode_delta_index({a, b}).bytes());
    const DeltaFileHeader h = read_delta_header(file, "d");
    if (first < second) {
      EXPECT_EQ(read_delta_index(file, h, "d").size(), 2u);
      continue;
    }
    try {
      (void)read_delta_index(file, h, "d");
      ADD_FAILURE() << "blocks " << first << ", " << second << " accepted";
    } catch (const support::CorruptCheckpoint& e) {
      EXPECT_NE(std::string(e.what()).find("repeats or reorders a block"),
                std::string::npos)
          << e.what();
    }
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
  EXPECT_TRUE(verify_delta_file(file, "d", true, problems));

  const std::uint64_t at =
      wire::kDeltaHeaderBytes + raw_block->payload_offset + 3;
  std::vector<std::byte> byte = file.read_at(at, 1);
  byte[0] ^= std::byte{0x01};
  file.write_at(at, byte);
  const std::string mismatch =
      "delta block " + std::to_string(raw_block->block_index) +
      ": stored CRC mismatch";
  EXPECT_FALSE(verify_delta_file(file, "d", true, problems));
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

/// Three-array app under delta mode: checkpoints at every even iteration
/// under per-generation prefixes "<stem>.g<k>". Each iteration rewrites
/// `hot` whole and one plane of `u`, both through the precise write path;
/// `cold` is never written after the first generation.
struct DeltaApp {
  static constexpr std::array<const char*, 3> kArrays{"u", "cold", "hot"};

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
    DistArray& hot = drms.create_array("hot", lo, hi);
    const DistSpec spec = DistSpec::block_auto(
        cube(kN), ctx.size(), std::vector<Index>(3, 0));
    drms.distribute(u, spec);
    drms.distribute(cold, spec);
    drms.distribute(hot, spec);

    if (!drms.restarted()) {
      const Slice& mine = spec.assigned(ctx.rank());
      mine.for_each_column_major([&](std::span<const Index> p) {
        u.local(ctx.rank()).set_f64(p, tag_of(p));
        cold.local(ctx.rank()).set_f64(p, 3.0 * tag_of(p));
        hot.local(ctx.rank()).set_f64(p, tag_of(p));
      });
      ctx.barrier();
    }

    while (it < iterations) {
      if (it > 0 && it % 2 == 0) {
        (void)drms.reconfig_checkpoint(stem + ".g" + std::to_string(it));
      }
      // Touch only the global z == 0 plane of u — a task-count-independent
      // mutation (each task scales whatever part of the plane it owns),
      // recorded precisely by the set_f64 hook — and every element of hot.
      const Slice& mine = u.distribution().assigned(ctx.rank());
      mine.for_each_column_major([&](std::span<const Index> p) {
        if (p[2] == 0) {
          u.local(ctx.rank())
              .set_f64(p, u.local(ctx.rank()).get_f64(p) * 1.01);
        }
        hot.local(ctx.rank())
            .set_f64(p, hot.local(ctx.rank()).get_f64(p) + 1.0);
      });
      ctx.barrier();
      ++it;
    }
  }

  /// The value of `name` at p in the state checkpointed at iteration `it`.
  static double value_at(const std::string& name, std::span<const Index> p,
                         int it) {
    if (name == "cold") {
      return 3.0 * tag_of(p);
    }
    double v = tag_of(p);
    for (int i = 0; i < it; ++i) {
      if (name == "hot") {
        v += 1.0;
      } else if (p[2] == 0) {
        v *= 1.01;
      }
    }
    return v;
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

/// Runs DeltaApp on 4 tasks to iteration 9: g2 full, then the depth-3
/// chain of deltas g4, g6 and g8. Run to 11, it adds g10, a full
/// generation.
bool write_chain(Volume& volume, int iterations = 9) {
  DrmsProgram program("dc", delta_env(volume, 4), tiny_segment(), 4);
  TaskGroup group(placement_of(4));
  return group
      .run([&](TaskContext& ctx) {
        DeltaApp::run(program, ctx, iterations, "dc");
      })
      .completed;
}

std::vector<DeltaBlockRecord> index_of(Volume& volume,
                                       const std::string& file_name) {
  const drms::store::FileHandle file = volume.open(file_name);
  return read_delta_index(file, read_delta_header(file, file_name),
                          file_name);
}

/// A restart of DeltaApp from the chain tip dc.g8 on 6 tasks, and the
/// number of restored elements that differ from the failure-free state.
struct TipRestart {
  drms::rt::TaskGroupResult run;
  int mismatches = 0;
};

TipRestart restart_from_tip(Volume& volume,
                            drms::store::StorageBackend& storage) {
  DrmsEnv env = delta_env(volume, 4, "dc.g8");
  env.storage = &storage;
  DrmsProgram program("dc", env, tiny_segment(), 6);
  TaskGroup group(placement_of(6));
  TipRestart restart;
  restart.run = group.run([&](TaskContext& ctx) {
    DeltaApp::run(program, ctx, 8, "dc");  // resumes at 8: no step runs
    if (ctx.rank() == 0) {
      DrmsContext view(program, ctx);
      for (const char* name : DeltaApp::kArrays) {
        DistArray& a = view.array(name);
        cube(kN).for_each_column_major([&](std::span<const Index> p) {
          restart.mismatches += a.get_f64(p) != DeltaApp::value_at(name, p, 8);
        });
      }
    }
  });
  return restart;
}

/// Bytes an InstrumentedBackend saw read from `file`, counting only the
/// part of each read inside [lo, hi).
std::uint64_t bytes_read(const drms::obs::Recorder& rec,
                         const std::string& file, std::uint64_t lo = 0,
                         std::uint64_t hi = UINT64_MAX) {
  std::uint64_t total = 0;
  for (const drms::obs::SpanRecord& s : rec.spans()) {
    const drms::obs::Attr* name = s.attr("file");
    if (s.category != "store" || s.name != "read_at" || name == nullptr ||
        name->text != file) {
      continue;
    }
    const auto begin = static_cast<std::uint64_t>(s.attr_num("offset"));
    const auto end = begin + static_cast<std::uint64_t>(s.attr_num("bytes"));
    if (std::min(end, hi) > std::max(begin, lo)) {
      total += std::min(end, hi) - std::max(begin, lo);
    }
  }
  return total;
}

/// `op` operations (open, read_at, ...) an InstrumentedBackend saw on
/// `file`.
int ops_on(const drms::obs::Recorder& rec, const std::string& file,
           const std::string& op) {
  int n = 0;
  for (const drms::obs::SpanRecord& s : rec.spans()) {
    const drms::obs::Attr* name = s.attr("file");
    n += s.category == "store" && s.name == op && name != nullptr &&
         name->text == file;
  }
  return n;
}

/// Payload bytes read from a delta file: its reads between the header and
/// the index.
std::uint64_t payload_read(const drms::obs::Recorder& rec, Volume& volume,
                           const std::string& file_name) {
  const drms::store::FileHandle file = volume.open(file_name);
  return bytes_read(rec, file_name, wire::kDeltaHeaderBytes,
                    read_delta_header(file, file_name).index_offset);
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

TEST(DeltaFormat, MutatedHeadersAndIndexesParseOrThrowTyped) {
  // Seeded mutations of the 64-byte header and of the index frame of
  // the delta files a DeltaApp chain writes (per link: hot 8 records, u
  // 1, cold none). Each input must parse or throw CorruptCheckpoint, and
  // a parse it accepts must give restore what it relies on: strictly
  // ascending block indexes below total_blocks, raw sizes within the
  // block target, and payload ranges inside the payload. A mutated index
  // body is reframed with its CRC, so the record checks are reached.
  Volume volume(16);
  ASSERT_TRUE(write_chain(volume));
  struct Seed {
    std::vector<std::byte> bytes;
    std::size_t index_offset = 0;
  };
  std::vector<Seed> corpus;
  for (const int g : {4, 6, 8}) {
    for (const char* name : DeltaApp::kArrays) {
      const std::string file_name =
          delta_array_file_name("dc.g" + std::to_string(g), name);
      const drms::store::FileHandle file = volume.open(file_name);
      corpus.push_back(
          {file.read_at(0, file.size()),
           static_cast<std::size_t>(
               read_delta_header(file, file_name).index_offset)});
    }
  }

  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  drms::store::MemoryBackend storage;
  const auto check = [&](const std::vector<std::byte>& bytes) {
    drms::store::FileHandle file = storage.create("m");
    if (!bytes.empty()) {
      file.write_at(0, bytes);
    }
    DeltaFileHeader h;
    std::vector<DeltaBlockRecord> records;
    try {
      h = read_delta_header(file, "m");
      records = read_delta_index(file, h, "m");
    } catch (const support::CorruptCheckpoint&) {
      ++rejected;
      return;
    }
    ++accepted;
    EXPECT_EQ(records.size(), h.record_count);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const DeltaBlockRecord& r = records[i];
      EXPECT_LT(r.block_index, h.total_blocks);
      if (i > 0) {
        EXPECT_GT(r.block_index, records[i - 1].block_index);
      }
      EXPECT_GT(r.raw_bytes, 0u);
      EXPECT_LE(r.raw_bytes, h.block_bytes);
      ASSERT_LE(r.stored_bytes, h.payload_bytes);
      EXPECT_LE(r.payload_offset, h.payload_bytes - r.stored_bytes);
    }
  };

  std::mt19937_64 rng(0x64656c7461);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (const Seed& seed : corpus) {
    check(seed.bytes);
    const std::size_t body = seed.index_offset + 4 + 8;  // after crc, size
    for (int k = 0; k < 400; ++k) {
      std::vector<std::byte> m = seed.bytes;
      const bool header = k % 2 == 0;
      const std::size_t lo = header ? 0 : seed.index_offset;
      const std::size_t hi = header ? wire::kDeltaHeaderBytes : m.size();
      const std::size_t at = lo + pick(hi - lo);
      switch (k / 2 % 5) {
        case 0:
          m[at] ^= static_cast<std::byte>(1u << pick(8));
          break;
        case 1:
          m[at] = std::byte{0x00};
          break;
        case 2:
          m[at] = std::byte{0xff};
          break;
        case 3:
          m[at] = static_cast<std::byte>(rng());
          break;
        default:
          m.resize(at);
          break;
      }
      if (m.size() == seed.bytes.size() && at >= body) {
        support::ByteBuffer crc;
        crc.put_u32(support::crc32c(std::span(m).subspan(body)));
        std::copy(crc.bytes().begin(), crc.bytes().end(),
                  m.begin() + static_cast<std::ptrdiff_t>(seed.index_offset));
      }
      check(m);
    }
  }
  // Both outcomes occur: the mutations reach past the first checks.
  EXPECT_GT(accepted, 500u);
  EXPECT_GT(rejected, 1000u);
}

TEST(DeltaChain, RestartReadsEachBlockOnceFromItsNewestLink) {
  // DeltaApp's tip g8: hot's newest link holds every block, u's only the
  // z == 0 plane block, cold's none. A restart reads each byte once, from
  // the newest link that holds it: hot's base and older payloads are never
  // read, u's base is read whole plus only the newest plane block.
  Volume volume(16);
  ASSERT_TRUE(write_chain(volume));
  const auto delta = [](int g, const char* name) {
    return delta_array_file_name("dc.g" + std::to_string(g), name);
  };
  const auto newest_payload = [&](const char* name) {
    const drms::store::FileHandle file = volume.open(delta(8, name));
    return read_delta_header(file, delta(8, name)).payload_bytes;
  };
  const std::vector<DeltaBlockRecord> plane = index_of(volume, delta(8, "u"));
  ASSERT_EQ(plane.size(), 1u);
  ASSERT_EQ(plane[0].block_index, 0u);
  ASSERT_EQ(index_of(volume, delta(8, "hot")).size(), 8u);
  const std::string base_u = array_file_name("dc.g2", "u");
  const std::string base_hot = array_file_name("dc.g2", "hot");
  const std::uint64_t array_bytes = kN * kN * kN * sizeof(double);
  const auto expect_older_payloads_unread =
      [&](const drms::obs::Recorder& rec) {
        for (const char* name : {"u", "hot"}) {
          EXPECT_EQ(payload_read(rec, volume, delta(4, name)), 0u) << name;
          EXPECT_EQ(payload_read(rec, volume, delta(6, name)), 0u) << name;
        }
      };

  {
    drms::obs::Recorder rec;
    drms::obs::InstrumentedBackend storage(volume.backend(), &rec, "pio");
    const TipRestart restart = restart_from_tip(volume, storage);
    ASSERT_TRUE(restart.run.completed) << restart.run.kill_reason;
    EXPECT_EQ(restart.mismatches, 0);
    EXPECT_EQ(bytes_read(rec, base_hot), 0u);
    EXPECT_EQ(bytes_read(rec, base_u), array_bytes);
    expect_older_payloads_unread(rec);
    for (const char* name : {"u", "hot"}) {
      EXPECT_EQ(payload_read(rec, volume, delta(8, name)),
                newest_payload(name))
          << name;
    }
    // The chain resolves once per restart over the commit manifests: task
    // 0 opens and reads every member's manifest once and the base's meta
    // once for the whole group. Each of the 6 tasks reads the tip's meta
    // (its own) once, and no task reads any other meta.
    drms::obs::Recorder one;
    drms::obs::InstrumentedBackend probe(volume.backend(), &one, "pio");
    MetaCache metas;  // the base walk reads g2's manifest and meta once
    (void)walk_checkpoint_chain(probe, "dc.g2", false, metas);
    const int reads_per_meta = ops_on(one, meta_file_name("dc.g2"), "read_at");
    const int reads_per_commit =
        ops_on(one, commit_file_name("dc.g2"), "read_at");
    ASSERT_GT(reads_per_meta, 0);
    ASSERT_GT(reads_per_commit, 0);
    for (const char* link : {"dc.g2", "dc.g4", "dc.g6", "dc.g8"}) {
      EXPECT_EQ(ops_on(rec, commit_file_name(link), "open"), 1) << link;
      EXPECT_EQ(ops_on(rec, commit_file_name(link), "read_at"),
                reads_per_commit)
          << link;
      const int meta_reads = std::string(link) == "dc.g8"   ? 6
                             : std::string(link) == "dc.g2" ? 1
                                                            : 0;
      EXPECT_EQ(ops_on(rec, meta_file_name(link), "open"), meta_reads)
          << link;
      EXPECT_EQ(ops_on(rec, meta_file_name(link), "read_at"),
                meta_reads * reads_per_meta)
          << link;
    }
  }

  // A partial restart at 3 tasks of slot 0 of the 4-task checkpoint. u's
  // base runs inside the newest plane block are skipped.
  const Slice lost =
      DistSpec::block_auto(cube(kN), 4, std::vector<Index>(3, 0)).assigned(0);
  const std::uint64_t plane_end = kN * kN * sizeof(double);
  std::uint64_t lost_bytes = 0;
  std::uint64_t u_base_bytes = 0;
  for (const StreamRun& run : stream_runs(cube(kN), lost, sizeof(double))) {
    lost_bytes += run.bytes;
    u_base_bytes += run.byte_offset + run.bytes > plane_end ? run.bytes : 0;
  }
  ASSERT_LT(u_base_bytes, lost_bytes);
  drms::obs::Recorder rec;
  drms::obs::InstrumentedBackend storage(volume.backend(), &rec, "pio");
  const CheckpointMeta meta = read_checkpoint_meta(volume, "dc.g8");
  const CheckpointChain chain = resolve_checkpoint_chain(volume, "dc.g8", meta);
  DistArray u("u", cube(kN), sizeof(double), 3);
  DistArray hot("hot", cube(kN), sizeof(double), 3);
  std::array<std::uint64_t, 2> read{};
  std::atomic<int> mismatches{0};
  TaskGroup group(placement_of(3));
  const auto run = group.run([&](TaskContext& ctx) {
    const std::array<DistArray*, 2> arrays{&u, &hot};
    if (ctx.rank() == 0) {
      for (DistArray* a : arrays) {
        a->install_distribution(
            DistSpec::block_auto(cube(kN), 3, std::vector<Index>(3, 0)));
      }
    }
    ctx.barrier();
    DrmsCheckpoint engine(storage, {});
    for (std::size_t i = 0; i < arrays.size(); ++i) {
      DistArray& a = *arrays[i];
      RestartTiming timing;
      const std::uint64_t bytes = engine.restore_array_sections(
          ctx, meta, chain, a, std::span(&lost, 1), timing);
      if (ctx.rank() == 0) {
        read[i] = bytes;
      }
      lost.intersect(a.distribution().assigned(ctx.rank()))
          .for_each_column_major([&](std::span<const Index> p) {
            mismatches += a.local(ctx.rank()).get_f64(p) !=
                          DeltaApp::value_at(a.name(), p, 8);
          });
    }
  });
  ASSERT_TRUE(run.completed) << run.kill_reason;
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(bytes_read(rec, base_hot), 0u);
  EXPECT_EQ(bytes_read(rec, base_u), u_base_bytes);
  expect_older_payloads_unread(rec);
  EXPECT_EQ(payload_read(rec, volume, delta(8, "u")), newest_payload("u"));
  EXPECT_EQ(read[0], u_base_bytes + newest_payload("u"));
  EXPECT_EQ(read[1], payload_read(rec, volume, delta(8, "hot")));
}

TEST(DeltaChain, RestartChecksEveryByteItKeeps) {
  // Every byte a restart lands has passed a CRC; a byte it would
  // overwrite is not read, and deep verify still walks every link.
  Volume volume(16);
  ASSERT_TRUE(write_chain(volume));
  const auto tip = latest_checkpoint(volume, "dc");
  ASSERT_TRUE(tip.has_value());
  ASSERT_EQ(tip->prefix, "dc.g8");
  const auto flip = [&](const std::string& file_name, std::uint64_t at) {
    drms::store::FileHandle file = volume.open(file_name);
    std::vector<std::byte> byte = file.read_at(at, 1);
    byte[0] ^= std::byte{0x40};
    file.write_at(at, byte);
  };
  const auto fails_with = [&](const std::string& message) {
    const TipRestart restart = restart_from_tip(volume, volume.backend());
    EXPECT_FALSE(restart.run.completed);
    EXPECT_NE(restart.run.kill_reason.find(message), std::string::npos)
        << restart.run.kill_reason;
  };

  // The newest link's u block lands: its stored CRC fails.
  const std::string newest = delta_array_file_name("dc.g8", "u");
  const DeltaBlockRecord block = index_of(volume, newest).at(0);
  const std::uint64_t in_block =
      wire::kDeltaHeaderBytes + block.payload_offset + 5;
  flip(newest, in_block);
  fails_with("delta block " + std::to_string(block.block_index) +
             ": stored CRC mismatch");
  flip(newest, in_block);

  // u's base is read whole: its stream CRC fails.
  const std::string base = array_file_name("dc.g2", "u");
  flip(base, 1000);
  fails_with("stream CRC mismatch");
  flip(base, 1000);

  // An older link's u block, which the newest link supersedes, is not
  // read: the restart stays bit-exact, and deep verify reports the file.
  const std::string older = delta_array_file_name("dc.g6", "u");
  flip(older, in_block);
  const TipRestart restart = restart_from_tip(volume, volume.backend());
  ASSERT_TRUE(restart.run.completed) << restart.run.kill_reason;
  EXPECT_EQ(restart.mismatches, 0);
  const VerifyResult verify = verify_checkpoint(volume, *tip, /*deep=*/true);
  EXPECT_FALSE(verify.ok);
  EXPECT_TRUE(std::any_of(verify.problems.begin(), verify.problems.end(),
                          [&](const std::string& p) {
                            return p.find(older) != std::string::npos;
                          }));
}

TEST(DeltaChain, DeepVerifyReadsEachChainMemberOnce) {
  // Selecting the tip opens each listed generation's meta once; deep
  // verify of the tip walks the chain once, opening each member's commit
  // manifest and meta once, and reads every byte of every member's
  // arrays: each base array file whole, each link's whole payload.
  Volume volume(16);
  ASSERT_TRUE(write_chain(volume));
  const std::array<std::string, 4> links{"dc.g2", "dc.g4", "dc.g6", "dc.g8"};
  std::optional<CheckpointRecord> tip;
  {
    drms::obs::Recorder rec;
    drms::obs::InstrumentedBackend storage(volume.backend(), &rec, "pio");
    tip = latest_checkpoint(storage, "dc");
    for (const std::string& link : links) {
      EXPECT_EQ(ops_on(rec, meta_file_name(link), "open"), 1) << link;
    }
  }
  ASSERT_TRUE(tip.has_value());
  ASSERT_EQ(tip->prefix, "dc.g8");
  drms::obs::Recorder rec;
  drms::obs::InstrumentedBackend storage(volume.backend(), &rec, "pio");
  const VerifyResult v = verify_checkpoint(storage, *tip, /*deep=*/true);
  EXPECT_TRUE(v.ok) << (v.problems.empty() ? "" : v.problems.front());
  for (const std::string& link : links) {
    EXPECT_EQ(ops_on(rec, commit_file_name(link), "open"), 1) << link;
    EXPECT_EQ(ops_on(rec, meta_file_name(link), "open"), 1) << link;
  }
  for (const char* name : DeltaApp::kArrays) {
    EXPECT_EQ(bytes_read(rec, array_file_name("dc.g2", name)),
              kN * kN * kN * sizeof(double))
        << name;
    for (std::size_t g = 1; g < links.size(); ++g) {
      const std::string file = delta_array_file_name(links[g], name);
      EXPECT_EQ(payload_read(rec, volume, file),
                read_delta_header(volume.open(file), file).payload_bytes)
          << file;
    }
  }
}

/// Rewrites `prefix`'s commit manifest through `edit`, CRC-consistent.
void rewrite_manifest(Volume& volume, const std::string& prefix,
                      const std::function<void(CommitManifest&)>& edit) {
  std::vector<std::string> problems;
  CommitManifest manifest = *check_commit(volume, prefix, problems);
  edit(manifest);
  volume.create(commit_file_name(prefix))
      .write_at(0, encode_commit_manifest(manifest).bytes());
}

/// Every reader's verdict on write_chain's tip dc.g8 once `corrupt` has
/// broken its chain (run to 11, so g10 is a full generation outside it):
/// commit_status, list_checkpoints, verify_checkpoint, both
/// resolve_checkpoint_chain overloads and a restart all report the
/// chain walk's first problem, and retention with g8 pinned keeps no
/// generation on the broken chain's account.
void expect_broken_chain_everywhere(
    const std::function<void(Volume&)>& corrupt) {
  Volume volume(16);
  ASSERT_TRUE(write_chain(volume, 11));
  ASSERT_TRUE(commit_status(volume, "dc.g8", false).committed);
  corrupt(volume);

  const CommitCheck check = commit_status(volume, "dc.g8", false);
  ASSERT_FALSE(check.committed);
  ASSERT_FALSE(check.problems.empty());
  const std::string& problem = check.problems.front();
  for (const auto& r : list_checkpoints(volume)) {
    EXPECT_NE(r.prefix, "dc.g8");
  }
  CheckpointRecord record;
  record.prefix = "dc.g8";
  record.meta = read_checkpoint_meta(volume, "dc.g8");
  EXPECT_EQ(verify_checkpoint(volume, record, /*deep=*/true).problems,
            check.problems);
  const auto throws_problem = [&](const auto& resolve) {
    try {
      resolve();
      ADD_FAILURE() << "the chain resolved";
    } catch (const support::CorruptCheckpoint& e) {
      EXPECT_EQ(e.what(), problem);
    }
  };
  throws_problem([&] { (void)resolve_checkpoint_chain(volume, "dc.g8"); });
  throws_problem([&] {
    (void)resolve_checkpoint_chain(volume, "dc.g8", record.meta);
  });
  const TipRestart restart = restart_from_tip(volume, volume.backend());
  EXPECT_FALSE(restart.run.completed);
  EXPECT_NE(restart.run.kill_reason.find(problem), std::string::npos)
      << restart.run.kill_reason;

  const std::array<std::string, 1> pin{"dc.g8"};
  (void)gc_superseded_states(volume.backend(), "dc", "", 1, pin);
  const auto left = restart_candidates(volume, "dc");
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].prefix, "dc.g10");
}

TEST(DeltaChain, CyclicManifestChainIsBrokenForEveryReader) {
  // g4's manifest names g6, which names g4: the metas still chain to g2.
  expect_broken_chain_everywhere([](Volume& volume) {
    rewrite_manifest(volume, "dc.g4",
                     [](CommitManifest& m) { m.base_prefix = "dc.g6"; });
  });
}

TEST(DeltaChain, SpmdBaseManifestIsBrokenForEveryReader) {
  expect_broken_chain_everywhere([](Volume& volume) {
    rewrite_manifest(volume, "dc.g2",
                     [](CommitManifest& m) { m.spmd = true; });
  });
}

TEST(DeltaChain, MemberMissingAListedFileIsBrokenForEveryReader) {
  // A file a restart of g8 never reads.
  expect_broken_chain_everywhere([](Volume& volume) {
    volume.remove(segment_file_name("dc.g6"));
  });
}

TEST(DeltaChain, BaseWhoseMetaIsADeltaIsBrokenForEveryReader) {
  // g2's meta file holds g4's delta meta, and g2's manifest lists it at
  // its size and CRC.
  expect_broken_chain_everywhere([](Volume& volume) {
    const drms::store::FileHandle g4 = volume.open(meta_file_name("dc.g4"));
    const std::vector<std::byte> image = g4.read_at(0, g4.size());
    volume.create(meta_file_name("dc.g2")).write_at(0, image);
    rewrite_manifest(volume, "dc.g2", [&](CommitManifest& m) {
      for (CommitEntry& e : m.entries) {
        if (e.name == meta_file_name("dc.g2")) {
          e.size = image.size();
          e.crc = support::crc32c(image);
        }
      }
    });
  });
}

TEST(DeltaChain, LinksWithDifferentBlockTargetsRestoreExactly) {
  // A full base, then deltas with 256-, 1024- and 512-byte blocks over
  // the 4096-byte stream of an 8^3 array of doubles. Block indexes name
  // different bytes in each grid: the 256-byte link's block 7 is bytes
  // [1792, 2048) and the 512-byte link's block 7 is [3584, 4096); the
  // 1024-byte link's block 0 reaches past the 512-byte link's block 0,
  // [0, 512), so it must still land before it.
  struct Link {
    std::uint64_t block_bytes;
    std::vector<std::pair<std::array<Index, 3>, double>> points;
    std::vector<std::uint64_t> blocks;
  };
  const std::vector<Link> links = {
      {512, {}, {}},
      {256, {{{0, 4, 3}, 1000.5}}, {7}},                     // byte 1792
      {1024, {{{3, 1, 1}, 2000.5}}, {0}},                    // byte 600
      {512, {{{0, 0, 0}, 3000.5}, {{0, 0, 7}, 3001.5}}, {0, 7}},
  };
  const auto expected = [&](std::span<const Index> p) {
    double v = tag_of(p);
    for (const Link& link : links) {
      for (const auto& [q, value] : link.points) {
        if (std::equal(q.begin(), q.end(), p.begin(), p.end())) {
          v = value;
        }
      }
    }
    return v;
  };
  const auto prefix = [](std::size_t g) {
    return "bt.g" + std::to_string(g);
  };

  drms::store::MemoryBackend storage;
  DistArray written("u", cube(kN), sizeof(double), 2);
  written.enable_dirty_tracking();
  DeltaChainState chain;
  TaskGroup writers(placement_of(2));
  const auto write = writers.run([&](TaskContext& ctx) {
    if (ctx.rank() == 0) {
      written.install_distribution(
          DistSpec::block_auto(cube(kN), 2, std::vector<Index>(3, 0)));
    }
    ctx.barrier();
    drms::test::fill_assigned_tagged(written, ctx.rank());
    DrmsCheckpoint engine(storage, {});
    for (std::size_t g = 0; g < links.size(); ++g) {
      const Slice& mine = written.distribution().assigned(ctx.rank());
      for (const auto& [q, value] : links[g].points) {
        if (mine.contains(q)) {
          written.local(ctx.rank()).set_f64(q, value);
        }
      }
      ctx.barrier();
      auto it = static_cast<std::int64_t>(g);
      ReplicatedStore store;
      store.register_i64("it", &it);
      DeltaOptions options;
      options.block_bytes = links[g].block_bytes;
      const std::array<DistArray*, 1> arrays{&written};
      (void)engine.write(ctx, prefix(g), "bt", it, store, arrays,
                         tiny_segment(), &options, &chain);
    }
  });
  ASSERT_TRUE(write.completed) << write.kill_reason;
  for (std::size_t g = 1; g < links.size(); ++g) {
    const std::string name = delta_array_file_name(prefix(g), "u");
    const drms::store::FileHandle file = storage.open(name);
    std::vector<std::uint64_t> blocks;
    for (const DeltaBlockRecord& r :
         read_delta_index(file, read_delta_header(file, name), name)) {
      blocks.push_back(r.block_index);
    }
    EXPECT_EQ(blocks, links[g].blocks) << name;
  }

  // Restore the tip at 3 tasks, whole and as one section spanning the box.
  const CheckpointMeta meta = read_checkpoint_meta(storage, prefix(3));
  ASSERT_EQ(meta.chain_depth, 3);
  DistArray whole("u", cube(kN), sizeof(double), 3);
  DistArray sections("u", cube(kN), sizeof(double), 3);
  std::atomic<int> mismatches{0};
  TaskGroup readers(placement_of(3));
  const auto read = readers.run([&](TaskContext& ctx) {
    const std::array<DistArray*, 2> arrays{&whole, &sections};
    if (ctx.rank() == 0) {
      for (DistArray* a : arrays) {
        a->install_distribution(
            DistSpec::block_auto(cube(kN), 3, std::vector<Index>(3, 0)));
      }
    }
    ctx.barrier();
    DrmsCheckpoint engine(storage, {});
    RestartTiming timing;
    const CheckpointChain chain =
        resolve_checkpoint_chain(storage, prefix(3), meta);
    engine.restore_array(ctx, meta, chain, whole, timing);
    const Slice box = cube(kN);
    (void)engine.restore_array_sections(ctx, meta, chain, sections,
                                        std::span(&box, 1), timing);
    for (DistArray* a : arrays) {
      a->distribution().assigned(ctx.rank()).for_each_column_major(
          [&](std::span<const Index> p) {
            mismatches += a->local(ctx.rank()).get_f64(p) != expected(p);
          });
    }
  });
  ASSERT_TRUE(read.completed) << read.kill_reason;
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
