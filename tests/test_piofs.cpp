// Tests for the PIOFS storage substrate: sparse extent files, volume
// namespace operations, stripe accounting, concurrency, and host
// import/export.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <optional>
#include <thread>

#include "piofs/extent_file.hpp"
#include "piofs/volume.hpp"
#include "store/memory_backend.hpp"
#include "support/error.hpp"
#include "support/units.hpp"

namespace {

using namespace drms::piofs;
using drms::support::IoError;
using drms::support::kMiB;

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>((i * 31 + seed) & 0xff);
  }
  return out;
}

TEST(ExtentFile, WriteReadRoundTrip) {
  ExtentFile f;
  const auto data = pattern(100000);
  f.write_at(12345, data);
  EXPECT_EQ(f.size(), 12345u + data.size());
  EXPECT_EQ(f.read_at(12345, data.size()), data);
}

TEST(ExtentFile, UnwrittenRegionsReadAsZero) {
  ExtentFile f;
  f.write_at(1000, pattern(10));
  const auto hole = f.read_at(0, 1000);
  for (const auto b : hole) {
    EXPECT_EQ(b, std::byte{0});
  }
}

TEST(ExtentFile, ZeroFillIsSparse) {
  ExtentFile f;
  f.write_zeros_at(0, 100 * kMiB);
  EXPECT_EQ(f.size(), 100 * kMiB);
  EXPECT_EQ(f.allocated_bytes(), 0u) << "zero-fill must not allocate";
  // And it still reads back as zeros.
  const auto data = f.read_at(50 * kMiB, 64);
  for (const auto b : data) {
    EXPECT_EQ(b, std::byte{0});
  }
}

TEST(ExtentFile, ZeroFillClearsExistingData) {
  ExtentFile f;
  f.write_at(0, pattern(256));
  f.write_zeros_at(100, 50);
  const auto data = f.read_at(0, 256);
  const auto ref = pattern(256);
  for (std::size_t i = 0; i < 256; ++i) {
    if (i >= 100 && i < 150) {
      EXPECT_EQ(data[i], std::byte{0});
    } else {
      EXPECT_EQ(data[i], ref[i]);
    }
  }
}

TEST(ExtentFile, CrossBlockWrites) {
  ExtentFile f;
  const std::uint64_t off = ExtentFile::kBlockSize - 17;
  const auto data = pattern(ExtentFile::kBlockSize + 40);
  f.write_at(off, data);
  EXPECT_EQ(f.read_at(off, data.size()), data);
}

/// Fills three files block by block with 0xA5, so their page-pool units
/// interleave: truncating or removing two of them leaves recycled units
/// in slabs that the third keeps mapped.
template <typename File>
void fill_interleaved(File& kept, File& a, File& b) {
  const std::vector<std::byte> fill(ExtentFile::kBlockSize, std::byte{0xA5});
  for (std::uint64_t i = 0; i < 16; ++i) {
    for (File* f : {&kept, &a, &b}) {
      f->write_at(i * ExtentFile::kBlockSize, fill);
    }
  }
}

void append_to(ExtentFile& f, std::span<const std::byte> data) {
  f.write_at(f.size(), data);
}
template <typename Handle>
void append_to(Handle& f, std::span<const std::byte> data) {
  f.append(data);
}

/// Partial-block writes into a new file, mirrored into a byte model whose
/// unwritten bytes are 0: a write at kBlockSize - 17 over blocks 0-2 (as
/// CrossBlockWrites does), a short write across the 4|5 boundary that
/// leaves block 3 a hole, zero fills inside written data and over a gap
/// past the end, and an append that starts block 7. Touches six blocks.
template <typename File>
std::vector<std::byte> write_partial_blocks(File& f) {
  constexpr std::uint64_t kB = ExtentFile::kBlockSize;
  std::vector<std::byte> model;
  const auto put = [&model](std::uint64_t off,
                            const std::vector<std::byte>& data) {
    model.resize(std::max<std::size_t>(model.size(), off + data.size()));
    std::copy(data.begin(), data.end(),
              model.begin() + static_cast<std::ptrdiff_t>(off));
  };
  const auto cross = pattern(kB + 40, 2);
  f.write_at(kB - 17, cross);
  put(kB - 17, cross);
  const auto boundary = pattern(30, 3);
  f.write_at(5 * kB - 9, boundary);
  put(5 * kB - 9, boundary);
  f.write_zeros_at(kB + 100, 200);
  put(kB + 100, std::vector<std::byte>(200));
  const std::uint64_t gap = f.size();
  f.write_zeros_at(gap, 2 * kB);
  put(gap, std::vector<std::byte>(2 * kB));
  const std::uint64_t tail = f.size();
  const auto appended = pattern(60, 4);
  append_to(f, appended);
  put(tail, appended);
  return model;
}

TEST(ExtentFile, RecycledBlocksReadZerosOutsideWrites) {
  ExtentFile kept;
  ExtentFile truncated;
  std::optional<ExtentFile> removed(std::in_place);
  fill_interleaved(kept, truncated, *removed);
  truncated.truncate();
  removed.reset();

  ExtentFile f;
  const auto model = write_partial_blocks(f);
  ASSERT_EQ(f.size(), model.size());
  EXPECT_EQ(f.read_at(0, f.size()), model);
  EXPECT_EQ(f.allocated_bytes(), 6 * ExtentFile::kBlockSize)
      << "only the touched blocks hold storage";
}

TEST(ExtentFile, RecycledBlocksReadZerosThroughMemoryBackend) {
  drms::store::MemoryBackend m;
  auto kept = m.create("kept");
  auto truncated = m.create("truncated");
  auto removed = m.create("removed");
  fill_interleaved(kept, truncated, removed);
  removed = {};  // the last handle: removing now releases the blocks
  m.remove("removed");
  (void)m.create("truncated");

  auto f = m.create("fresh");
  const auto model = write_partial_blocks(f);
  ASSERT_EQ(f.size(), model.size());
  EXPECT_EQ(f.read_at(0, f.size()), model);
}

TEST(ExtentFile, RecycledBlocksReadZerosThroughVolume) {
  Volume v(4);
  auto kept = v.create("kept");
  auto truncated = v.create("truncated");
  auto removed = v.create("removed");
  fill_interleaved(kept, truncated, removed);
  removed = {};  // the last handle: removing now releases the blocks
  v.remove("removed");
  (void)v.create("truncated");

  auto f = v.create("fresh");
  const auto model = write_partial_blocks(f);
  ASSERT_EQ(f.size(), model.size());
  EXPECT_EQ(f.read_at(0, f.size()), model);
}

TEST(ExtentFile, ReadPastEndIsContractViolation) {
  ExtentFile f;
  f.write_at(0, pattern(10));
  EXPECT_THROW((void)f.read_at(5, 10),
               drms::support::ContractViolation);
}

TEST(Volume, CreateOpenRemove) {
  Volume v(16);
  EXPECT_FALSE(v.exists("a"));
  v.create("a").write_at(0, pattern(10));
  EXPECT_TRUE(v.exists("a"));
  EXPECT_EQ(v.file_size("a"), 10u);
  EXPECT_EQ(v.open("a").read_at(0, 10), pattern(10));
  v.remove("a");
  EXPECT_FALSE(v.exists("a"));
  EXPECT_THROW((void)v.open("a"), IoError);
  EXPECT_THROW(v.remove("a"), IoError);
}

TEST(Volume, CreateTruncatesExisting) {
  Volume v(4);
  v.create("f").write_at(0, pattern(100));
  const FileHandle again = v.create("f");
  EXPECT_EQ(again.size(), 0u);
}

TEST(Volume, ListAndPrefixOperations) {
  Volume v(4);
  v.create("ckpt.meta");
  v.create("ckpt.segment");
  v.create("ckpt.array.u");
  v.create("other");
  EXPECT_EQ(v.list("ckpt.").size(), 3u);
  EXPECT_EQ(v.list().size(), 4u);
  EXPECT_EQ(v.remove_prefix("ckpt."), 3);
  EXPECT_EQ(v.list().size(), 1u);
}

TEST(Volume, TotalSizeSumsPrefix) {
  Volume v(4);
  v.create("s.a").write_zeros_at(0, 100);
  v.create("s.b").write_zeros_at(0, 23);
  v.create("t.c").write_zeros_at(0, 1000);
  EXPECT_EQ(v.total_size("s."), 123u);
}

TEST(Volume, AppendTracksEndOfFile) {
  Volume v(4);
  FileHandle f = v.create("log");
  f.append(pattern(10, 1));
  f.append(pattern(10, 2));
  EXPECT_EQ(f.size(), 20u);
  EXPECT_EQ(f.read_at(10, 10), pattern(10, 2));
}

TEST(Volume, StripeAccountingRoundRobin) {
  const int kServers = 4;
  const std::uint64_t kUnit = 32 * 1024;
  Volume v(kServers, kUnit);
  // Write exactly 8 stripe cells: each server gets 2 cells.
  v.create("f").write_zeros_at(0, 8 * kUnit);
  const VolumeStats s = v.stats();
  EXPECT_EQ(s.bytes_written, 8 * kUnit);
  ASSERT_EQ(s.per_server_bytes_written.size(),
            static_cast<std::size_t>(kServers));
  for (const auto b : s.per_server_bytes_written) {
    EXPECT_EQ(b, 2 * kUnit);
  }
  EXPECT_EQ(v.server_of(0), 0);
  EXPECT_EQ(v.server_of(kUnit), 1);
  EXPECT_EQ(v.server_of(kServers * kUnit), 0);
}

TEST(Volume, StatsCountReadsAndResets) {
  Volume v(2);
  v.create("f").write_at(0, pattern(100));
  (void)v.open("f").read_at(0, 60);
  VolumeStats s = v.stats();
  EXPECT_EQ(s.bytes_read, 60u);
  EXPECT_EQ(s.read_ops, 1u);
  EXPECT_EQ(s.write_ops, 1u);
  EXPECT_EQ(s.files_created, 1u);
  v.reset_stats();
  s = v.stats();
  EXPECT_EQ(s.bytes_read + s.bytes_written + s.read_ops + s.write_ops, 0u);
}

TEST(Volume, ConcurrentDisjointWritersAreSafe) {
  Volume v(16);
  FileHandle f = v.create("par");
  constexpr int kThreads = 8;
  constexpr std::size_t kChunk = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f, t] {
      f.write_at(static_cast<std::uint64_t>(t) * kChunk,
                 pattern(kChunk, static_cast<unsigned>(t)));
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(f.read_at(static_cast<std::uint64_t>(t) * kChunk, kChunk),
              pattern(kChunk, static_cast<unsigned>(t)));
  }
}

TEST(Volume, PerFileStripeWidth) {
  Volume v(16);
  v.create("wide");
  EXPECT_EQ(v.stripe_servers_of("wide"), 16);
  v.create_striped("narrow", 4);
  EXPECT_EQ(v.stripe_servers_of("narrow"), 4);
  // Recreating with plain create() resets to full width.
  v.create("narrow");
  EXPECT_EQ(v.stripe_servers_of("narrow"), 16);
  EXPECT_THROW((void)v.create_striped("bad", 17),
               drms::support::ContractViolation);
  EXPECT_THROW((void)v.stripe_servers_of("missing"), IoError);
  v.create_striped("gone", 2);
  v.remove("gone");
  v.create("gone");
  EXPECT_EQ(v.stripe_servers_of("gone"), 16);
}

TEST(Volume, UsageTracksLogicalAndAllocated) {
  Volume v(4);
  EXPECT_EQ(v.usage().file_count, 0u);
  v.create("real").write_at(0, pattern(100000));
  v.create("sparse").write_zeros_at(0, 10 * kMiB);
  const auto u = v.usage();
  EXPECT_EQ(u.file_count, 2u);
  EXPECT_EQ(u.logical_bytes, 100000u + 10 * kMiB);
  // The sparse file allocates nothing; the real one allocates in blocks.
  EXPECT_LT(u.allocated_bytes, 2 * 100000u + 64 * 1024);
  EXPECT_GE(u.allocated_bytes, 100000u);
}

TEST(Volume, ExportImportRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "drms_piofs_export_test";
  fs::remove_all(dir);

  Volume v(4);
  v.create("ckpt.meta").write_at(0, pattern(64, 3));
  v.create("ckpt.array.u").write_at(0, pattern(5000, 4));
  v.create("unrelated").write_at(0, pattern(10, 5));
  v.export_to_directory("ckpt.", dir.string());

  Volume w(8);  // a "different system": more servers
  w.import_from_directory(dir.string(), "ckpt.");
  EXPECT_TRUE(w.exists("ckpt.meta"));
  EXPECT_TRUE(w.exists("ckpt.array.u"));
  EXPECT_FALSE(w.exists("unrelated"));
  EXPECT_EQ(w.open("ckpt.array.u").read_at(0, 5000), pattern(5000, 4));

  fs::remove_all(dir);
}

TEST(Volume, ImportFromMissingDirectoryThrows) {
  Volume v(4);
  EXPECT_THROW(v.import_from_directory("/nonexistent/drms/dir", ""),
               IoError);
}

}  // namespace
