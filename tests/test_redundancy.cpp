// Tests for the redundancy-encoded fast tier: fragment codec and naming,
// contiguous-split geometry, the RedundantBackend staged/encoded life
// cycle, a seeded sweep of lost-node subsets per scheme (scavenged
// content must be bit-identical to the failure-free run), the streamed
// protection path (fragments equal a whole-buffer reference at chunk and
// block edges, zero padding stays sparse, unverified bytes are never
// trusted, a write on a full tier spills), the beyond-tolerance fallback
// through the tiered backend, the background encode service, offline
// fragment-set auditing, and the arch-side placement helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arch/cluster.hpp"
#include "arch/placement.hpp"
#include "core/checkpoint_catalog.hpp"
#include "obs/instrumented_backend.hpp"
#include "obs/recorder.hpp"
#include "piofs/volume.hpp"
#include "store/chunk_copy.hpp"
#include "store/memory_backend.hpp"
#include "store/piofs_backend.hpp"
#include "store/redundancy.hpp"
#include "store/redundant_backend.hpp"
#include "store/tiered_backend.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "svc/drain_service.hpp"
#include "svc/io_scheduler.hpp"

namespace {

using namespace drms;
using store::MemoryBackend;
using store::RedundancyKind;
using store::RedundancyScheme;
using store::RedundantBackend;
using store::TieredBackend;

constexpr RedundancyScheme kPartner{RedundancyKind::kPartner, 2};
constexpr RedundancyScheme kXor4{RedundancyKind::kXor, 4};

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

std::string string_of(const std::vector<std::byte>& b) {
  std::string out(b.size(), '\0');
  std::memcpy(out.data(), b.data(), b.size());
  return out;
}

/// Seeded payload, deliberately non-multiple-of-group sizes included.
std::vector<std::byte> seeded_payload(std::uint64_t seed, std::size_t size) {
  support::Rng rng(seed);
  std::vector<std::byte> out(size);
  for (auto& b : out) {
    b = static_cast<std::byte>(rng.next_u64() & 0xff);
  }
  return out;
}

std::uint32_t stream_crc(const store::StorageBackend& storage,
                         const std::string& name) {
  const auto file = storage.open(name);
  const std::vector<std::byte> content = file.read_at(0, file.size());
  return support::crc32c(content);
}

/// One fragment file as the backend writes it: payload first, header last.
void write_fragment(store::StorageBackend& storage, const std::string& name,
                    const store::FragmentHeader& header,
                    std::span<const std::byte> payload) {
  auto file = storage.create(name);
  file.write_at(store::kFragmentHeaderBytes, payload);
  store::write_fragment_header(file, header);
}

// ---- fragment naming and codec ----------------------------------------------

TEST(Redundancy, FragmentNameRoundTrip) {
  EXPECT_EQ(store::fragment_name("ckpt.g3.segment", 2), "ckpt.g3.segment#f2");
  const auto parsed = store::parse_fragment_name("ckpt.g3.segment#f2");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->base, "ckpt.g3.segment");
  EXPECT_EQ(parsed->index, 2);
  EXPECT_FALSE(store::parse_fragment_name("ckpt.g3.segment").has_value());
  EXPECT_FALSE(store::parse_fragment_name("ckpt#fx").has_value());
  EXPECT_FALSE(store::parse_fragment_name("#f1").has_value());
}

TEST(Redundancy, FragmentExtentsTileTheFileContiguously) {
  for (const std::uint64_t total : {0ull, 1ull, 7ull, 64ull, 1000ull}) {
    for (const int pieces : {1, 2, 3, 4, 7}) {
      std::uint64_t expect_offset = 0;
      for (int i = 0; i < pieces; ++i) {
        const auto ext = store::fragment_extent(total, pieces, i);
        EXPECT_EQ(ext.offset, expect_offset);
        expect_offset += ext.length;
      }
      EXPECT_EQ(expect_offset, total);
      // Parity index sits past the data and carries no extent.
      EXPECT_EQ(store::fragment_extent(total, pieces, pieces).length, 0u);
    }
  }
}

TEST(Redundancy, FragmentCodecRoundTripRejectsCorruption) {
  MemoryBackend storage;
  const std::vector<std::byte> payload = seeded_payload(7, 100);
  store::FragmentHeader header;
  header.kind = RedundancyKind::kXor;
  header.index = 1;
  header.fragment_count = 4;
  header.payload_bytes = payload.size();
  header.total_bytes = 300;
  header.payload_crc = support::crc32c(payload);
  write_fragment(storage, "f#f1", header, payload);

  const auto back = store::read_fragment_header(storage, "f#f1");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->index, 1u);
  EXPECT_EQ(back->fragment_count, 4u);
  EXPECT_EQ(back->total_bytes, 300u);
  auto file = storage.open("f#f1");
  EXPECT_TRUE(store::fragment_payload_intact(file, *back));

  // Flip a payload byte: the CRC check must reject it.
  std::vector<std::byte> byte =
      file.read_at(store::kFragmentHeaderBytes + 10, 1);
  byte[0] ^= std::byte{0xff};
  file.write_at(store::kFragmentHeaderBytes + 10, byte);
  EXPECT_FALSE(store::fragment_payload_intact(file, *back));

  // A header announcing more payload than the file holds is torn, even
  // when the size does not fit in 64 bits past the header.
  store::FragmentHeader huge = header;
  huge.payload_bytes = ~std::uint64_t{0} - 8;
  write_fragment(storage, "f#f2", huge, payload);
  EXPECT_FALSE(store::read_fragment_header(storage, "f#f2").has_value());
  EXPECT_FALSE(store::fragment_payload_intact(storage.open("f#f2"), huge));

  EXPECT_FALSE(store::read_fragment_header(storage, "missing").has_value());
  storage.create("tiny").write_at(0, bytes_of("xy"));
  EXPECT_FALSE(store::read_fragment_header(storage, "tiny").has_value());
}

// ---- RedundantBackend life cycle --------------------------------------------

TEST(RedundantBackend, StagedFilesBehaveLikeAMemoryTier) {
  RedundantBackend storage(4, kPartner);
  auto f = storage.create("dir/a");
  f.write_at(0, bytes_of("hello"));
  f.append(bytes_of(" world"));
  EXPECT_EQ(f.size(), 11u);
  EXPECT_EQ(string_of(storage.open("dir/a").read_at(0, 11)), "hello world");
  EXPECT_TRUE(storage.exists("dir/a"));
  EXPECT_EQ(storage.file_size("dir/a"), 11u);
  EXPECT_EQ(storage.list("dir/").size(), 1u);
  EXPECT_GE(storage.staged_node_of("dir/a"), 0);
  EXPECT_TRUE(storage.fragment_nodes_of("dir/a").empty());
  storage.remove("dir/a");
  EXPECT_FALSE(storage.exists("dir/a"));
}

TEST(RedundantBackend, StagedCopiesSpreadEvenlyOverNamesWithCounters) {
  // Real names differ in trailing counters: filler files, and the 16 task
  // files of each of 20 SPMD generations. Each name set must stage within
  // 20% of an even share on every node, under both schemes.
  std::vector<std::string> fills;
  for (int k = 0; k < 400; ++k) {
    fills.push_back("fill" + std::to_string(k));
  }
  std::vector<std::string> task_files;
  for (int g = 1; g <= 20; ++g) {
    std::string iteration = std::to_string(10 * g);
    iteration.insert(0, 6 - iteration.size(), '0');
    for (int r = 0; r < 16; ++r) {
      task_files.push_back("sp.g" + iteration + ".spmd.task" +
                           std::to_string(r));
    }
  }
  for (const auto& scheme : {kXor4, kPartner}) {
    for (const auto* names : {&fills, &task_files}) {
      RedundantBackend storage(4, scheme);
      std::vector<int> staged(4, 0);
      for (const std::string& name : *names) {
        storage.create(name).write_at(0, bytes_of("x"));
        ++staged[static_cast<std::size_t>(storage.staged_node_of(name))];
      }
      const double even = static_cast<double>(names->size()) / 4.0;
      for (int n = 0; n < 4; ++n) {
        EXPECT_LE(std::abs(staged[static_cast<std::size_t>(n)] - even),
                  0.2 * even)
            << scheme.describe() << " " << names->front() << " node " << n;
      }
    }
  }
}

TEST(RedundantBackend, EncodeFragmentsTheStagedCopy) {
  for (const auto& scheme : {kPartner, kXor4}) {
    RedundantBackend storage(4, scheme);
    const std::vector<std::byte> payload = seeded_payload(11, 1003);
    storage.create("ckpt.seg").write_at(0, payload);
    const std::uint32_t before = stream_crc(storage, "ckpt.seg");

    ASSERT_EQ(storage.encode_work().size(), 1u);
    const auto encoded = storage.encode_file("ckpt.seg");
    ASSERT_TRUE(encoded.has_value()) << scheme.describe();
    EXPECT_EQ(*encoded, payload.size());
    EXPECT_TRUE(storage.encode_work().empty());
    EXPECT_FALSE(storage.encode_file("ckpt.seg").has_value());

    // Fully encoded: no staged copy, one fragment per group slot, and
    // the logical content is unchanged.
    EXPECT_EQ(storage.staged_node_of("ckpt.seg"), -1);
    EXPECT_EQ(storage.fragment_nodes_of("ckpt.seg").size(),
              static_cast<std::size_t>(scheme.fragment_count()));
    EXPECT_TRUE(storage.exists("ckpt.seg"));
    EXPECT_EQ(storage.file_size("ckpt.seg"), payload.size());
    EXPECT_EQ(stream_crc(storage, "ckpt.seg"), before);

    // Redundancy overhead: partner doubles, xor adds one parity stripe.
    if (scheme.kind == RedundancyKind::kPartner) {
      EXPECT_EQ(storage.encoded_bytes(900), 1800u);
    } else {
      EXPECT_EQ(storage.encoded_bytes(900), 1200u);
    }
  }
}

TEST(RedundantBackend, WritingAnEncodedFileMaterializesItBack) {
  RedundantBackend storage(4, kXor4);
  storage.create("a").write_at(0, bytes_of("checkpoint state"));
  ASSERT_TRUE(storage.encode_file("a").has_value());
  storage.open("a").write_at(0, bytes_of("CHECK"));
  EXPECT_GE(storage.staged_node_of("a"), 0);
  EXPECT_TRUE(storage.fragment_nodes_of("a").empty());
  EXPECT_EQ(string_of(storage.open("a").read_at(0, 16)),
            "CHECKpoint state");
}

TEST(RedundantBackend, ReadRepairRebuildsAMissingFragmentOnFirstTouch) {
  RedundantBackend storage(4, kXor4);
  const std::vector<std::byte> payload = seeded_payload(23, 4096);
  storage.create("a").write_at(0, payload);
  ASSERT_TRUE(storage.encode_file("a").has_value());
  const std::vector<int> before = storage.fragment_nodes_of("a");
  storage.fail_node(before[0]);

  // The encoded file is still readable; the read reconstructs the dead
  // node's fragment and re-homes it onto a live node.
  EXPECT_TRUE(storage.exists("a"));
  EXPECT_EQ(stream_crc(storage, "a"),
            support::crc32c(std::span<const std::byte>(payload)));
  const std::vector<int> after = storage.fragment_nodes_of("a");
  for (const int node : after) {
    EXPECT_TRUE(storage.node_up(node));
  }
}

// ---- seeded scavenge sweep (satellite 4) ------------------------------------

/// All subsets of {0..3} of the given size.
std::vector<std::vector<int>> node_subsets(int size) {
  std::vector<std::vector<int>> out;
  for (int a = 0; a < 4; ++a) {
    if (size == 1) {
      out.push_back({a});
      continue;
    }
    for (int b = a + 1; b < 4; ++b) {
      out.push_back({a, b});
    }
  }
  return out;
}

/// Whether a lost-node subset stays within the scheme's per-group
/// tolerance on a 4-node tier.
bool within_tolerance(const RedundancyScheme& scheme,
                      const std::vector<int>& lost) {
  std::map<int, int> per_group;
  for (const int n : lost) {
    ++per_group[n / scheme.group_size];
  }
  for (const auto& [group, down] : per_group) {
    if (down > scheme.tolerated_losses()) {
      return false;
    }
  }
  return true;
}

TEST(RedundantBackend, ScavengeSweepRestoresEveryTolerableLossSubset) {
  constexpr int kFiles = 6;
  for (const auto& scheme : {kPartner, kXor4}) {
    // Failure-free fingerprints, once per scheme.
    std::map<std::string, std::uint32_t> baseline;
    for (int f = 0; f < kFiles; ++f) {
      baseline["job.g3.file" + std::to_string(f)] = support::crc32c(
          std::span<const std::byte>(seeded_payload(
              100 + static_cast<std::uint64_t>(f), 512 + f * 131)));
    }

    for (int size = 1; size <= 2; ++size) {
      for (const auto& lost : node_subsets(size)) {
        RedundantBackend storage(4, scheme);
        for (int f = 0; f < kFiles; ++f) {
          storage
              .create("job.g3.file" + std::to_string(f))
              .write_at(0, seeded_payload(
                              100 + static_cast<std::uint64_t>(f),
                              512 + f * 131));
        }
        ASSERT_EQ(storage.encode_all(), kFiles);
        for (const int node : lost) {
          storage.fail_node(node);
        }
        const store::ScavengeReport report = storage.scavenge();
        const std::string label =
            scheme.describe() + " lost={" + std::to_string(lost.front()) +
            (lost.size() > 1 ? "," + std::to_string(lost.back()) : "") +
            "}";

        if (within_tolerance(scheme, lost)) {
          // Every file rebuilt: content bit-identical to the
          // failure-free run, full fragment sets on live nodes.
          EXPECT_TRUE(report.complete()) << label;
          EXPECT_EQ(report.files_lost, 0) << label;
          EXPECT_EQ(report.crc_failures, 0) << label;
          for (const auto& [name, crc] : baseline) {
            ASSERT_TRUE(storage.exists(name)) << label << " " << name;
            EXPECT_EQ(stream_crc(storage, name), crc) << label << " "
                                                      << name;
          }
        } else {
          // Beyond tolerance: the overwhelmed group's files are dropped
          // (restores fall back to the slow tier), the others survive.
          EXPECT_GT(report.files_lost, 0) << label;
          for (const auto& name : report.lost) {
            EXPECT_FALSE(storage.exists(name)) << label << " " << name;
          }
          for (const auto& [name, crc] : baseline) {
            if (storage.exists(name)) {
              EXPECT_EQ(stream_crc(storage, name), crc) << label << " "
                                                        << name;
            }
          }
        }
      }
    }
  }
}

TEST(RedundantBackend, ScavengeReportCountsTheRebuild) {
  RedundantBackend storage(4, kPartner);
  const std::vector<std::byte> payload = seeded_payload(31, 2048);
  storage.create("a").write_at(0, payload);
  ASSERT_TRUE(storage.encode_file("a").has_value());

  const std::vector<int> nodes = storage.fragment_nodes_of("a");
  storage.fail_node(nodes[0]);
  const store::ScavengeReport report = storage.scavenge();
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.files_rebuilt, 1);
  EXPECT_EQ(report.fragments_rebuilt, 1);
  EXPECT_EQ(report.bytes_recovered, payload.size());
  EXPECT_EQ(stream_crc(storage, "a"),
            support::crc32c(std::span<const std::byte>(payload)));
}

// ---- the streamed protection path -------------------------------------------

constexpr RedundancyScheme kXor3{RedundancyKind::kXor, 3};
/// The ExtentFile block: the copy kernel's zero-piece grid.
constexpr std::uint64_t kBlock = 64 * 1024;
constexpr std::uint64_t kChunk = store::kCopyChunkBytes;

/// How one region of a test file is written.
enum class Fill { kRandom, kLiteralZeros, kSparseZeros };
struct Region {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  Fill fill = Fill::kRandom;
};

/// Regions tiling [0, size): random bytes broken by zero runs, some written
/// as literal zeros and some with write_zeros_at, straddling block and
/// chunk edges (the last one ends the 3 MiB + 17 file).
std::vector<Region> mixed_layout(std::uint64_t size) {
  const std::vector<Region> zero_runs = {
      {5, 15, Fill::kLiteralZeros},
      {25, 5, Fill::kSparseZeros},
      {kBlock - 7, kBlock + 14, Fill::kLiteralZeros},
      {2 * kBlock + 100, 3 * kBlock, Fill::kSparseZeros},
      {kChunk - 2 * kBlock - 5, 3 * kBlock + 10, Fill::kSparseZeros},
      {2 * kChunk - kBlock / 2, kBlock + 1, Fill::kLiteralZeros},
      {3 * kChunk - 9, 26, Fill::kSparseZeros},
  };
  std::vector<Region> out;
  std::uint64_t at = 0;
  for (const Region& z : zero_runs) {
    if (z.offset >= size) {
      break;
    }
    if (z.offset > at) {
      out.push_back({at, z.offset - at, Fill::kRandom});
    }
    out.push_back({z.offset, std::min(z.length, size - z.offset), z.fill});
    at = z.offset + out.back().length;
  }
  if (at < size) {
    out.push_back({at, size - at, Fill::kRandom});
  }
  return out;
}

/// Write `layout` into a fresh file and return its content.
std::vector<std::byte> write_layout(store::StorageBackend& storage,
                                    const std::string& name,
                                    const std::vector<Region>& layout,
                                    std::uint64_t seed) {
  std::uint64_t size = 0;
  for (const Region& r : layout) {
    size += r.length;
  }
  std::vector<std::byte> content = seeded_payload(seed, size);
  auto file = storage.create(name);
  for (const Region& r : layout) {
    const auto bytes =
        std::span<std::byte>(content).subspan(r.offset, r.length);
    if (r.fill != Fill::kRandom) {
      std::fill(bytes.begin(), bytes.end(), std::byte{0});
    }
    if (r.fill == Fill::kSparseZeros) {
      file.write_zeros_at(r.offset, r.length);
    } else {
      file.write_at(r.offset, bytes);
    }
  }
  return content;
}

/// The fragment headers of a whole-buffer encoder: partner writes the file
/// twice; xor splits it contiguously and folds the parity byte by byte.
std::vector<store::FragmentHeader> reference_headers(
    const RedundancyScheme& scheme, const std::vector<std::byte>& content) {
  std::vector<std::vector<std::byte>> payloads;
  if (scheme.kind == RedundancyKind::kPartner) {
    payloads = {content, content};
  } else {
    const int data = scheme.group_size - 1;
    std::vector<std::byte> parity(
        store::fragment_extent(content.size(), data, 0).length, std::byte{0});
    for (int i = 0; i < data; ++i) {
      const auto ext = store::fragment_extent(content.size(), data, i);
      const auto first =
          content.begin() + static_cast<std::ptrdiff_t>(ext.offset);
      payloads.emplace_back(first,
                            first + static_cast<std::ptrdiff_t>(ext.length));
      for (std::uint64_t j = 0; j < ext.length; ++j) {
        parity[j] ^= content[ext.offset + j];
      }
    }
    payloads.push_back(std::move(parity));
  }
  std::vector<store::FragmentHeader> out;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    store::FragmentHeader h;
    h.kind = scheme.kind;
    h.index = static_cast<std::uint32_t>(i);
    h.fragment_count = static_cast<std::uint32_t>(payloads.size());
    h.payload_bytes = payloads[i].size();
    h.total_bytes = content.size();
    h.payload_crc = support::crc32c(payloads[i]);
    out.push_back(h);
  }
  return out;
}

/// Every fragment of `name` is on a live node, carries `expect`'s header,
/// and its payload passes that header's CRC.
void expect_fragments(RedundantBackend& storage, const std::string& name,
                      const std::vector<store::FragmentHeader>& expect,
                      const std::string& label) {
  const std::vector<int> nodes = storage.fragment_nodes_of(name);
  ASSERT_EQ(nodes.size(), expect.size()) << label;
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_TRUE(storage.node_up(nodes[i])) << label << " #f" << i;
    const store::MemoryBackend& node = storage.node_store(nodes[i]);
    const std::string frag = store::fragment_name(name, static_cast<int>(i));
    const auto h = store::read_fragment_header(node, frag);
    ASSERT_TRUE(h.has_value()) << label << " #f" << i;
    EXPECT_TRUE(*h == expect[i]) << label << " #f" << i << ": payload "
                                 << h->payload_bytes << " crc "
                                 << h->payload_crc << ", want "
                                 << expect[i].payload_bytes << " crc "
                                 << expect[i].payload_crc;
    EXPECT_TRUE(store::fragment_payload_intact(node.open(frag), *h))
        << label << " #f" << i;
  }
}

std::vector<std::byte> content_of(const store::StorageBackend& storage,
                                  const std::string& name) {
  const auto file = storage.open(name);
  return file.read_at(0, file.size());
}

TEST(RedundantBackend, StreamedEncodeMatchesTheWholeBufferReference) {
  const std::vector<std::uint64_t> sizes = {
      0,          1,      35,         36,     kBlock - 1,     kBlock,
      kBlock + 1, kChunk - 1, kChunk, kChunk + 1, 3 * kChunk + 17};
  for (const auto& [scheme, nodes] :
       {std::pair{kPartner, 4}, std::pair{kXor3, 3}, std::pair{kXor4, 4}}) {
    for (const std::uint64_t size : sizes) {
      const std::vector<Region> layout = mixed_layout(size);
      std::vector<std::byte> content;
      std::vector<store::FragmentHeader> expect;
      // lost == -1: no failure; otherwise that node dies after the encode.
      for (int lost = -1; lost < nodes; ++lost) {
        const std::string label = scheme.describe() + " size " +
                                  std::to_string(size) + " lost " +
                                  std::to_string(lost);
        RedundantBackend storage(nodes, scheme);
        content = write_layout(storage, "f", layout, size + 1);
        if (expect.empty()) {
          expect = reference_headers(scheme, content);
        }
        ASSERT_EQ(storage.encode_file("f"), std::optional<std::uint64_t>(size))
            << label;
        expect_fragments(storage, "f", expect, label);
        EXPECT_EQ(content_of(storage, "f"), content) << label;
        if (lost < 0) {
          // Materialize (any write) and encode again: same bytes, same
          // fragments.
          storage.open("f").write_at(
              0, std::span<const std::byte>(content).first(
                     std::min<std::size_t>(1, content.size())));
          EXPECT_GE(storage.staged_node_of("f"), 0) << label;
          EXPECT_TRUE(storage.fragment_nodes_of("f").empty()) << label;
          EXPECT_EQ(content_of(storage, "f"), content) << label;
          ASSERT_TRUE(storage.encode_file("f").has_value()) << label;
          expect_fragments(storage, "f", expect, label);
          continue;
        }
        storage.fail_node(lost);
        const store::ScavengeReport report = storage.scavenge();
        EXPECT_TRUE(report.complete()) << label;
        EXPECT_EQ(report.crc_failures, 0) << label;
        EXPECT_EQ(content_of(storage, "f"), content) << label;
        expect_fragments(storage, "f", expect, label);
      }
    }
  }
}

TEST(RedundantBackend, EncodeAndDrainKeepZeroPaddingSparse) {
  // Segment-shaped: real data, a long zero-fill gap, a little more data.
  const std::vector<std::byte> head = seeded_payload(81, 100 * 1024);
  const std::vector<std::byte> tail = seeded_payload(82, 5 * 1024);
  const std::uint64_t gap = 8 * 1024 * 1024;
  const std::uint64_t nonzero = head.size() + tail.size();
  const std::string name = "job.g1.segment";
  for (const auto& scheme : {kPartner, kXor4}) {
    piofs::Volume volume(4);
    store::PiofsBackend slow(volume);
    RedundantBackend fast(4, scheme);
    TieredBackend tiered(fast, slow);
    auto file = tiered.create(name);
    file.write_at(0, head);
    file.write_zeros_at(head.size(), gap);
    file.write_at(head.size() + gap, tail);
    const std::uint32_t crc = stream_crc(tiered, name);

    ASSERT_TRUE(fast.encode_file(name).has_value());
    std::uint64_t allocated = 0;
    for (int n = 0; n < fast.node_count(); ++n) {
      allocated += fast.node_store(n).allocated_bytes();
    }
    // The non-zero bytes live twice (both partner copies, or data and
    // parity); each fragment may add a block at each edge of its data.
    EXPECT_GE(allocated, nonzero) << scheme.describe();
    EXPECT_LE(allocated, 2 * nonzero + 2 * kBlock * static_cast<std::uint64_t>(
                                           scheme.fragment_count()))
        << scheme.describe();

    ASSERT_EQ(tiered.drain().files_drained, 1);
    EXPECT_EQ(volume.usage().logical_bytes, nonzero + gap);
    EXPECT_LE(volume.usage().allocated_bytes, nonzero + 2 * kBlock)
        << scheme.describe();
    EXPECT_EQ(stream_crc(slow, name), crc);
    EXPECT_EQ(stream_crc(fast, name), crc);
  }
}

/// Flip one payload byte of a fragment file in place.
void flip_payload_byte(store::StorageBackend& node, const std::string& frag,
                       std::uint64_t at) {
  auto file = node.open(frag);
  std::vector<std::byte> byte =
      file.read_at(store::kFragmentHeaderBytes + at, 1);
  byte[0] ^= std::byte{0x5a};
  file.write_at(store::kFragmentHeaderBytes + at, byte);
}

TEST(RedundantBackend, FragmentWithoutItsHeaderIsNotLive) {
  RedundantBackend fast(4, kXor4);
  const std::vector<std::byte> payload = seeded_payload(91, 5000);
  fast.create("job.g3.segment").write_at(0, payload);
  ASSERT_TRUE(fast.encode_file("job.g3.segment").has_value());
  // A crash between a fragment's payload and its header leaves the payload
  // with no magic in front of it.
  const int node = fast.fragment_nodes_of("job.g3.segment")[1];
  fast.node_store(node).open("job.g3.segment#f1").write_zeros_at(
      0, store::kFragmentHeaderBytes);
  EXPECT_FALSE(store::read_fragment_header(fast.node_store(node),
                                           "job.g3.segment#f1")
                   .has_value());

  MemoryBackend exported;
  fast.mirror_to(exported);
  const auto states = core::fsck_scan(exported);
  ASSERT_EQ(states.size(), 1u);
  ASSERT_EQ(states[0].fragment_sets.size(), 1u);
  EXPECT_EQ(states[0].fragment_sets[0].present, 3);
  EXPECT_EQ(states[0].fragment_sets[0].expected, 4);
  EXPECT_TRUE(states[0].fragment_sets[0].recoverable);

  // The backend counts it missing too, and scavenge rebuilds it.
  const store::ScavengeReport report = fast.scavenge();
  EXPECT_EQ(report.files_rebuilt, 1);
  EXPECT_EQ(report.fragments_rebuilt, 1);
  EXPECT_EQ(report.crc_failures, 0);
  EXPECT_EQ(content_of(fast, "job.g3.segment"), payload);
}

TEST(RedundantBackend, CorruptPartnerSurvivorIsNeverTrusted) {
  RedundantBackend fast(4, kPartner);
  const std::vector<std::byte> payload = seeded_payload(93, 3 * kBlock + 11);
  fast.create("a").write_at(0, payload);
  ASSERT_TRUE(fast.encode_file("a").has_value());
  const std::vector<int> nodes = fast.fragment_nodes_of("a");
  flip_payload_byte(fast.node_store(nodes[1]), "a#f1", 2 * kBlock + 5);
  fast.fail_node(nodes[0]);

  // A write must reassemble the file first. Its only copy fails the CRC,
  // so the write throws and the file stays encoded, with no staged copy.
  EXPECT_THROW(fast.open("a").write_at(0, bytes_of("x")), support::IoError);
  EXPECT_EQ(fast.staged_node_of("a"), -1);
  for (int n = 0; n < fast.node_count(); ++n) {
    if (fast.node_up(n)) {
      EXPECT_FALSE(fast.node_store(n).exists("a")) << n;
    }
  }

  const store::ScavengeReport report = fast.scavenge();
  EXPECT_EQ(report.crc_failures, 1);
  EXPECT_EQ(report.files_lost, 1);
  EXPECT_EQ(report.fragments_rebuilt, 0);
  EXPECT_FALSE(fast.exists("a"));
  for (int n = 0; n < fast.node_count(); ++n) {
    if (fast.node_up(n)) {
      EXPECT_FALSE(
          store::read_fragment_header(fast.node_store(n), "a#f0").has_value())
          << n;
    }
  }
}

TEST(RedundantBackend, XorLossPlusCorruptFragmentIsBeyondTolerance) {
  RedundantBackend fast(4, kXor4);
  const std::vector<std::byte> payload = seeded_payload(95, 200 * 1024);
  fast.create("a").write_at(0, payload);
  ASSERT_TRUE(fast.encode_file("a").has_value());
  const std::vector<int> nodes = fast.fragment_nodes_of("a");
  flip_payload_byte(fast.node_store(nodes[2]), "a#f2", 17);
  fast.fail_node(nodes[0]);

  // Read-repair of fragment 0 XORs the survivors; fragment 2 fails its
  // CRC, so the rebuilt file is removed before it gets a header.
  EXPECT_THROW((void)fast.open("a").read_at(0, 10), support::IoError);
  for (int n = 0; n < fast.node_count(); ++n) {
    if (fast.node_up(n)) {
      EXPECT_FALSE(fast.node_store(n).exists("a#f0")) << n;
    }
  }

  const store::ScavengeReport report = fast.scavenge();
  EXPECT_EQ(report.crc_failures, 1);
  EXPECT_EQ(report.files_lost, 1);
  EXPECT_EQ(report.lost, std::vector<std::string>{"a"});
  EXPECT_FALSE(fast.exists("a"));
}

TEST(RedundantBackend, WriteToAnEncodedFileOnAFullTierSpillsIt) {
  MemoryBackend slow;
  RedundantBackend fast(4, kXor4, 4200);
  TieredBackend tiered(fast, slow);
  const std::vector<std::byte> payload = seeded_payload(97, 3000);
  tiered.create("a").write_at(0, payload);
  ASSERT_TRUE(fast.encode_file("a").has_value());
  ASSERT_EQ(tiered.drain().files_drained, 1);
  // Fill every node with staged files until none has room for another.
  const std::vector<std::byte> filler = seeded_payload(98, 100);
  for (int k = 0; k < 400; ++k) {
    try {
      fast.create(std::to_string(k) + ".fill").write_at(0, filler);
    } catch (const store::CapacityExceeded&) {
    }
  }
  for (int n = 0; n < fast.node_count(); ++n) {
    ASSERT_LT(4200 - fast.node_store(n).used_bytes(), filler.size()) << n;
  }

  // The write needs a staged copy that no node has room for: the file
  // spills to the slow tier with its content instead of vanishing with its
  // fragments.
  tiered.open("a").write_at(0, bytes_of("X"));
  std::vector<std::byte> expected = payload;
  expected[0] = std::byte{'X'};
  EXPECT_EQ(content_of(tiered, "a"), expected);
  EXPECT_EQ(content_of(slow, "a"), expected);
  EXPECT_FALSE(fast.exists("a"));
  EXPECT_EQ(tiered.stats().fast_spills, 1u);
}

// ---- beyond tolerance: tiered fallback --------------------------------------

TEST(RedundantBackend, BeyondToleranceLossFallsBackToTheSlowTier) {
  obs::Recorder rec;
  MemoryBackend slow_store;
  obs::InstrumentedBackend slow(slow_store, &rec, "slow");
  RedundantBackend fast(4, kPartner);
  TieredBackend tiered(fast, slow);

  const std::vector<std::byte> payload = seeded_payload(47, 3000);
  tiered.create("job.g3.seg").write_at(0, payload);
  ASSERT_EQ(fast.encode_all(), 1);
  tiered.drain();  // the slow tier holds the safety copy

  // Lose the file's whole partner pair: beyond tolerance.
  const std::vector<int> nodes = fast.fragment_nodes_of("job.g3.seg");
  ASSERT_EQ(nodes.size(), 2u);
  fast.fail_node(nodes[0]);
  fast.fail_node(nodes[1]);
  const store::ScavengeReport report = fast.scavenge();
  EXPECT_EQ(report.files_lost, 1);
  EXPECT_FALSE(report.complete());
  EXPECT_FALSE(fast.exists("job.g3.seg"));
  EXPECT_EQ(tiered.reconcile_fast_tier(), 1);

  // The tiered read now comes from the slow tier, bit-identical.
  const std::uint64_t slow_reads_before = rec.counter("store.slow.read_at.ops");
  EXPECT_EQ(stream_crc(tiered, "job.g3.seg"),
            support::crc32c(std::span<const std::byte>(payload)));
  EXPECT_GT(rec.counter("store.slow.read_at.ops"), slow_reads_before);
}

// ---- background encode service ----------------------------------------------

TEST(RedundantBackend, SubmitEncodeRunsTheWorkListThroughTheScheduler) {
  svc::IoScheduler::Options opts;
  opts.shard_count = 2;
  svc::IoScheduler scheduler(opts);
  svc::JobToken job = scheduler.register_job("ckpt");
  RedundantBackend fast(4, kXor4);
  for (int f = 0; f < 5; ++f) {
    fast.create("job.g3.file" + std::to_string(f))
        .write_at(0, seeded_payload(static_cast<std::uint64_t>(f), 700));
  }

  const svc::EncodeTicket ticket = svc::submit_encode(scheduler, job, fast);
  EXPECT_EQ(ticket.files_submitted(), 5u);
  const svc::EncodeReport report = ticket.wait();
  EXPECT_EQ(report.files_encoded, 5);
  EXPECT_EQ(report.bytes_encoded, 5u * 700u);
  EXPECT_TRUE(fast.encode_work().empty());
  for (int f = 0; f < 5; ++f) {
    EXPECT_EQ(fast.staged_node_of("job.g3.file" + std::to_string(f)), -1);
  }

  // Races drop out of the report instead of erroring: a second submit
  // over the now-clean list is a no-op ticket.
  const svc::EncodeTicket empty = svc::submit_encode(scheduler, job, fast);
  EXPECT_EQ(empty.files_submitted(), 0u);
  EXPECT_EQ(empty.wait().files_encoded, 0);
}

// ---- offline fragment-set audit (fsck) --------------------------------------

TEST(RedundantBackend, MirrorExportsFragmentSetsForOfflineFsck) {
  RedundantBackend fast(4, kXor4);
  fast.create("job.g3.segment")
      .write_at(0, seeded_payload(61, 2000));
  fast.create("job.g3.meta").write_at(0, seeded_payload(62, 100));
  ASSERT_EQ(fast.encode_all(), 2);

  MemoryBackend exported;
  fast.mirror_to(exported);
  const auto states = core::fsck_scan(exported);
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].prefix, "job.g3");
  EXPECT_TRUE(states[0].encoded_only);
  EXPECT_TRUE(states[0].problems.empty());
  ASSERT_EQ(states[0].fragment_sets.size(), 2u);
  for (const auto& fs : states[0].fragment_sets) {
    EXPECT_EQ(fs.present, 4);
    EXPECT_EQ(fs.expected, 4);
    EXPECT_TRUE(fs.recoverable) << fs.base;
  }

  // One missing fragment: still recoverable. Two: beyond tolerance, and
  // the scan says so.
  exported.remove("job.g3.segment#f0");
  auto one_down = core::fsck_scan(exported);
  ASSERT_EQ(one_down.size(), 1u);
  for (const auto& fs : one_down[0].fragment_sets) {
    EXPECT_TRUE(fs.recoverable) << fs.base;
  }
  exported.remove("job.g3.segment#f2");
  auto two_down = core::fsck_scan(exported);
  ASSERT_EQ(two_down.size(), 1u);
  bool found = false;
  for (const auto& fs : two_down[0].fragment_sets) {
    if (fs.base == "job.g3.segment") {
      found = true;
      EXPECT_EQ(fs.present, 2);
      EXPECT_FALSE(fs.recoverable);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(two_down[0].problems.empty());
}

TEST(RedundantBackend, FsckIgnoresFragmentsOnACommittedStateVolume) {
  // A plain committed state plus stray fragments of the same prefix: the
  // fragments must neither flag the state torn nor count as strays.
  MemoryBackend storage;
  storage.create("app.meta").write_at(0, bytes_of("not a real meta"));
  // No commit manifest: the state is torn regardless; what matters here
  // is that the fragments attach as a set instead of as state files.
  const std::vector<std::byte> payload = seeded_payload(71, 64);
  store::FragmentHeader header;
  header.kind = RedundancyKind::kPartner;
  header.index = 0;
  header.fragment_count = 2;
  header.payload_bytes = payload.size();
  header.total_bytes = payload.size();
  header.payload_crc = support::crc32c(payload);
  write_fragment(storage, "app.segment#f0", header, payload);
  header.index = 1;
  write_fragment(storage, "app.segment#f1", header, payload);

  const auto states = core::fsck_scan(storage);
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].prefix, "app");
  EXPECT_FALSE(states[0].encoded_only);
  ASSERT_EQ(states[0].fragment_sets.size(), 1u);
  EXPECT_EQ(states[0].fragment_sets[0].base, "app.segment");
  EXPECT_EQ(states[0].fragment_sets[0].present, 2);
  EXPECT_TRUE(states[0].fragment_sets[0].recoverable);
  // The fragments are never reclaimable: scavenge owns their lifecycle.
  for (const auto& f : states[0].reclaimable) {
    EXPECT_EQ(f.find("#f"), std::string::npos) << f;
  }
}

// ---- arch-side placement helpers --------------------------------------------

TEST(Placement, ContiguousGroupsAndPartners) {
  const auto groups = arch::contiguous_groups(8, 4);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(groups[1], (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(arch::partner_of(0, 4), 1);
  EXPECT_EQ(arch::partner_of(1, 4), 0);
  EXPECT_EQ(arch::partner_of(2, 4), 3);
  EXPECT_THROW((void)arch::contiguous_groups(6, 4), support::Error);
}

TEST(Placement, GroupsScavengeableTracksPerGroupLosses) {
  sim::Machine machine;
  machine.node_count = 4;
  machine.server_count = 4;
  arch::Cluster cluster(machine, nullptr);
  EXPECT_TRUE(arch::groups_scavengeable(cluster, 2, 1));
  cluster.fail_node(0);
  EXPECT_TRUE(arch::groups_scavengeable(cluster, 2, 1));
  cluster.fail_node(2);
  EXPECT_TRUE(arch::groups_scavengeable(cluster, 2, 1));
  cluster.fail_node(1);  // pair {0,1} fully gone
  EXPECT_FALSE(arch::groups_scavengeable(cluster, 2, 1));
  EXPECT_EQ(cluster.up_nodes(), (std::vector<int>{3}));
}

}  // namespace
