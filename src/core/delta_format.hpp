// On-volume layout of a delta generation's per-array block file, plus the
// chain and dirty-block helpers shared by the engines, the catalog and
// the offline tools.
//
// A delta generation under prefix "gen" stores, per array:
//   gen.delta.<name> — [64-byte header][payload blocks][framed index]
//     header   magic "DDLT", version, block_bytes, total_blocks,
//              record_count, payload_bytes, raw_bytes, index_offset.
//              Version 2: kLz blocks hold LZ4-style sequences; version 1
//              files (LZSS tokens) are rejected.
//              Written LAST (the payload and index land first), so a
//              torn write leaves a file the reader rejects outright.
//     payload  the dirty blocks' bytes, each run through the block codec
//              stage (raw fallback keeps blocks from ever expanding).
//     index    [u32 crc][u64 size][u64 count][records…] — one 44-byte
//              record per stored block, in strictly ascending block
//              order: block index in the array's stream-order block
//              plan, raw/stored byte counts, payload offset, codec id,
//              and CRC-32C of both the raw and the stored bytes.
// The meta (version 3) and commit manifest (version 2) carry the chain
// link: base_prefix names the generation this delta applies on top of.
// Readers follow the manifest's; the meta's must agree with it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint_format.hpp"
#include "core/dist_array.hpp"
#include "store/storage_backend.hpp"
#include "support/block_codec.hpp"
#include "support/byte_buffer.hpp"

namespace drms::obs {
class Recorder;
}  // namespace drms::obs

namespace drms::core {

namespace wire {
inline constexpr std::uint32_t kDeltaMagic = 0x44444c54;  // "DDLT"
inline constexpr std::uint32_t kDeltaVersion = 2;
inline constexpr std::uint64_t kDeltaHeaderBytes = 64;
/// Safety bound on base-link walks: a longer chain is corrupt (cyclic or
/// runaway), not a plausible retention policy.
inline constexpr int kMaxChainDepth = 1024;
}  // namespace wire

/// One stored block in a delta file's index.
struct DeltaBlockRecord {
  std::uint64_t block_index = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t stored_bytes = 0;
  /// Offset within the payload region (i.e. relative to byte
  /// kDeltaHeaderBytes of the file).
  std::uint64_t payload_offset = 0;
  support::BlockCodec codec = support::BlockCodec::kRaw;
  std::uint32_t raw_crc = 0;
  std::uint32_t stored_crc = 0;
};

struct DeltaFileHeader {
  std::uint64_t block_bytes = 0;
  std::uint64_t total_blocks = 0;
  std::uint64_t record_count = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t raw_bytes = 0;
  /// File offset of the framed index (== kDeltaHeaderBytes + payload).
  std::uint64_t index_offset = 0;
};

[[nodiscard]] support::ByteBuffer encode_delta_header(
    const DeltaFileHeader& header);
[[nodiscard]] support::ByteBuffer encode_delta_index(
    const std::vector<DeltaBlockRecord>& records);

/// Reads and validates the header/index of one delta file; throws
/// CorruptCheckpoint on a torn or malformed file. `what` names the file
/// in error messages.
[[nodiscard]] DeltaFileHeader read_delta_header(const store::FileHandle& file,
                                                const std::string& what);
[[nodiscard]] std::vector<DeltaBlockRecord> read_delta_index(
    const store::FileHandle& file, const DeltaFileHeader& header,
    const std::string& what);

/// Indices (ascending) of the blocks of `blocks` (the array's
/// stream-order block plan over its global box) that any task's mutation
/// log marks dirty. Reads every task's log, so it must run at a barrier
/// (the engines call it right after their entry barrier); the result is
/// identical on every task because the logs live in shared memory.
[[nodiscard]] std::vector<std::uint64_t> collect_dirty_blocks(
    const DistArray& array, const std::vector<Slice>& blocks);

/// A chain of generations as their commit manifests publish it.
struct CheckpointChain {
  /// Base first; back() is the generation the chain was walked from.
  std::vector<std::string> prefixes;
  /// The members' commit manifests, in the order of `prefixes`.
  std::vector<CommitManifest> manifests;
  /// Meta of prefixes.front(), the full generation.
  CheckpointMeta base;
  /// Why the chain is not committed; empty when it is.
  std::vector<std::string> problems;
};

/// The one chain walk: from `prefix`, holds each member to check_commit
/// and follows its manifest's base_prefix to the base, whose meta it
/// reads through `metas`. `prefix` has the `spmd` layout if one is given;
/// SPMD generations do not chain. Stops at the first problem (a cycle or
/// a chain deeper than wire::kMaxChainDepth too); manifests.back() is
/// `prefix`'s whenever it parsed.
[[nodiscard]] CheckpointChain walk_checkpoint_chain(
    const store::StorageBackend& storage, const std::string& prefix,
    std::optional<bool> spmd, MetaCache& metas);

/// The DRMS chain ending at `prefix`, base first. Throws
/// CorruptCheckpoint with the walk's first problem.
[[nodiscard]] std::vector<std::string> resolve_checkpoint_chain(
    const store::StorageBackend& storage, const std::string& prefix);

/// The chain a restart replays, resolved once per restart and shared by
/// every array's restore. `meta` is the restored generation's own meta,
/// already read. A full generation is its own chain and reads nothing;
/// a delta's chain is walked (reading the base's meta), and `meta` must
/// name the base its manifest names. Throws CorruptCheckpoint.
[[nodiscard]] CheckpointChain resolve_checkpoint_chain(
    const store::StorageBackend& storage, const std::string& prefix,
    const CheckpointMeta& meta);

/// The one delta-block loader: reads block `rec` of delta file `file`
/// (into `raw` if stored raw, else into `scratch`), checks its stored
/// CRC, decodes it into `raw` (rec.raw_bytes long) and checks its raw
/// CRC. Throws CorruptCheckpoint. Traces delta.worker spans of `rank`.
void load_delta_block(const store::FileHandle& file,
                      const DeltaBlockRecord& rec, std::span<std::byte> raw,
                      support::ByteBuffer& scratch,
                      obs::Recorder* recorder = nullptr, int rank = -1);

/// Offline integrity check of delta file `file`, named `name`: header and
/// index, and with `deep` every block through load_delta_block. Appends
/// problems to `problems`; returns true when none were found.
bool verify_delta_file(const store::FileHandle& file, const std::string& name,
                       bool deep, std::vector<std::string>& problems);

}  // namespace drms::core
