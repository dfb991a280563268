// On-volume layout of a checkpointed state and the segment size model.
//
// DRMS checkpoint under prefix "ckpt":
//   ckpt.meta           — application name, task count, SOP counter, array
//                         table (name, index space, element size, bytes)
//   ckpt.segment        — data segment of ONE representative task:
//                         replicated-store payload + logically-sized
//                         padding for the local array sections, private
//                         data and system buffers (Table 4's components)
//   ckpt.array.<name>   — one distribution-independent file per
//                         distributed array (column-major element stream)
//
// SPMD (non-reconfigurable) checkpoint under prefix "ckpt":
//   ckpt.spmd.meta      — application name, task count, SOP counter
//   ckpt.spmd.task<r>   — task r's FULL data segment: replicated payload +
//                         real bytes of all its local array sections
//                         (including shadows) + padding to the static
//                         segment size
//
// Commit protocol (both layouts): the state files above are invisible to
// the checkpoint catalog until "ckpt.commit" — a manifest listing every
// state file with its size (and content CRC where the writer has one in
// hand) — lands as the very last write of the checkpoint. A crash at any
// earlier point leaves the state uncommitted (torn); restart falls back to
// the previous committed SOP and `drms_tool fsck`/`gc` report/reclaim the
// torn files. When a prefix is overwritten, the old manifest is removed
// FIRST (decommit) so no crash window can publish a state whose files are
// half old, half new.
//
// Each record above has one reader, here, shared by restore, deep verify,
// the catalog and fsck; a reader checks every length against the bytes
// that hold it before it allocates from it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/slice.hpp"
#include "store/storage_backend.hpp"
#include "support/byte_buffer.hpp"

namespace drms::core {

/// On-volume wire-format constants, shared by the writers (checkpoint
/// engines) and the readers below.
namespace wire {
inline constexpr std::uint32_t kSegmentMagic = 0x44534547;   // "DSEG"
inline constexpr std::uint32_t kSegmentVersion = 1;
inline constexpr std::uint64_t kSegmentHeaderBytes = 4 + 4 + 8 + 8;
inline constexpr std::uint32_t kSpmdSegmentMagic = 0x53534547;  // "SSEG"
inline constexpr std::uint32_t kSpmdSegmentVersion = 1;
/// The [u64 size][u32 crc] head of a sized-CRC record.
inline constexpr std::uint64_t kRecordHeadBytes = 8 + 4;
}  // namespace wire

/// Size model of one task's data segment, mirroring the components of the
/// paper's Table 4. Sizes are "compiled-in": Fortran static allocation
/// means they do not shrink when the application runs on more tasks than
/// its compile-time minimum.
struct AppSegmentModel {
  /// Storage for the local sections of the distributed arrays at the
  /// compile-time minimum task count (shadows included).
  std::uint64_t static_local_bytes = 0;
  /// Private and replicated application data.
  std::uint64_t private_bytes = 0;
  /// System-library storage (message-passing buffers; ~33 MB on the SP).
  std::uint64_t system_bytes = 0;
  /// Application text segment (loaded at restart; not part of the saved
  /// state).
  std::uint64_t text_bytes = 0;

  /// Total data-segment size (Table 4's "Total data" column).
  [[nodiscard]] std::uint64_t total() const noexcept {
    return static_local_bytes + private_bytes + system_bytes;
  }
};

/// Whether a generation carries the full array state or only the blocks
/// dirtied since its base. Deltas chain through base_prefix to the most
/// recent full generation; restore takes each block from the newest
/// chain link that holds it, and the base's bytes where no delta does.
enum class GenerationKind : std::uint8_t {
  kFull = 0,
  kDelta = 1,
};
[[nodiscard]] const char* to_string(GenerationKind kind) noexcept;

struct ArrayMeta {
  std::string name;
  std::vector<Index> lower;
  std::vector<Index> upper;
  std::uint64_t elem_size = 0;
  /// Full generations: the column-major element stream's byte count.
  /// Delta generations: the total size of the ".delta.<name>" file.
  std::uint64_t stream_bytes = 0;
  /// CRC-32C fingerprint of the stream contents, recorded at write time
  /// and verified when the array is restored. Zero for delta arrays —
  /// their integrity is per-block (raw + stored CRCs in the delta index).
  std::uint32_t stream_crc = 0;
  /// Delta-generation statistics (zero for full generations, which stay
  /// on the version-2 wire encoding): bytes of the dirty blocks before
  /// and after the codec stage, and the dirty/total block counts.
  std::uint64_t raw_bytes = 0;
  std::uint64_t stored_bytes = 0;
  std::uint64_t dirty_blocks = 0;
  std::uint64_t total_blocks = 0;

  [[nodiscard]] Slice box() const;
};

struct CheckpointMeta {
  std::string app_name;
  /// Tasks that took the checkpoint (restart computes delta against it).
  int task_count = 0;
  /// SOP counter at the checkpoint (the how-many-th reconfig_checkpoint
  /// call this was).
  std::int64_t sop = 0;
  std::uint64_t segment_bytes = 0;
  std::vector<ArrayMeta> arrays;
  /// Generation chaining (delta checkpoints). Full generations keep the
  /// defaults and serialize on the unchanged version-2 encoding; a delta
  /// names its base generation, its distance from the chain's full base
  /// (1 = first delta), and the dirty-tracking block granularity.
  GenerationKind kind = GenerationKind::kFull;
  std::string base_prefix;
  std::int64_t chain_depth = 0;
  std::uint64_t delta_block_bytes = 0;

  [[nodiscard]] const ArrayMeta& array(const std::string& name) const;
};

/// One file of a committed state as recorded in the commit manifest.
struct CommitEntry {
  std::string name;
  std::uint64_t size = 0;
  /// CRC-32C of the whole file; only meaningful when has_crc is set (the
  /// writer records CRCs it already has in hand — meta and array streams —
  /// and leaves files whose integrity is carried by an inner sized-CRC
  /// record, segment and SPMD task files, size-only).
  std::uint32_t crc = 0;
  bool has_crc = false;
};

/// The COMMIT manifest published as the LAST write of a checkpoint. A
/// state is committed iff its manifest parses and every listed file is
/// present with the listed size.
struct CommitManifest {
  bool spmd = false;
  std::vector<CommitEntry> entries;
  /// Non-empty for a delta generation: the prefix of the generation this
  /// one chains to, which every chain walk follows (the meta's copy must
  /// agree). Full generations leave it empty and serialize on the
  /// unchanged version-1 encoding.
  std::string base_prefix;

  [[nodiscard]] const CommitEntry* entry(const std::string& name) const;
};

/// ---- file-name helpers ------------------------------------------------------
[[nodiscard]] std::string commit_file_name(const std::string& prefix);
[[nodiscard]] std::string meta_file_name(const std::string& prefix);
[[nodiscard]] std::string segment_file_name(const std::string& prefix);
[[nodiscard]] std::string array_file_name(const std::string& prefix,
                                          const std::string& array_name);
[[nodiscard]] std::string delta_array_file_name(const std::string& prefix,
                                                const std::string& array_name);
[[nodiscard]] std::string spmd_meta_file_name(const std::string& prefix);
[[nodiscard]] std::string spmd_task_file_name(const std::string& prefix,
                                              int rank);

/// ---- meta record I/O ---------------------------------------------------------
/// Full on-volume image of a meta / manifest file ([crc][size][body]).
/// Exposed so the commit session can derive manifest CRCs and publication
/// sizes from the exact bytes it is about to write.
[[nodiscard]] support::ByteBuffer encode_checkpoint_meta(const CheckpointMeta& meta);
[[nodiscard]] support::ByteBuffer encode_commit_manifest(const CommitManifest& manifest);

/// The committed predicate for one generation: its commit manifest exists
/// and parses, and every file it lists is present with the listed size.
/// Appends each failure to `problems`; returns the manifest if it parsed.
[[nodiscard]] std::optional<CommitManifest> check_commit(
    const store::StorageBackend& storage, const std::string& prefix,
    std::vector<std::string>& problems);
[[nodiscard]] bool commit_manifest_exists(const store::StorageBackend& storage,
                                          const std::string& prefix);
/// Remove the commit manifest if present (the decommit step that precedes
/// overwriting a prefix). Returns true when a manifest was removed.
bool decommit_checkpoint(store::StorageBackend& storage, const std::string& prefix);

[[nodiscard]] CheckpointMeta read_checkpoint_meta(const store::StorageBackend& storage,
                                                  const std::string& prefix);
[[nodiscard]] bool checkpoint_exists(const store::StorageBackend& storage,
                                     const std::string& prefix);

[[nodiscard]] CheckpointMeta read_spmd_meta(const store::StorageBackend& storage,
                                            const std::string& prefix);
[[nodiscard]] bool spmd_checkpoint_exists(const store::StorageBackend& storage,
                                          const std::string& prefix);

/// Metas already read, by prefix: one scan reads each meta file once.
using MetaCache = std::map<std::string, CheckpointMeta>;

/// The meta of the generation `manifest` publishes under `prefix`, from
/// `metas` or else read from the meta file the manifest lists (whose CRC
/// and chain base must match the manifest's) and added to `metas`.
/// Throws CorruptCheckpoint.
const CheckpointMeta& read_listed_meta(const store::StorageBackend& storage,
                                       const std::string& prefix,
                                       const CommitManifest& manifest,
                                       MetaCache& metas);

/// ---- segment files -----------------------------------------------------------
/// The fixed header of a DRMS segment file.
struct SegmentHeader {
  std::uint64_t replicated_size = 0;
  std::uint64_t total_bytes = 0;
};
[[nodiscard]] support::ByteBuffer encode_segment_header(const SegmentHeader& header);

/// Reads the header of DRMS segment file `file`, named `what`, and checks
/// its magic, its version, a total equal to the file's size and a
/// replicated payload that fits in it. Throws CorruptCheckpoint.
[[nodiscard]] SegmentHeader read_segment_header(const store::FileHandle& file,
                                                const std::string& what);

/// Reads the [u64 size][u32 crc][body] record at `offset` of `file`, which
/// must end by offset `end`: the size is checked against those bytes
/// before the body is read (unless `read_body` is false: an empty buffer
/// comes back) and its CRC-32C checked. Throws CorruptCheckpoint.
[[nodiscard]] support::ByteBuffer read_sized_crc_record(
    const store::FileHandle& file, std::uint64_t offset, std::uint64_t end,
    const std::string& what, bool read_body = true);

/// Reads task `rank`'s SPMD segment file: its sized-CRC record, then the
/// body's magic, version and rank. Returns the body, its cursor past
/// them. Throws CorruptCheckpoint.
[[nodiscard]] support::ByteBuffer read_spmd_task_segment(
    const store::FileHandle& file, int rank, const std::string& what);

/// Total on-volume size of a saved state (all files under the layout) —
/// the paper's "size of saved state" metric (Table 3): what its commit
/// manifest lists, less the meta. The state must be committed.
[[nodiscard]] std::uint64_t listed_state_size(const CommitManifest& manifest,
                                              const std::string& prefix);
[[nodiscard]] std::uint64_t drms_state_size(const store::StorageBackend& storage,
                                            const std::string& prefix);
[[nodiscard]] std::uint64_t spmd_state_size(const store::StorageBackend& storage,
                                            const std::string& prefix);

}  // namespace drms::core
