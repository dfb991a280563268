// Pluggable fast-tier redundancy schemes (SCR / ReStore lineage).
//
// A RedundancyScheme describes how RedundantBackend fragments one staged
// checkpoint file across cluster nodes so a committed generation survives
// node loss without ever touching slow storage:
//
//   kPartner — every fragment is a full copy of the file, placed on the
//              two nodes of the file's partner pair (SCR's PARTNER
//              descriptor). Survives the loss of either node.
//   kXor     — the file is split contiguously into group_size-1 data
//              fragments plus one XOR parity fragment, one fragment per
//              node of the file's group (SCR's XOR / RAID-5 descriptor).
//              Survives the loss of any ONE node per group.
//
// Fragments are self-describing files named "<base>#f<index>": a fixed
// header (magic, scheme, index/count, payload and original sizes, payload
// CRC-32C) followed by the payload bytes. The header is what makes the
// scavenge path — and `drms_tool fsck`'s fragment-set report — possible
// without any out-of-band metadata: everything needed to reassemble (or
// to prove a set incomplete) is on the surviving nodes themselves.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "store/storage_backend.hpp"

namespace drms::store {

enum class RedundancyKind : std::uint32_t {
  kPartner = 1,  ///< full-copy pairs
  kXor = 2,      ///< group_size-1 data fragments + 1 XOR parity
};

[[nodiscard]] const char* to_string(RedundancyKind kind) noexcept;

struct RedundancyScheme {
  RedundancyKind kind = RedundancyKind::kPartner;
  /// Nodes per redundancy group: 2 for partner pairs, >= 3 for XOR
  /// (group_size - 1 data fragments plus the parity).
  int group_size = 2;

  /// Fragment files one encoded checkpoint file turns into.
  [[nodiscard]] int fragment_count() const noexcept {
    return kind == RedundancyKind::kPartner ? 2 : group_size;
  }
  /// Node losses per group the scheme reassembles through. Both in-tree
  /// schemes tolerate exactly one.
  [[nodiscard]] int tolerated_losses() const noexcept { return 1; }
  /// "partner" / "xor(4)".
  [[nodiscard]] std::string describe() const;
};

// ---- fragment naming --------------------------------------------------------

/// "ckpt.segment" + index 1 -> "ckpt.segment#f1". The '#' never occurs in
/// checkpoint state-file names, so fragment names cannot collide with (or
/// be mistaken for) logical files.
[[nodiscard]] std::string fragment_name(const std::string& base, int index);

/// Inverse of fragment_name: ("ckpt.segment#f1") -> {"ckpt.segment", 1};
/// nullopt when `name` is not a fragment name.
struct FragmentName {
  std::string base;
  int index = 0;
};
[[nodiscard]] std::optional<FragmentName> parse_fragment_name(
    const std::string& name);

// ---- on-volume fragment format ----------------------------------------------

struct FragmentHeader {
  RedundancyKind kind = RedundancyKind::kPartner;
  std::uint32_t index = 0;
  std::uint32_t fragment_count = 0;
  std::uint64_t payload_bytes = 0;
  /// Size of the original (pre-encoding) file.
  std::uint64_t total_bytes = 0;
  /// CRC-32C of the payload, verified by the scavenge path before a
  /// fragment is trusted for reassembly.
  std::uint32_t payload_crc = 0;

  bool operator==(const FragmentHeader&) const = default;
};

inline constexpr std::uint32_t kFragmentMagic = 0x44524647;  // "DRFG"
/// magic + kind + index + count + payload_bytes + total_bytes + crc.
inline constexpr std::uint64_t kFragmentHeaderBytes = 4 + 4 + 4 + 4 + 8 + 8 + 4;

/// Write a fragment's header at offset 0. Writers stream the payload (at
/// kFragmentHeaderBytes) first and the header last: the payload CRC is
/// known only then, and until the header lands the file carries no magic,
/// so a fragment torn between the two is never mistaken for a live one.
void write_fragment_header(FileHandle& file, const FragmentHeader& header);

/// Parse a fragment file's header; nullopt when the file is too small for
/// it or for the payload it announces, or carries the wrong magic.
[[nodiscard]] std::optional<FragmentHeader> read_fragment_header(
    const FileHandle& file);
/// The same by name; nullopt also when the file is missing.
[[nodiscard]] std::optional<FragmentHeader> read_fragment_header(
    const StorageBackend& storage, const std::string& frag_name);

/// Stream a fragment's payload and check it against the header CRC; false
/// when it is torn or corrupt (the scavenge path treats that fragment as
/// lost).
[[nodiscard]] bool fragment_payload_intact(const FileHandle& file,
                                           const FragmentHeader& header);

// ---- contiguous split geometry ----------------------------------------------

/// Byte range of data fragment `index` when `total_bytes` split into
/// `data_fragments` contiguous pieces (first `total % n` pieces get the
/// extra byte). offset == total and length == 0 past the data.
struct FragmentExtent {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};
[[nodiscard]] FragmentExtent fragment_extent(std::uint64_t total_bytes,
                                             int data_fragments, int index);

// ---- scavenge report --------------------------------------------------------

/// Outcome of RedundantBackend::scavenge(): the restart-time sweep that
/// reassembles every surviving file and rebuilds missing fragments onto
/// live nodes (read-repair), so the subsequent restore never touches the
/// slow tier unless a group lost more nodes than the scheme tolerates.
struct ScavengeReport {
  /// Files whose staged copy or full fragment set survived untouched.
  int files_intact = 0;
  /// Files reassembled from a partial fragment set (within tolerance).
  int files_rebuilt = 0;
  /// Files beyond tolerance: their remnants were dropped and restores
  /// must fall back to the slow tier.
  int files_lost = 0;
  /// Fragment payloads re-written onto live nodes by read-repair.
  int fragments_rebuilt = 0;
  /// Fragments whose payload failed its header CRC (counted as lost).
  int crc_failures = 0;
  std::uint64_t bytes_recovered = 0;
  std::vector<std::string> lost;  ///< names of the beyond-tolerance files

  [[nodiscard]] bool complete() const noexcept { return files_lost == 0; }
};

}  // namespace drms::store
