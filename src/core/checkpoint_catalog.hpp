// Checkpoint catalog — enumerate the checkpointed states present on a
// storage. The paper allows an application to "maintain multiple
// checkpointed states concurrently" and to be "restarted from any of
// them"; the JSA and the UIC use this inventory to pick a restart
// candidate (normally the highest SOP).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint_format.hpp"

namespace drms::core {

struct CheckpointRecord {
  std::string prefix;
  /// True for conventional per-task (SPMD) states, false for DRMS states.
  bool spmd = false;
  CheckpointMeta meta;
  /// Total on-volume bytes of this state.
  std::uint64_t state_bytes = 0;
};

/// Commit status of one state under the two-phase protocol.
struct CommitCheck {
  /// The state's chain is committed (walk_checkpoint_chain): every
  /// member's manifest parses and every listed file exists with the
  /// listed size, and the base's meta is a readable full generation.
  bool committed = false;
  std::vector<std::string> problems;
  /// Valid only when the manifest parsed (problems may still flag files).
  CommitManifest manifest;
};

/// Commit check of the state under `prefix` in the given layout (or, with
/// nullopt, the one its manifest records), by one walk of its chain
/// (manifests and the base's meta, no data).
[[nodiscard]] CommitCheck commit_status(const store::StorageBackend& storage,
                                        const std::string& prefix,
                                        std::optional<bool> spmd);

/// All COMMITTED checkpointed states under `prefix_filter` (empty = whole
/// volume) whose meta reads, found by their manifests and sorted by SOP
/// ascending; each meta file is read once. Torn states are skipped.
[[nodiscard]] std::vector<CheckpointRecord> list_checkpoints(
    const store::StorageBackend& storage, const std::string& prefix_filter = "");

/// Accept/reject hook for candidate selection. Given a committed record,
/// return true when the state's *contents* are sound (typically a
/// deep-verify: segment + per-array CRCs). Candidates the hook rejects
/// are skipped so selection falls back to the next-older generation.
using DeepVerifyHook = std::function<bool(const CheckpointRecord&)>;

/// Every committed restart candidate for an application name (all modes
/// considered), sorted by SOP DESCENDING — the order a supervisor walks
/// when the newest generation turns out torn or corrupt.
[[nodiscard]] std::vector<CheckpointRecord> restart_candidates(
    const store::StorageBackend& storage, const std::string& app_name,
    const std::string& prefix_filter = "");

/// The restart candidate with the highest SOP for an application name
/// (all modes considered), if any. When `deep_verify` is supplied,
/// committed-but-corrupt states are skipped instead of being returned
/// unconditionally: the newest candidate the hook accepts wins.
[[nodiscard]] std::optional<CheckpointRecord> latest_checkpoint(
    const store::StorageBackend& storage, const std::string& app_name,
    const std::string& prefix_filter = "",
    const DeepVerifyHook& deep_verify = nullptr);

/// Delete every file of one checkpointed state (retention management).
void remove_checkpoint(store::StorageBackend& storage,
                       const CheckpointRecord& record);

/// Outcome of an offline integrity check of one state.
struct VerifyResult {
  bool ok = true;
  std::vector<std::string> problems;
};

/// Offline integrity verification (no task group needed): commit_status's
/// chain walk, then restore's checks over every member through restore's
/// readers, each member's meta and manifest read once. With
/// `deep == false` only structural checks run (meta, segment header and
/// record bounds, delta headers and indexes). With `deep == true` (the
/// default) every byte is read back: segment records, full array streams
/// and every delta block against their CRCs.
[[nodiscard]] VerifyResult verify_checkpoint(const store::StorageBackend& storage,
                                             const CheckpointRecord& record,
                                             bool deep = true);

/// One logical file's redundancy-fragment set ("<base>#f<k>" files from a
/// mirrored redundancy-encoded fast tier), as found by the offline scan.
/// `expected` comes from the fragment headers (0 when none was readable);
/// `present` counts fragments with a readable, untorn header. Both
/// in-tree schemes tolerate one missing fragment per set, so a set is
/// recoverable while `present >= expected - 1`.
struct FsckFragmentSet {
  std::string base;
  int present = 0;
  int expected = 0;
  bool recoverable = false;
};

/// One state as seen by the offline consistency scan (`drms_tool fsck`).
struct FsckState {
  std::string prefix;
  bool spmd = false;
  bool committed = false;
  /// Only redundancy fragments were found under this prefix (a mirrored
  /// encoded fast tier): commit status is not determinable offline, and
  /// the state is not "torn" in the crash sense.
  bool encoded_only = false;
  /// Why the state is torn (or, for a committed state, notes about stray
  /// files). Empty for a clean committed state.
  std::vector<std::string> problems;
  /// Files `gc` may reclaim: every grouped file of a torn state, stray
  /// files not listed in the manifest of a committed one. Redundancy
  /// fragments are never reclaimable — scavenge owns their lifecycle.
  std::vector<std::string> reclaimable;
  std::uint64_t reclaimable_bytes = 0;
  /// Per-logical-file fragment completeness under this state's prefix.
  std::vector<FsckFragmentSet> fragment_sets;
};

/// Group every state file on the storage by prefix and layout and evaluate
/// its commit status. Unlike list_checkpoints this also surfaces torn
/// states (no/invalid manifest, or manifest entries missing/short).
[[nodiscard]] std::vector<FsckState> fsck_scan(
    const store::StorageBackend& storage, const std::string& prefix_filter = "");

/// Reclaim everything fsck_scan marks reclaimable (torn states' files and
/// committed states' strays). Returns the number of files removed.
int gc_torn_states(store::StorageBackend& storage,
                   const std::string& prefix_filter = "");

/// Retention policy: keep only the `keep_last_k` newest (highest-SOP)
/// committed states of the application and remove every older one,
/// preserving bounded fallback depth without unbounded storage growth.
/// States other applications own are untouched. Returns the number of
/// states removed. `keep_last_k < 1` is clamped to 1 — the newest state
/// is never retired by retention. `pinned` prefixes (and, for deltas,
/// their chains) are NEVER reclaimed regardless of SOP rank — the
/// supervisor pins a generation from one selection to the next, so
/// retention cannot pull a generation out from under an in-flight
/// (possibly partial) restore, or retire a failed launch's fallback
/// target between attempts while newer-but-corrupt states hold the
/// keep-newest slots.
int gc_superseded_states(store::StorageBackend& storage,
                         const std::string& app_name,
                         const std::string& prefix_filter = "",
                         int keep_last_k = 2,
                         std::span<const std::string> pinned = {});

}  // namespace drms::core
