// Redundancy-encoded fast tier: N node-local memory stores behind one
// StorageBackend, with background fragment encoding and a scavenge path.
//
// Life of a file (mirrors TieredBackend's staged/dirty protocol one level
// down):
//
//   staged    create()/writes land as ONE full copy on a node of the
//             file's redundancy group — the checkpoint commits at memory
//             speed, exactly like the plain MemoryBackend tier.
//   encoded   encode_file() (run off the critical path, one svc work item
//             per file — see svc::submit_encode) fragments the staged
//             copy across the group's nodes per the RedundancyScheme and
//             drops the staged copy. From here the file survives the loss
//             of any tolerated node subset. Every bulk copy streams
//             through the chunk kernel (store/chunk_copy.hpp): memory is
//             bounded by its chunk, zero blocks stay sparse, and each
//             fragment's header lands after its payload.
//   read      open()/read route to the staged copy when present; an
//             encoded file is read straight out of its fragments
//             (contiguous-split arithmetic, no reassembly copy). A
//             missing-but-reconstructible fragment is rebuilt onto a live
//             node on first touch (read-repair).
//   scavenge  after fail_node(), scavenge() sweeps every file: verifies
//             surviving fragments against their header CRCs, rebuilds the
//             missing ones within tolerance, and drops the remnants of
//             files beyond tolerance so restores fall back to the slow
//             tier instead of erroring.
//
// The backend is arch-agnostic: it numbers nodes 0..N-1 and leaves the
// mapping to arch::Cluster processors to the caller (see
// arch/placement.hpp), so drms::store keeps its no-upward-deps layering.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "store/memory_backend.hpp"
#include "store/redundancy.hpp"
#include "store/storage_backend.hpp"

namespace drms::store {

class RedundantBackend final : public StorageBackend {
 public:
  /// `node_count` must be a positive multiple of the scheme's group size.
  /// `capacity_per_node` caps each node store (0 = unlimited); `cost` may
  /// be null (no time accounting), as for MemoryBackend.
  RedundantBackend(int node_count, RedundancyScheme scheme,
                   std::uint64_t capacity_per_node = 0,
                   const sim::CostModel* cost = nullptr);

  RedundantBackend(const RedundantBackend&) = delete;
  RedundantBackend& operator=(const RedundantBackend&) = delete;

  // ---- StorageBackend -------------------------------------------------------
  FileHandle create(const std::string& name) override;
  [[nodiscard]] FileHandle open(const std::string& name) const override;
  [[nodiscard]] bool exists(const std::string& name) const override;
  void remove(const std::string& name) override;
  int remove_prefix(const std::string& prefix) override;
  [[nodiscard]] std::vector<std::string> list(
      const std::string& prefix = "") const override;
  [[nodiscard]] std::uint64_t file_size(
      const std::string& name) const override;

  [[nodiscard]] StorageStats stats() const override;
  void reset_stats() override;
  [[nodiscard]] std::string description() const override;
  /// Node-local memory: no file servers.
  [[nodiscard]] int server_count() const override { return 1; }
  /// Aggregate over the UP nodes (a lost node takes its room with it).
  [[nodiscard]] std::uint64_t capacity_bytes() const override;
  [[nodiscard]] std::uint64_t used_bytes() const override;

  [[nodiscard]] const sim::CostModel* cost_model() const override {
    return cost_;
  }
  [[nodiscard]] double single_write_seconds(
      std::uint64_t bytes, const sim::LoadContext& ctx,
      support::Rng* jitter) const override;
  [[nodiscard]] double concurrent_write_seconds(
      std::uint64_t bytes_per_writer, int writers,
      const sim::LoadContext& ctx, support::Rng* jitter) const override;
  [[nodiscard]] double shared_read_seconds(
      std::uint64_t bytes, int readers, const sim::LoadContext& ctx,
      support::Rng* jitter) const override;
  [[nodiscard]] double private_read_seconds(
      std::uint64_t bytes_per_reader, int readers,
      const sim::LoadContext& ctx, support::Rng* jitter) const override;
  [[nodiscard]] double stream_write_round_seconds(
      std::uint64_t bytes, int writers, const sim::LoadContext& ctx,
      support::Rng* jitter) const override;
  [[nodiscard]] double stream_read_round_seconds(
      std::uint64_t bytes, int readers, const sim::LoadContext& ctx,
      support::Rng* jitter) const override;

  // ---- redundancy control ---------------------------------------------------
  [[nodiscard]] const RedundancyScheme& scheme() const noexcept {
    return scheme_;
  }
  [[nodiscard]] int node_count() const noexcept {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] bool node_up(int node) const;

  /// One staged file awaiting encoding (shape mirrors
  /// TieredBackend::DrainItem so svc can schedule both the same way).
  struct EncodeItem {
    std::string name;
    std::uint64_t bytes = 0;
  };
  /// Snapshot of the staged-but-unencoded files (the encode work list).
  [[nodiscard]] std::vector<EncodeItem> encode_work() const;
  /// Encode one file: fragment the staged copy across its group's nodes
  /// and drop the staged copy. Returns the original file's bytes, or
  /// nullopt when the file was removed, re-created, or already encoded
  /// meanwhile (callers race benignly, like TieredBackend::drain_file).
  std::optional<std::uint64_t> encode_file(const std::string& name);
  /// Encode every staged file (the synchronous sweep); returns the count.
  int encode_all();
  /// Modeled background memory-write time of encoding a `bytes` file
  /// (fragments + parity written at memory bandwidth; never charged to
  /// the application's clock).
  [[nodiscard]] double encode_write_seconds(
      std::uint64_t bytes, const sim::LoadContext& load = {}) const;
  /// Total fragment bytes an encoded `bytes`-sized file occupies.
  [[nodiscard]] std::uint64_t encoded_bytes(std::uint64_t bytes) const;

  /// Take node `node` down and drop everything it stored (the fast-tier
  /// half of an arch::Cluster::fail_node event).
  void fail_node(int node);
  /// Bring a repaired node back, empty. Content is NOT restored here;
  /// scavenge()'s read-repair re-protects files onto it lazily.
  void repair_node(int node);

  /// Restart-time sweep: CRC-verify surviving fragments, rebuild missing
  /// ones within tolerance onto live nodes, and drop the remnants of
  /// files beyond tolerance (their restores fall back to the slow tier).
  /// `prefix` limits the sweep ("" = everything).
  ScavengeReport scavenge(const std::string& prefix = "");

  /// Copy every physical file (staged copies and raw fragments) from the
  /// live nodes onto `dst` — the volume-export path drms_tool fsck uses
  /// to audit fragment-set completeness offline.
  void mirror_to(StorageBackend& dst) const;

  /// Placement introspection (tests): node of the staged copy (-1 when
  /// encoded or absent) and the per-fragment nodes (empty when staged).
  [[nodiscard]] int staged_node_of(const std::string& name) const;
  [[nodiscard]] std::vector<int> fragment_nodes_of(
      const std::string& name) const;
  /// Node `node`'s own store, raw fragment files included (tests: inspect
  /// or corrupt fragments in place).
  [[nodiscard]] MemoryBackend& node_store(int node);

 private:
  struct Node {
    std::unique_ptr<MemoryBackend> store;
    std::atomic<bool> up{true};
  };
  /// Where one file's bytes live. Staged and encoded are mutually
  /// exclusive: encode drops the staged copy, materialize drops the
  /// fragments.
  struct FileRec {
    std::mutex mutex;
    int staged_node = -1;
    bool encoded = false;
    std::vector<int> frag_nodes;  ///< node per fragment index, when encoded
    std::uint64_t total = 0;      ///< original (pre-encoding) size
  };
  class RedundantFileObject;

  [[nodiscard]] std::shared_ptr<FileRec> find_rec(const std::string& name,
                                                  bool create_missing) const;
  void drop_rec(const std::string& name);
  /// First group node of `name` (hash placement) and the rotation that
  /// spreads parity across the group.
  [[nodiscard]] int home_group_base(const std::string& name) const;
  [[nodiscard]] int rotation_of(const std::string& name) const;
  /// A live node to stage/rebuild onto: prefers the home group, skips
  /// nodes in `avoid`; -1 when every node is down.
  [[nodiscard]] int pick_live_node(const std::string& name,
                                   const std::vector<int>& avoid) const;

  /// A fragment file that is present on a live node with a sound header.
  struct LiveFragment {
    FileHandle file;
    FragmentHeader header;
  };

  // The helpers below run with rec->mutex held.
  [[nodiscard]] bool readable_locked(const std::string& name,
                                     const FileRec& rec) const;
  /// Fragment `index` when it is present, live, and structurally sound
  /// (its header read once).
  [[nodiscard]] std::optional<LiveFragment> live_fragment_locked(
      const std::string& name, const FileRec& rec, int index) const;
  /// Lowest live fragment index; throws IoError when none survived.
  [[nodiscard]] int first_live_fragment_locked(const std::string& name,
                                               const FileRec& rec) const;
  /// Stream fragment `index`'s payload into `dst` at `offset`: from its
  /// own copy when that verifies, else as the XOR of every other fragment
  /// (a partner's other copy), each survivor CRC-checked as it is read.
  /// Returns the CRC of the bytes written, or nullopt when no verified
  /// source set exists; a failed attempt may leave bytes in `dst`.
  [[nodiscard]] std::optional<std::uint32_t> stream_fragment_locked(
      const std::string& name, const FileRec& rec, int index,
      const FileHandle& dst, std::uint64_t offset) const;
  /// Rebuild missing fragment `index` onto a live node (read-repair). The
  /// header is written only once every survivor verified; otherwise the
  /// partial file is removed and IoError thrown.
  void rebuild_fragment_locked(const std::string& name, FileRec& rec,
                               int index);
  /// Reassemble an encoded file into a staged copy (before a write mutates
  /// it), then drop the fragments. On failure (a full node, a corrupt
  /// fragment set) the partial copy is removed and the error rethrown with
  /// the file still encoded.
  void materialize_locked(const std::string& name, FileRec& rec);
  void remove_physical_locked(const std::string& name, FileRec& rec);

  RedundancyScheme scheme_;
  const sim::CostModel* cost_;
  std::vector<std::unique_ptr<Node>> nodes_;
  mutable std::mutex mutex_;  // guards recs_ (the map, not the files)
  mutable std::map<std::string, std::shared_ptr<FileRec>> recs_;
};

}  // namespace drms::store
