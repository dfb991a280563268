// Two-tier staged checkpoint storage (SCR / ReStore lineage).
//
// Writes land in the FAST tier (write-through staging): the checkpoint is
// committed — and the application resumes — as soon as the fast tier
// holds the bytes. A background drain() later copies the dirty files to
// the SLOW tier (the parallel FS), off the application's critical path.
// Restart reads the nearest valid copy: fast when it survived, the
// drained slow copy after a fast-tier loss (fail_fast_tier()).
//
// Capacity fallback: when a fast-tier write throws CapacityExceeded, the
// file spills — its staged bytes move to the slow tier and all further
// writes to it go there directly, degrading gracefully to the PIOFS-only
// behaviour instead of failing the checkpoint.
//
// Timing: the engines charge phase times through the backend primitives.
// Write phases price at the fast tier while it has room for the phase
// (else the slow tier — the spilled case); read phases price at the fast
// tier while it holds staged copies, and at the slow tier after a loss.
// This is a phase-level decision, consistent with the repo's architecture
// of engines charging whole phases with a global view. Drain time is
// simulated against the slow tier but reported separately — it is
// background work, never charged to the application's clock.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "store/storage_backend.hpp"

namespace drms::store {

class TieredBackend final : public StorageBackend {
 public:
  /// Borrows both tiers; they must outlive the backend. The slow tier is
  /// authoritative for server_count and the cost model's ambient knobs.
  TieredBackend(StorageBackend& fast, StorageBackend& slow);

  TieredBackend(const TieredBackend&) = delete;
  TieredBackend& operator=(const TieredBackend&) = delete;

  FileHandle create(const std::string& name) override;
  [[nodiscard]] FileHandle open(const std::string& name) const override;
  [[nodiscard]] bool exists(const std::string& name) const override;
  void remove(const std::string& name) override;
  int remove_prefix(const std::string& prefix) override;
  [[nodiscard]] std::vector<std::string> list(
      const std::string& prefix = "") const override;

  [[nodiscard]] StorageStats stats() const override;
  void reset_stats() override;
  [[nodiscard]] std::string description() const override;
  [[nodiscard]] int server_count() const override {
    return slow_.server_count();
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const override {
    return fast_.capacity_bytes();
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return fast_.used_bytes();
  }

  [[nodiscard]] const sim::CostModel* cost_model() const override {
    return slow_.cost_model() != nullptr ? slow_.cost_model()
                                         : fast_.cost_model();
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

  // ---- staging control ------------------------------------------------------
  struct DrainReport {
    int files_drained = 0;
    std::uint64_t bytes_drained = 0;
    /// Simulated slow-tier write time of the drained copies (background;
    /// NOT charged to the application).
    double simulated_seconds = 0.0;
  };

  /// Copy every dirty fast-tier file to the slow tier. `load` shapes the
  /// simulated slow-tier write time of the report (a drain typically runs
  /// while the application computes, so the servers see its residency).
  DrainReport drain(const sim::LoadContext& load = {});

  // ---- event-model drain ----------------------------------------------------
  // drain() above is the synchronous sweep; the checkpoint service
  // (svc::submit_drain) instead asks for the work list and drains one
  // file per scheduler item, so restores can preempt between files.

  /// One dirty file awaiting drain.
  struct DrainItem {
    std::string name;
    std::uint64_t bytes = 0;  ///< staged size at snapshot time
  };
  /// Snapshot of the dirty fast-tier files (the drain work list).
  [[nodiscard]] std::vector<DrainItem> drain_work() const;
  /// Drain a single file: copy fast -> slow under the entry lock and mark
  /// it clean; the fast copy stays for fast restarts. Returns the bytes
  /// copied, or nullopt when the file was already clean, spilled, or
  /// removed meanwhile (callers race benignly with writers and GC).
  std::optional<std::uint64_t> drain_file(const std::string& name);
  /// Modeled background write time of draining `bytes` to the slow tier
  /// (never charged to the application's clock).
  [[nodiscard]] double drain_write_seconds(
      std::uint64_t bytes, const sim::LoadContext& load = {}) const;

  /// Simulate losing the fast tier (node crash): every fast copy is
  /// dropped. Files already drained fall back to their slow copy;
  /// undrained files are LOST — subsequent open()/exists() fail, exactly
  /// the window a multi-level scheme accepts.
  void fail_fast_tier();

  /// Re-sync the entry table with what the fast tier actually still
  /// holds. A redundancy-encoded fast tier loses files out from under the
  /// entries on a PARTIAL node failure (RedundantBackend::fail_node);
  /// entries whose fast copy vanished are downgraded — drained files fall
  /// back to their slow copy, undrained ones are lost. Returns the number
  /// of entries downgraded.
  int reconcile_fast_tier();

  /// Dirty fast-tier bytes awaiting drain.
  [[nodiscard]] std::uint64_t drain_backlog_bytes() const;
  /// True while any file still has a fast-tier copy.
  [[nodiscard]] bool fast_holds_data() const;

 private:
  /// Where one file's bytes currently live. dirty == the fast copy is
  /// newer than (or absent from) the slow tier.
  struct Entry {
    std::mutex mutex;
    bool in_fast = false;
    bool in_slow = false;
    bool dirty = false;
  };
  class TieredFileObject;

  /// Entry lookup; adopts pre-existing slow-tier files (a tiered backend
  /// layered over a volume that already holds checkpoints) and creates
  /// the entry when `create_missing`.
  std::shared_ptr<Entry> find_entry(const std::string& name,
                                    bool create_missing) const;
  /// Move a file's staged bytes fast -> slow after a capacity overflow.
  /// Caller holds the entry mutex.
  void spill_locked(const std::string& name, Entry& entry);
  /// Copy one file fast -> slow through the chunk kernel (bounded memory,
  /// zero blocks kept sparse). Caller holds the entry mutex. Returns bytes
  /// copied.
  std::uint64_t copy_to_slow_locked(const std::string& name);
  [[nodiscard]] bool fast_fits(std::uint64_t bytes) const;
  /// How much of a `bytes`-sized write the fast tier can still absorb
  /// before it overflows (the timing model's picture of a mid-operation
  /// spill).
  [[nodiscard]] std::uint64_t fast_admissible(std::uint64_t bytes) const;

  StorageBackend& fast_;
  StorageBackend& slow_;
  mutable std::mutex mutex_;  // guards entries_ (the map, not the files)
  mutable std::map<std::string, std::shared_ptr<Entry>> entries_;
  std::atomic<std::uint64_t> fast_bytes_committed_{0};
  std::atomic<std::uint64_t> drained_bytes_{0};
  std::atomic<std::uint64_t> fast_spills_{0};
};

}  // namespace drms::store
