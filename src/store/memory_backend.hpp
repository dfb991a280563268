// Node-local in-memory checkpoint tier (ReStore-style).
//
// Files live in host RAM (sparsely, via piofs::ExtentFile, so the
// logically-sized segment padding costs nothing real). The tier has a
// configurable logical capacity; a write that would not fit throws
// CapacityExceeded BEFORE mutating anything, which is the signal
// TieredBackend uses to spill the file to the slow tier.
//
// Timing uses the memory-tier knobs of sim::CostModel: writes and reads
// move at memory bandwidth on every task independently (the tier is
// node-local, so there is no file-server contention and no co-location
// penalty); the redistribution half of a streaming round is client CPU
// work and keeps the PIOFS model's rate.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "store/storage_backend.hpp"

namespace drms::store {

class MemoryBackend final : public StorageBackend {
 public:
  /// `capacity_bytes` caps the sum of logical file sizes (0 = unlimited).
  /// `cost` may be null: no time accounting.
  explicit MemoryBackend(std::uint64_t capacity_bytes = 0,
                         const sim::CostModel* cost = nullptr)
      : capacity_bytes_(capacity_bytes), cost_(cost) {}

  MemoryBackend(const MemoryBackend&) = delete;
  MemoryBackend& operator=(const MemoryBackend&) = delete;

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
  /// Node-local: an I/O phase against this tier touches no file servers.
  [[nodiscard]] int server_count() const override { return 1; }
  [[nodiscard]] std::uint64_t capacity_bytes() const override {
    return capacity_bytes_;
  }
  [[nodiscard]] std::uint64_t used_bytes() const override;
  /// Host bytes the stored blocks occupy; zero runs written with
  /// write_zeros_at take none (tests of the sparse copy paths).
  [[nodiscard]] std::uint64_t allocated_bytes() const;

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

 private:
  struct MemFile;
  class MemFileObject;

  /// Reserve `grow_by` additional logical bytes; throws CapacityExceeded
  /// when the tier would overflow. Also bumps the write counters.
  void account_write(std::uint64_t grow_by, std::uint64_t count);
  void account_read(std::uint64_t count) const;
  [[nodiscard]] double jittered(double seconds, support::Rng* jitter) const;

  std::uint64_t capacity_bytes_;
  const sim::CostModel* cost_;
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<MemFile>> files_;
  std::uint64_t used_bytes_ = 0;
  mutable StorageStats stats_;
};

}  // namespace drms::store
