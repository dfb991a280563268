// The checkpoint service's one virtual-time queueing discipline and its
// one shard placement, shared by the live IoScheduler and by
// discrete-event simulation (the fleet simulator, DESIGN.md §4k).
//
// Discipline: per shard, per priority class, a committed-until clock. A
// class-p service starts at max(arrival, clock[p]) and its completion
// advances clock[q] for every q >= p — restore work delays foreground
// and drain, foreground delays drain, drain delays only itself.
// Placement hashes the shard key with FNV-1a, so it is identical on
// every platform.
//
// The two users differ only in where an arrival comes from. The
// IoScheduler stamps each item with its shard's latest completion at
// submit and prices it at dequeue. QueueModel anchors every submission
// on the caller's own clock (DES time), so concurrent jobs whose
// checkpoints land on the same shard in the same window observe real
// queueing delay — the contention signal the adaptive interval
// controller feeds on.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "svc/io_scheduler.hpp"

namespace drms::svc {

/// Shard a key maps to among `shard_count` (FNV-1a).
[[nodiscard]] int shard_of(std::string_view key, int shard_count) noexcept;

/// One shard's virtual clocks (see the discipline above).
class ShardClock {
 public:
  struct Service {
    double start_seconds = 0.0;
    double wait_seconds = 0.0;  // start - arrival
    double done_seconds = 0.0;  // start + service
  };

  /// Price one request of `service_seconds` arriving at `arrival_seconds`.
  Service serve(Priority priority, double arrival_seconds,
                double service_seconds);

  /// Latest completion on the shard (every service commits the least
  /// urgent class's clock).
  [[nodiscard]] double latest_seconds() const noexcept {
    return committed_until_[kPriorityClasses - 1];
  }

 private:
  double committed_until_[kPriorityClasses] = {0.0, 0.0, 0.0};
};

class QueueModel {
 public:
  explicit QueueModel(int shard_count);

  using Service = ShardClock::Service;

  /// Model one request of `service_seconds` arriving at
  /// `arrival_seconds` on the shard selected by `key`.
  Service submit(std::string_view key, Priority priority,
                 double arrival_seconds, double service_seconds);

  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(shards_.size());
  }
  /// Shard a key maps to (exposed for tests).
  [[nodiscard]] int shard_of(std::string_view key) const noexcept {
    return svc::shard_of(key, shard_count());
  }
  /// Total queue wait accumulated by a class across all shards.
  [[nodiscard]] double total_wait_seconds(Priority priority) const noexcept;
  [[nodiscard]] std::uint64_t submissions(Priority priority) const noexcept;

 private:
  std::vector<ShardClock> shards_;
  double class_wait_[kPriorityClasses] = {0.0, 0.0, 0.0};
  std::uint64_t class_count_[kPriorityClasses] = {0, 0, 0};
};

}  // namespace drms::svc
