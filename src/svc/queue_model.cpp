#include "svc/queue_model.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace drms::svc {

int shard_of(std::string_view key, int shard_count) noexcept {
  return static_cast<int>(support::fnv1a(key) %
                          static_cast<std::uint64_t>(shard_count));
}

ShardClock::Service ShardClock::serve(Priority priority,
                                      double arrival_seconds,
                                      double service_seconds) {
  DRMS_EXPECTS_MSG(service_seconds >= 0.0, "service time must be >= 0");
  const int cls = static_cast<int>(priority);
  Service out;
  out.start_seconds = std::max(arrival_seconds, committed_until_[cls]);
  out.wait_seconds = out.start_seconds - arrival_seconds;
  out.done_seconds = out.start_seconds + service_seconds;
  // This service occupies the shard for [start, done): no same-class or
  // lower-priority work can start before it completes.
  for (int q = cls; q < kPriorityClasses; ++q) {
    committed_until_[q] = std::max(committed_until_[q], out.done_seconds);
  }
  return out;
}

QueueModel::QueueModel(int shard_count) {
  DRMS_EXPECTS_MSG(shard_count >= 1, "QueueModel needs shard_count >= 1");
  shards_.resize(static_cast<std::size_t>(shard_count));
}

QueueModel::Service QueueModel::submit(std::string_view key,
                                       Priority priority,
                                       double arrival_seconds,
                                       double service_seconds) {
  const Service out =
      shards_[static_cast<std::size_t>(shard_of(key))].serve(
          priority, arrival_seconds, service_seconds);
  const int cls = static_cast<int>(priority);
  class_wait_[cls] += out.wait_seconds;
  ++class_count_[cls];
  return out;
}

double QueueModel::total_wait_seconds(Priority priority) const noexcept {
  return class_wait_[static_cast<int>(priority)];
}

std::uint64_t QueueModel::submissions(Priority priority) const noexcept {
  return class_count_[static_cast<int>(priority)];
}

}  // namespace drms::svc
