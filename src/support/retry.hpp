// Bounded retry-with-backoff for transient I/O failures.
//
// The checkpoint engines wrap each idempotent storage mutation in
// retry_io(): a TransientIoError is retried up to the attempt budget with
// exponentially growing (real, microsecond-scale) backoff, while every
// other exception — including plain IoError — propagates immediately.
// Simulated time is never charged for retries; transients model request
// hiccups beneath the resolution of the paper's cost model.
#pragma once

#include <algorithm>
#include <chrono>
#include <thread>

#include "support/error.hpp"

namespace drms::support {

/// Observer hook for transient-fault absorption: notified once per caught
/// TransientIoError (including the final one when the budget is spent), so
/// an observability layer can count retries against the exact fault
/// schedule a test injected. Implemented by obs::Recorder.
class RetryObserver {
 public:
  virtual ~RetryObserver() = default;
  virtual void on_transient_retry(const char* what, int attempt) = 0;
};

struct RetryPolicy {
  /// Total attempts, first try included.
  int attempts = 4;
  /// Real (wall-clock) backoff before attempt k is 2^(k-1) * base.
  std::chrono::microseconds backoff_base{50};
  /// Optional retry observer (null: no accounting, the zero-overhead
  /// default) and the operation label it sees.
  RetryObserver* observer = nullptr;
  const char* what = "io";
};

/// Backoff before retrying after failed attempt k (1-based): the
/// exponential step 2^(k-1) * base.
[[nodiscard]] inline std::chrono::microseconds retry_backoff(
    const RetryPolicy& policy, int attempt) {
  // Saturate the exponent: a large attempt budget must not shift past the
  // int width — 2^30 * base is already hours of backoff for any sane base.
  return policy.backoff_base * (1 << std::min(attempt - 1, 30));
}

/// Run `op`, retrying on TransientIoError per `policy`. Returns op()'s
/// result; rethrows the last TransientIoError when the attempt budget is
/// spent.
template <typename Op>
decltype(auto) retry_io(Op&& op, const RetryPolicy& policy = {}) {
  for (int attempt = 1;; ++attempt) {
    try {
      return op();
    } catch (const TransientIoError&) {
      if (policy.observer != nullptr) {
        policy.observer->on_transient_retry(policy.what, attempt);
      }
      if (attempt >= policy.attempts) {
        throw;
      }
      std::this_thread::sleep_for(retry_backoff(policy, attempt));
    }
  }
}

}  // namespace drms::support
