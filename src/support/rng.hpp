// Deterministic pseudo-random number generation. Everything that needs
// randomness (timing jitter in the cost model, synthetic workload data,
// property-test inputs) takes a seeded Rng so runs are reproducible.
#pragma once

#include <cstdint>

namespace drms::support {

/// xoshiro256** — fast, high-quality, and trivially seedable via splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit value.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  /// Uniform in [0, 1).
  [[nodiscard]] double next_double() noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo,
                                         std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (one value per call; no caching so the
  /// stream stays position-independent).
  [[nodiscard]] double next_gaussian() noexcept;

  /// Lognormal multiplicative jitter centered on 1.0 with the given sigma
  /// (sigma = 0.1 gives ~10% run-to-run spread) — used for timing noise.
  [[nodiscard]] double jitter(double sigma) noexcept;

  /// Derive an independent child generator (e.g. one per task).
  [[nodiscard]] Rng fork(std::uint64_t stream_id) noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace drms::support
