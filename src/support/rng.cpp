#include "support/rng.hpp"

#include <bit>
#include <cmath>
#include <numbers>

#include "support/hash.hpp"

namespace drms::support {

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) {
    sm += 0x9e3779b97f4a7c15ull;  // splitmix64
    s = mix64(sm);
  }
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

double Rng::next_double() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

double Rng::next_gaussian() noexcept {
  // Box-Muller; guard against log(0).
  double u1 = next_double();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double u2 = next_double();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::jitter(double sigma) noexcept {
  if (sigma <= 0.0) {
    return 1.0;
  }
  return std::exp(sigma * next_gaussian());
}

Rng Rng::fork(std::uint64_t stream_id) noexcept {
  return Rng(next_u64() ^ (stream_id * 0x9e3779b97f4a7c15ull));
}

}  // namespace drms::support
