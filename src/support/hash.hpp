// Stable hashes: pure functions of their input, identical on every
// platform and standard library (std::hash is implementation-defined, so
// anything placed or seeded by it could differ between builds).
#pragma once

#include <cstdint>
#include <string_view>

namespace drms::support {

/// FNV-1a, 64-bit.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// splitmix64's finalizer: every bit of the result depends on every bit
/// of `h`.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t h) noexcept {
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace drms::support
