#include "support/crc32.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#if defined(__ARM_FEATURE_CRC32) || defined(__GNUC__)
#include <arm_acle.h>
#endif
#if defined(__linux__)
#include <sys/auxv.h>
#endif
#endif

namespace drms::support {

namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u;  // reflected CRC-32C polynomial

/// Sixteen 256-entry tables: table[0] is the classic bytewise table;
/// table[k][b] extends a byte's contribution across k more zero bytes, so
/// the slicing kernel can fold 16 input bytes per iteration.
constexpr std::array<std::array<std::uint32_t, 256>, 16> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 16> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < 16; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr auto kTables = make_tables();

/// a * b mod P over GF(2), both in reflected order (x^0 is the top bit).
/// `a` must be nonzero.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31;; m >>= 1) {
    if ((a & m) != 0) {
      product ^= b;
      if ((a & (m - 1)) == 0) {
        return product;
      }
    }
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
}

/// kX2n[k] = x^(2^k) mod P for every k a 64-bit byte count can reach
/// (bit 63 of a byte length is 2^66 bits). The powers do not repeat with
/// period 32: CRC-32C's P is (x + 1) times a primitive degree-31
/// polynomial, so x^(2^k) has period 31 in k, and zlib's `k & 31` wrap
/// would be wrong from 2^29 bytes on.
constexpr std::array<std::uint32_t, 67> make_x2n_table() {
  std::array<std::uint32_t, 67> table{};
  std::uint32_t p = 1u << 30;  // x^1
  table[0] = p;
  for (std::size_t k = 1; k < table.size(); ++k) {
    p = multmodp(p, p);
    table[k] = p;
  }
  return table;
}

constexpr auto kX2n = make_x2n_table();

/// x^(8 * bytes) mod P: the operator that appends `bytes` zero bytes to a
/// raw CRC state.
constexpr std::uint32_t zeros_operator(std::uint64_t bytes) noexcept {
  std::uint32_t p = 1u << 31;  // x^0
  for (std::size_t k = 3; bytes != 0; bytes >>= 1, ++k) {
    if ((bytes & 1u) != 0) {
      p = multmodp(kX2n[k], p);
    }
  }
  return p;
}

/// All kernels transform the RAW (inverted) running state; the ~ at entry
/// and exit lives in the callers.
std::uint32_t update_bytewise(std::uint32_t crc, const void* p,
                              std::size_t n) noexcept {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ b[i]) & 0xffu];
  }
  return crc;
}

std::uint32_t load_le32(const unsigned char* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;  // host is little-endian (asserted in byte_buffer.cpp)
}

std::uint32_t update_slicing16(std::uint32_t crc, const void* ptr,
                               std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(ptr);
  while (n >= 16) {
    const std::uint32_t a = crc ^ load_le32(p);
    const std::uint32_t b = load_le32(p + 4);
    const std::uint32_t c = load_le32(p + 8);
    const std::uint32_t d = load_le32(p + 12);
    crc = kTables[15][a & 0xffu] ^ kTables[14][(a >> 8) & 0xffu] ^
          kTables[13][(a >> 16) & 0xffu] ^ kTables[12][a >> 24] ^
          kTables[11][b & 0xffu] ^ kTables[10][(b >> 8) & 0xffu] ^
          kTables[9][(b >> 16) & 0xffu] ^ kTables[8][b >> 24] ^
          kTables[7][c & 0xffu] ^ kTables[6][(c >> 8) & 0xffu] ^
          kTables[5][(c >> 16) & 0xffu] ^ kTables[4][c >> 24] ^
          kTables[3][d & 0xffu] ^ kTables[2][(d >> 8) & 0xffu] ^
          kTables[1][(d >> 16) & 0xffu] ^ kTables[0][d >> 24];
    p += 16;
    n -= 16;
  }
  return update_bytewise(crc, p, n);
}

#if defined(__x86_64__)

/// The three-lane kernel's lane: long enough that the two shifts per
/// block are noise, short enough that a 1 MiB chunk runs ~85 blocks.
constexpr std::size_t kLaneBytes = 4096;
constexpr std::uint32_t kShiftOneLane = zeros_operator(kLaneBytes);
constexpr std::uint32_t kShiftTwoLanes = zeros_operator(2 * kLaneBytes);

__attribute__((target("sse4.2"))) std::uint32_t update_hardware(
    std::uint32_t crc, const void* ptr, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(ptr);
  // Align to 8 bytes so the 64-bit form runs on aligned loads.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  const auto load = [](const unsigned char* q) {
    std::uint64_t v;
    std::memcpy(&v, q, sizeof v);
    return v;
  };
  // crc32q has a latency of three cycles and a throughput of one, so
  // three independent chains over adjacent lanes keep the unit busy. The
  // lanes merge by linearity: crc(s, A || B || C) = crc(s, A) * x^(8|BC|)
  // ^ crc(0, B) * x^(8|C|) ^ crc(0, C).
  while (n >= 3 * kLaneBytes) {
    std::uint64_t c0 = crc;
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kLaneBytes; i += 8) {
      c0 = _mm_crc32_u64(c0, load(p + i));
      c1 = _mm_crc32_u64(c1, load(p + kLaneBytes + i));
      c2 = _mm_crc32_u64(c2, load(p + 2 * kLaneBytes + i));
    }
    crc = multmodp(kShiftTwoLanes, static_cast<std::uint32_t>(c0)) ^
          multmodp(kShiftOneLane, static_cast<std::uint32_t>(c1)) ^
          static_cast<std::uint32_t>(c2);
    p += 3 * kLaneBytes;
    n -= 3 * kLaneBytes;
  }
  std::uint64_t crc64 = crc;
  while (n >= 8) {
    crc64 = _mm_crc32_u64(crc64, load(p));
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(crc64);
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  return crc;
}

bool hardware_available() noexcept {
  return __builtin_cpu_supports("sse4.2") != 0;
}

#elif defined(__aarch64__)

__attribute__((target("+crc"))) std::uint32_t update_hardware(
    std::uint32_t crc, const void* ptr, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(ptr);
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = __crc32cb(crc, *p++);
    --n;
  }
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    crc = __crc32cd(crc, v);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = __crc32cb(crc, *p++);
    --n;
  }
  return crc;
}

bool hardware_available() noexcept {
#if defined(__linux__) && defined(HWCAP_CRC32)
  return (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
#elif defined(__ARM_FEATURE_CRC32)
  return true;  // baked into the target baseline
#else
  return false;
#endif
}

#else

std::uint32_t update_hardware(std::uint32_t crc, const void* ptr,
                              std::size_t n) noexcept {
  return update_slicing16(crc, ptr, n);  // never dispatched
}

bool hardware_available() noexcept { return false; }

#endif

using UpdateFn = std::uint32_t (*)(std::uint32_t, const void*,
                                   std::size_t) noexcept;

UpdateFn kernel_fn(Crc32cKernel kernel) noexcept {
  switch (kernel) {
    case Crc32cKernel::kBytewise:
      return &update_bytewise;
    case Crc32cKernel::kSlicing16:
      return &update_slicing16;
    case Crc32cKernel::kHardware:
      return &update_hardware;
  }
  return &update_bytewise;
}

/// Resolved once per process; every kernel yields identical values, so
/// the choice affects throughput only.
struct Dispatch {
  Crc32cKernel kernel;
  UpdateFn fn;
};

Dispatch resolve_dispatch() noexcept {
  const Crc32cKernel kernel = hardware_available()
                                  ? Crc32cKernel::kHardware
                                  : Crc32cKernel::kSlicing16;
  return Dispatch{kernel, kernel_fn(kernel)};
}

const Dispatch& dispatch() noexcept {
  static const Dispatch d = resolve_dispatch();
  return d;
}

}  // namespace

bool crc32c_kernel_available(Crc32cKernel kernel) noexcept {
  return kernel != Crc32cKernel::kHardware || hardware_available();
}

Crc32cKernel crc32c_active_kernel() noexcept { return dispatch().kernel; }

const char* to_string(Crc32cKernel kernel) noexcept {
  switch (kernel) {
    case Crc32cKernel::kBytewise:
      return "bytewise";
    case Crc32cKernel::kSlicing16:
      return "slicing16";
    case Crc32cKernel::kHardware:
      return "hardware";
  }
  return "unknown";
}

void Crc32c::update(std::span<const std::byte> bytes) noexcept {
  update_raw(bytes.data(), bytes.size());
}

void Crc32c::update_raw(const void* p, std::size_t n) noexcept {
  state_ = dispatch().fn(state_, p, n);
}

std::uint32_t crc32c(std::span<const std::byte> bytes) noexcept {
  return ~dispatch().fn(~0u, bytes.data(), bytes.size());
}

std::uint32_t crc32c(Crc32cKernel kernel,
                     std::span<const std::byte> bytes) noexcept {
  return ~kernel_fn(kernel)(~0u, bytes.data(), bytes.size());
}

std::uint32_t crc32c_combine(std::uint32_t crc1, std::uint32_t crc2,
                             std::uint64_t len2) noexcept {
  if (len2 == 0) {
    return crc1;
  }
  return multmodp(zeros_operator(len2), crc1) ^ crc2;
}

}  // namespace drms::support
