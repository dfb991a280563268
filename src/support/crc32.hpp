// CRC-32C (Castagnoli) — used to checksum every record in a checkpoint
// file so restart can detect corruption instead of silently loading
// garbage state.
//
// Three kernels compute the same polynomial:
//   kBytewise   the classic one-table loop (~1 byte/cycle) — the portable
//               reference all other kernels are tested against.
//   kSlicing16  slicing-by-16: sixteen tables, 16 bytes per iteration —
//               the portable fast path.
//   kHardware   SSE4.2 (x86-64, three interleaved crc32q lanes) / ARMv8
//               CRC instructions — the memory-bandwidth path where the
//               CPU provides it.
// Dispatch is resolved once at runtime (CPUID / hwcaps); every kernel
// produces bit-identical values, so checkpoint files and stream CRCs do
// not depend on the host the writer ran on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace drms::support {

enum class Crc32cKernel {
  kBytewise,
  kSlicing16,
  kHardware,
};

/// True when the kernel can run on this host (bytewise and slicing-by-16
/// always can; hardware needs SSE4.2 or the ARMv8 CRC extension).
[[nodiscard]] bool crc32c_kernel_available(Crc32cKernel kernel) noexcept;

/// The kernel runtime dispatch selected (the fastest available one).
[[nodiscard]] Crc32cKernel crc32c_active_kernel() noexcept;

[[nodiscard]] const char* to_string(Crc32cKernel kernel) noexcept;

/// Incremental CRC-32C. Construct, feed bytes with update(), read value().
/// Uses the dispatched (fastest available) kernel.
class Crc32c {
 public:
  void update(std::span<const std::byte> bytes) noexcept;
  void update_raw(const void* p, std::size_t n) noexcept;
  [[nodiscard]] std::uint32_t value() const noexcept { return ~state_; }
  void reset() noexcept { state_ = ~0u; }

 private:
  std::uint32_t state_ = ~0u;
};

/// One-shot convenience wrapper (dispatched kernel).
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> bytes) noexcept;

/// One-shot through a specific kernel — for the known-answer tests and the
/// data-plane benchmark. The kernel must be available on this host.
[[nodiscard]] std::uint32_t crc32c(Crc32cKernel kernel,
                                   std::span<const std::byte> bytes) noexcept;

/// CRC combination: given crc1 = crc32c(A) and crc2 = crc32c(B), returns
/// crc32c(A || B) where B is `len2` bytes long: crc1 times x^(8 len2)
/// mod P, from a table of x^(2^k) mod P — O(log len2) carry-less
/// multiplies. Lets parallel writers checksum their chunks independently
/// and still produce the exact CRC of the whole stream, independent of
/// the chunking.
[[nodiscard]] std::uint32_t crc32c_combine(std::uint32_t crc1,
                                           std::uint32_t crc2,
                                           std::uint64_t len2) noexcept;

}  // namespace drms::support
