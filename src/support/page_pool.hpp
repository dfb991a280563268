// Process-wide page pool for checkpoint bytes. Every buffer of at least
// one 64 KiB unit is a run of units inside a 2 MiB-aligned slab (one
// x86-64 PMD huge page) advised MADV_HUGEPAGE; a buffer above one slab
// gets its own 2 MiB-aligned mapping. With transparent huge pages in
// `madvise` or `always` mode, one fault maps a whole slab instead of 512
// 4 KiB pages. A slab goes back to the OS as soon as its last unit is
// released: the pool keeps no empty slabs, so releasing memory (or a
// malloc_trim) leaves no warm memory behind. Buffers below one unit
// stay on the system allocator, where a unit would waste most of its
// space.
//
// Under AddressSanitizer the pool poisons every unit it has not handed
// out and the slack between a buffer's size and the end of its last
// unit, so a stray access into pooled memory is reported as it would be
// for heap memory.
#pragma once

#include <cstddef>

namespace drms::support {

/// What the pool holds from the OS and what of it is handed out.
struct PagePoolStats {
  /// Bytes of slabs and own mappings currently mapped.
  std::size_t mapped_bytes = 0;
  /// Bytes of the units (and own mappings) handed out to live buffers.
  std::size_t live_bytes = 0;
};

[[nodiscard]] PagePoolStats page_pool_stats();

/// A fixed-size byte buffer on the page pool (on the system allocator
/// below one unit). Copies are deep.
class PageBuffer {
 public:
  /// Pool granularity: one PIOFS extent block.
  static constexpr std::size_t kUnit = 64 * 1024;
  /// A slab: one x86-64 PMD huge page of 32 units.
  static constexpr std::size_t kSlab = 2 * 1024 * 1024;

  enum class Init { kZeroed, kUninitialized };

  PageBuffer() = default;
  /// `kZeroed` reads 0 everywhere: units fresh from the kernel already
  /// do, recycled units are cleared. `kUninitialized` leaves recycled
  /// bytes for the caller to overwrite.
  PageBuffer(std::size_t size, Init init);
  PageBuffer(const PageBuffer& other);
  PageBuffer& operator=(const PageBuffer& other);
  PageBuffer(PageBuffer&& other) noexcept;
  PageBuffer& operator=(PageBuffer&& other) noexcept;
  ~PageBuffer();

  [[nodiscard]] std::byte* data() noexcept { return data_; }
  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace drms::support
