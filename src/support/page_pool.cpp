#include "support/page_pool.hpp"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <utility>

namespace drms::support {

namespace {

constexpr std::size_t kUnit = PageBuffer::kUnit;
constexpr std::size_t kSlab = PageBuffer::kSlab;
constexpr std::size_t kUnitsPerSlab = kSlab / kUnit;

/// One bit per unit of a slab.
using UnitMask = std::uint32_t;
static_assert(kUnitsPerSlab == 32, "one UnitMask bit per unit of a slab");

constexpr UnitMask low_bits(std::size_t n) {
  return n >= kUnitsPerSlab ? ~UnitMask{0} : (UnitMask{1} << n) - 1;
}

/// Lowest unit that starts `units` consecutive free units, or
/// kUnitsPerSlab when the slab has no such run.
std::size_t find_run(UnitMask used, std::size_t units) {
  UnitMask starts = ~used;
  for (std::size_t k = 1; k < units && starts != 0; ++k) {
    starts &= ~used >> k;
  }
  return static_cast<std::size_t>(std::countr_zero(starts));
}

/// Maps `bytes` (a multiple of the unit) of zeroed memory at a
/// slab-aligned address, advised for huge pages. The advice is a hint:
/// without transparent huge pages the mapping works on 4 KiB pages.
std::byte* map_aligned(std::size_t bytes) {
  const std::size_t span = bytes + kSlab;
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) {
    throw std::bad_alloc();
  }
  const auto start = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t aligned = (start + kSlab - 1) & ~(kSlab - 1);
  if (aligned > start) {
    ::munmap(raw, aligned - start);
  }
  const std::size_t tail = start + span - (aligned + bytes);
  if (tail > 0) {
    ::munmap(reinterpret_cast<void*>(aligned + bytes), tail);
  }
  auto* p = reinterpret_cast<std::byte*>(aligned);
  ::madvise(p, bytes, MADV_HUGEPAGE);
  return p;
}

void unmap(std::byte* p, std::size_t bytes) noexcept {
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
  ::munmap(p, bytes);
}

class PagePool {
 public:
  /// Never destroyed, so a buffer released during static destruction
  /// still finds its pool.
  static PagePool& instance() {
    static PagePool* const pool = new PagePool;
    return *pool;
  }

  std::byte* allocate(std::size_t bytes, bool zeroed) {
    const std::size_t units = (bytes + kUnit - 1) / kUnit;
    if (units > kUnitsPerSlab) {
      return map_own(bytes, units * kUnit);
    }
    std::byte* p = nullptr;
    UnitMask recycled = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      p = take_run(units, recycled);
    }
    if (p == nullptr) {
      p = take_new_slab(units);
    }
    ASAN_UNPOISON_MEMORY_REGION(p, bytes);
    if (zeroed) {
      // Units never handed out since the slab was mapped are still the
      // kernel's zero pages; only recycled ones need clearing.
      for (; recycled != 0; recycled &= recycled - 1) {
        const std::size_t at = kUnit * static_cast<std::size_t>(
                                           std::countr_zero(recycled));
        std::memset(p + at, 0, std::min(kUnit, bytes - at));
      }
    }
    return p;
  }

  void release(std::byte* p, std::size_t bytes) noexcept {
    const std::size_t units = (bytes + kUnit - 1) / kUnit;
    if (units > kUnitsPerSlab) {
      unmap(p, units * kUnit);
      const std::lock_guard<std::mutex> lock(mutex_);
      stats_.mapped_bytes -= units * kUnit;
      stats_.live_bytes -= units * kUnit;
      return;
    }
    const auto addr = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t base = addr & ~(kSlab - 1);
    const UnitMask run = low_bits(units) << ((addr - base) / kUnit);
    ASAN_POISON_MEMORY_REGION(p, units * kUnit);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stats_.live_bytes -= units * kUnit;
      auto it = free_.find(base);
      if (it == free_.end()) {
        // Node handles move between the maps without allocating.
        it = free_.insert(full_.extract(base)).position;
      }
      it->second.used &= ~run;
      if (it->second.used != 0) {
        return;
      }
      free_.erase(it);
      stats_.mapped_bytes -= kSlab;
    }
    unmap(reinterpret_cast<std::byte*>(base), kSlab);
  }

  PagePoolStats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

 private:
  struct Slab {
    /// Units handed out now.
    UnitMask used = 0;
    /// Units handed out since the slab was mapped: the others still
    /// read as the kernel's zeros.
    UnitMask dirty = 0;
  };

  /// Takes the first run of `units` free units, lowest slab first, and
  /// reports which of them held bytes before (bit i: the run's unit i).
  /// Null when no slab fits.
  std::byte* take_run(std::size_t units, UnitMask& recycled) {
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      Slab& slab = it->second;
      const std::size_t first = find_run(slab.used, units);
      if (first == kUnitsPerSlab) {
        continue;
      }
      const UnitMask run = low_bits(units) << first;
      recycled = (slab.dirty & run) >> first;
      slab.used |= run;
      slab.dirty |= run;
      stats_.live_bytes += units * kUnit;
      const std::uintptr_t base = it->first;
      if (slab.used == ~UnitMask{0}) {
        full_.insert(free_.extract(it));
      }
      return reinterpret_cast<std::byte*>(base + first * kUnit);
    }
    return nullptr;
  }

  /// Maps a slab and hands out its first `units` units.
  std::byte* take_new_slab(std::size_t units) {
    std::byte* slab = map_aligned(kSlab);
    ASAN_POISON_MEMORY_REGION(slab, kSlab);
    const auto base = reinterpret_cast<std::uintptr_t>(slab);
    const UnitMask run = low_bits(units);
    try {
      const std::lock_guard<std::mutex> lock(mutex_);
      auto& index = run == ~UnitMask{0} ? full_ : free_;
      index.emplace(base, Slab{run, run});
      stats_.mapped_bytes += kSlab;
      stats_.live_bytes += units * kUnit;
    } catch (...) {
      unmap(slab, kSlab);
      throw;
    }
    return slab;
  }

  /// A buffer above one slab: its own mapping, fresh and so zeroed.
  std::byte* map_own(std::size_t bytes, std::size_t mapped) {
    std::byte* p = map_aligned(mapped);
    ASAN_POISON_MEMORY_REGION(p + bytes, mapped - bytes);
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.mapped_bytes += mapped;
    stats_.live_bytes += mapped;
    return p;
  }

  mutable std::mutex mutex_;
  /// Slabs with at least one free unit, by base address: the index
  /// allocation searches.
  std::map<std::uintptr_t, Slab> free_;
  /// Slabs with every unit handed out.
  std::map<std::uintptr_t, Slab> full_;
  PagePoolStats stats_;
};

std::byte* allocate(std::size_t size, PageBuffer::Init init) {
  const bool zeroed = init == PageBuffer::Init::kZeroed;
  if (size == 0) {
    return nullptr;
  }
  if (size < kUnit) {
    return zeroed ? new std::byte[size]() : new std::byte[size];
  }
  return PagePool::instance().allocate(size, zeroed);
}

}  // namespace

PagePoolStats page_pool_stats() { return PagePool::instance().stats(); }

PageBuffer::PageBuffer(std::size_t size, Init init)
    : data_(allocate(size, init)), size_(size) {}

PageBuffer::PageBuffer(const PageBuffer& other)
    : PageBuffer(other.size_, Init::kUninitialized) {
  if (size_ > 0) {
    std::memcpy(data_, other.data_, size_);
  }
}

PageBuffer& PageBuffer::operator=(const PageBuffer& other) {
  if (this != &other) {
    *this = PageBuffer(other);
  }
  return *this;
}

PageBuffer::PageBuffer(PageBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

PageBuffer& PageBuffer::operator=(PageBuffer&& other) noexcept {
  std::swap(data_, other.data_);
  std::swap(size_, other.size_);
  return *this;
}

PageBuffer::~PageBuffer() {
  if (size_ >= kUnit) {
    PagePool::instance().release(data_, size_);
  } else {
    delete[] data_;
  }
}

}  // namespace drms::support
