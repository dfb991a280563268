// Sparse in-memory file storage. Data lives in 64 KiB blocks, each one
// unit of the process-wide page pool (support/page_pool.hpp), allocated on
// first write; a new block is cleared only where that write does not
// cover it. Unwritten regions read back as zeros, and zero-fill writes
// (used to model the bulk private/system portions of a task's data
// segment) extend the file without allocating memory.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "support/page_pool.hpp"

namespace drms::piofs {

class ExtentFile {
 public:
  /// Block granularity of the sparse store: one page-pool unit.
  static constexpr std::uint64_t kBlockSize = support::PageBuffer::kUnit;

  void write_at(std::uint64_t offset, std::span<const std::byte> data);

  /// Logically writes `count` zero bytes at `offset` without allocating
  /// storage for untouched blocks.
  void write_zeros_at(std::uint64_t offset, std::uint64_t count);

  /// Reads `count` bytes starting at `offset`. Reading past end_of_file is
  /// a contract violation (checkpoint readers always know record sizes).
  [[nodiscard]] std::vector<std::byte> read_at(std::uint64_t offset,
                                               std::uint64_t count) const;

  /// Zero-copy read: lands out.size() bytes starting at `offset` directly
  /// in the caller's buffer (no intermediate vector).
  void read_at_into(std::uint64_t offset, std::span<std::byte> out) const;

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// Bytes of real backing storage (for tests of the sparse behaviour).
  [[nodiscard]] std::uint64_t allocated_bytes() const noexcept {
    return static_cast<std::uint64_t>(blocks_.size()) * kBlockSize;
  }

  void truncate();

 private:
  std::map<std::uint64_t, support::PageBuffer> blocks_;
  std::uint64_t size_ = 0;
};

}  // namespace drms::piofs
