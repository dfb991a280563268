#include "piofs/extent_file.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "support/error.hpp"

namespace drms::piofs {

void ExtentFile::write_at(std::uint64_t offset,
                          std::span<const std::byte> data) {
  std::uint64_t pos = offset;
  std::size_t src = 0;
  while (src < data.size()) {
    const std::uint64_t block_index = pos / kBlockSize;
    const std::uint64_t in_block = pos % kBlockSize;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockSize - in_block, data.size() - src));
    auto it = blocks_.lower_bound(block_index);
    if (it == blocks_.end() || it->first != block_index) {
      // Allocate before inserting, so a failed allocation leaves no
      // empty block behind; clear only what this write leaves uncovered.
      support::PageBuffer block(kBlockSize,
                                support::PageBuffer::Init::kUninitialized);
      std::memset(block.data(), 0, static_cast<std::size_t>(in_block));
      std::memset(block.data() + in_block + n, 0,
                  static_cast<std::size_t>(kBlockSize - in_block - n));
      it = blocks_.emplace_hint(it, block_index, std::move(block));
    }
    std::memcpy(it->second.data() + in_block, data.data() + src, n);
    pos += n;
    src += n;
  }
  size_ = std::max(size_, offset + data.size());
}

void ExtentFile::write_zeros_at(std::uint64_t offset, std::uint64_t count) {
  // Zero out any blocks that already hold data in the range; untouched
  // blocks stay unallocated (they read back as zeros anyway).
  std::uint64_t pos = offset;
  std::uint64_t remaining = count;
  while (remaining > 0) {
    const std::uint64_t block_index = pos / kBlockSize;
    const std::uint64_t in_block = pos % kBlockSize;
    const std::uint64_t n = std::min(kBlockSize - in_block, remaining);
    const auto it = blocks_.find(block_index);
    if (it != blocks_.end()) {
      std::memset(it->second.data() + in_block, 0,
                  static_cast<std::size_t>(n));
    }
    pos += n;
    remaining -= n;
  }
  size_ = std::max(size_, offset + count);
}

std::vector<std::byte> ExtentFile::read_at(std::uint64_t offset,
                                           std::uint64_t count) const {
  std::vector<std::byte> out(static_cast<std::size_t>(count));
  read_at_into(offset, out);
  return out;
}

void ExtentFile::read_at_into(std::uint64_t offset,
                              std::span<std::byte> out) const {
  DRMS_EXPECTS_MSG(offset + out.size() <= size_,
                   "ExtentFile read beyond end of file");
  std::uint64_t pos = offset;
  std::size_t dst = 0;
  while (dst < out.size()) {
    const std::uint64_t block_index = pos / kBlockSize;
    const std::uint64_t in_block = pos % kBlockSize;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockSize - in_block, out.size() - dst));
    const auto it = blocks_.find(block_index);
    if (it != blocks_.end()) {
      std::memcpy(out.data() + dst, it->second.data() + in_block, n);
    } else {
      std::memset(out.data() + dst, 0, n);  // sparse region reads as zeros
    }
    pos += n;
    dst += n;
  }
}

void ExtentFile::truncate() {
  blocks_.clear();
  size_ = 0;
}

}  // namespace drms::piofs
