#include "store/redundancy.hpp"

#include <algorithm>

#include "store/chunk_copy.hpp"
#include "support/error.hpp"

namespace drms::store {

const char* to_string(RedundancyKind kind) noexcept {
  switch (kind) {
    case RedundancyKind::kPartner:
      return "partner";
    case RedundancyKind::kXor:
      return "xor";
  }
  return "?";
}

std::string RedundancyScheme::describe() const {
  if (kind == RedundancyKind::kPartner) {
    return "partner";
  }
  return "xor(" + std::to_string(group_size) + ")";
}

namespace {
constexpr const char* kFragmentTag = "#f";
}  // namespace

std::string fragment_name(const std::string& base, int index) {
  return base + kFragmentTag + std::to_string(index);
}

std::optional<FragmentName> parse_fragment_name(const std::string& name) {
  const std::size_t pos = name.rfind(kFragmentTag);
  if (pos == std::string::npos || pos == 0) {
    return std::nullopt;
  }
  const std::string tail = name.substr(pos + 2);
  if (tail.empty() || !std::all_of(tail.begin(), tail.end(), [](char c) {
        return c >= '0' && c <= '9';
      })) {
    return std::nullopt;
  }
  FragmentName out;
  out.base = name.substr(0, pos);
  out.index = std::stoi(tail);
  return out;
}

void write_fragment_header(FileHandle& file, const FragmentHeader& header) {
  support::ByteBuffer head;
  head.put_u32(kFragmentMagic);
  head.put_u32(static_cast<std::uint32_t>(header.kind));
  head.put_u32(header.index);
  head.put_u32(header.fragment_count);
  head.put_u64(header.payload_bytes);
  head.put_u64(header.total_bytes);
  head.put_u32(header.payload_crc);
  file.write_at(0, head.bytes());
}

std::optional<FragmentHeader> read_fragment_header(const FileHandle& file) {
  const std::uint64_t size = file.size();
  if (size < kFragmentHeaderBytes) {
    return std::nullopt;
  }
  support::ByteBuffer head = read_to_buffer(file, 0, kFragmentHeaderBytes);
  if (head.get_u32() != kFragmentMagic) {
    return std::nullopt;
  }
  FragmentHeader out;
  out.kind = static_cast<RedundancyKind>(head.get_u32());
  out.index = head.get_u32();
  out.fragment_count = head.get_u32();
  out.payload_bytes = head.get_u64();
  out.total_bytes = head.get_u64();
  out.payload_crc = head.get_u32();
  if (size - kFragmentHeaderBytes < out.payload_bytes) {
    return std::nullopt;  // torn payload
  }
  return out;
}

std::optional<FragmentHeader> read_fragment_header(
    const StorageBackend& storage, const std::string& frag_name) {
  if (!storage.exists(frag_name)) {
    return std::nullopt;
  }
  return read_fragment_header(storage.open(frag_name));
}

bool fragment_payload_intact(const FileHandle& file,
                             const FragmentHeader& header) {
  const std::uint64_t size = file.size();
  if (size < kFragmentHeaderBytes ||
      size - kFragmentHeaderBytes < header.payload_bytes) {
    return false;
  }
  std::uint32_t crc = 0;
  CopySource payload{.file = file,
                     .offset = kFragmentHeaderBytes,
                     .length = header.payload_bytes,
                     .crc = &crc};
  stream_xor({&payload, 1}, CopySink{});
  return crc == header.payload_crc;
}

FragmentExtent fragment_extent(std::uint64_t total_bytes, int data_fragments,
                               int index) {
  DRMS_EXPECTS_MSG(data_fragments > 0 && index >= 0,
                   "fragment_extent: bad geometry");
  const auto n = static_cast<std::uint64_t>(data_fragments);
  const auto i = static_cast<std::uint64_t>(index);
  if (i >= n) {
    return FragmentExtent{total_bytes, 0};
  }
  const std::uint64_t base = total_bytes / n;
  const std::uint64_t rem = total_bytes % n;
  FragmentExtent out;
  out.offset = i * base + std::min(i, rem);
  out.length = base + (i < rem ? 1 : 0);
  return out;
}

}  // namespace drms::store
