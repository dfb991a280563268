#include "store/chunk_copy.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "piofs/extent_file.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"

namespace drms::store {

namespace {

/// Zero pieces follow the ExtentFile block grid of the destination: a
/// whole block handed to write_zeros_at is never allocated.
constexpr std::uint64_t kZeroPieceBytes = piofs::ExtentFile::kBlockSize;

/// A span whose first byte is zero and that equals itself shifted by one
/// byte is all zero.
bool all_zero(std::span<const std::byte> bytes) {
  return bytes.empty() ||
         (bytes[0] == std::byte{0} &&
          std::memcmp(bytes.data(), bytes.data() + 1, bytes.size() - 1) == 0);
}

/// Write `bytes` at `offset`, split on the destination's block grid: each
/// all-zero piece goes to write_zeros_at, everything else to write_at, and
/// a run of like pieces is one call.
void write_sparse(FileHandle& file, std::uint64_t offset,
                  std::span<const std::byte> bytes) {
  std::size_t run = 0;
  bool run_zero = false;
  const auto flush = [&](std::size_t end) {
    if (end == run) {
      return;
    }
    if (run_zero) {
      file.write_zeros_at(offset + run, end - run);
    } else {
      file.write_at(offset + run, bytes.subspan(run, end - run));
    }
  };
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(
        kZeroPieceBytes - (offset + pos) % kZeroPieceBytes,
        bytes.size() - pos));
    const bool zero = all_zero(bytes.subspan(pos, n));
    if (pos != run && zero != run_zero) {
      flush(pos);
      run = pos;
    }
    run_zero = zero;
    pos += n;
  }
  flush(pos);
}

void xor_into(std::byte* acc, const std::byte* in, std::size_t n) {
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, acc + i, sizeof a);
    std::memcpy(&b, in + i, sizeof b);
    a ^= b;
    std::memcpy(acc + i, &a, sizeof a);
  }
  for (; i < n; ++i) {
    acc[i] ^= in[i];
  }
}

/// Bytes of a `length`-byte range that fall in the chunk [pos, pos + n).
std::size_t part_in_chunk(std::uint64_t length, std::uint64_t pos,
                          std::size_t n) {
  return length > pos ? static_cast<std::size_t>(
                            std::min<std::uint64_t>(n, length - pos))
                      : 0;
}

}  // namespace

void stream_xor(std::span<CopySource> sources, CopySink sink) {
  DRMS_EXPECTS_MSG(!sources.empty(), "stream_xor needs a source");
  std::uint64_t span = sink.length;
  for (const CopySource& s : sources) {
    span = std::max(span, s.length);
  }
  const auto chunk =
      static_cast<std::size_t>(std::min(kCopyChunkBytes, span));
  const auto acc = std::make_unique_for_overwrite<std::byte[]>(chunk);
  const auto in = sources.size() > 1
                      ? std::make_unique_for_overwrite<std::byte[]>(chunk)
                      : nullptr;
  // With one source of the sink's length the output IS the source, and so
  // is its CRC.
  const bool reuse_crc = sources.size() == 1 &&
                         sources[0].length == sink.length &&
                         sources[0].crc != nullptr;
  std::vector<support::Crc32c> crcs(sources.size());
  support::Crc32c out_crc;
  for (std::uint64_t pos = 0; pos < span; pos += chunk) {
    const auto n =
        static_cast<std::size_t>(std::min<std::uint64_t>(chunk, span - pos));
    for (std::size_t k = 0; k < sources.size(); ++k) {
      CopySource& s = sources[k];
      const std::size_t m = part_in_chunk(s.length, pos, n);
      const std::span<std::byte> got(k == 0 ? acc.get() : in.get(), m);
      if (m > 0) {
        s.file.read_at_into(s.offset + pos, got);
        if (s.crc != nullptr) {
          crcs[k].update(got);
        }
        if (s.copy_to.valid()) {
          write_sparse(s.copy_to, s.copy_offset + pos, got);
        }
      }
      if (k == 0) {
        std::memset(acc.get() + m, 0, n - m);
      } else {
        xor_into(acc.get(), got.data(), m);
      }
    }
    const std::span<const std::byte> out(acc.get(),
                                         part_in_chunk(sink.length, pos, n));
    if (sink.crc != nullptr && !reuse_crc) {
      out_crc.update(out);
    }
    if (sink.file.valid() && !out.empty()) {
      write_sparse(sink.file, sink.offset + pos, out);
    }
  }
  for (std::size_t k = 0; k < sources.size(); ++k) {
    if (sources[k].crc != nullptr) {
      *sources[k].crc = crcs[k].value();
    }
  }
  if (sink.crc != nullptr) {
    *sink.crc = reuse_crc ? *sources[0].crc : out_crc.value();
  }
}

std::uint64_t copy_file(const FileHandle& src, FileHandle dst) {
  CopySource source{.file = src, .length = src.size()};
  stream_xor({&source, 1},
             CopySink{.file = std::move(dst), .length = source.length});
  return source.length;
}

}  // namespace drms::store
