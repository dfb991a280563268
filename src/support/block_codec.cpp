#include "support/block_codec.hpp"

#include <cstring>
#include <vector>

#include "support/error.hpp"

namespace drms::support {

namespace {

// ---- LZ (byte-oriented LZSS) ---------------------------------------------
//
// Token stream: a control byte carries flags for the next 8 tokens
// (LSB first). Flag 0: one literal byte. Flag 1: a match
// [u16 back-distance][u8 length-4], distance 1..65535 back into the
// already-decoded output, length 4..259. Matches are found with a
// single-probe hash head over 4-byte sequences — deterministic and cheap,
// which matters more here than ratio (the codec runs inside the
// checkpoint write pass).

constexpr std::size_t kLzMinMatch = 4;
constexpr std::size_t kLzMaxMatch = 259;
constexpr std::size_t kLzWindow = 65535;
constexpr std::size_t kLzHashBits = 15;

std::uint32_t lz_hash(const std::byte* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kLzHashBits);
}

void lz_encode(std::span<const std::byte> raw, ByteBuffer& out) {
  std::vector<std::size_t> head(std::size_t{1} << kLzHashBits, SIZE_MAX);
  // Tokens are written through a pointer into a reserved tail sized for
  // the worst case (all literals: one control byte per 8 of them), so the
  // loop stores only output bytes, never `out` itself — a buffer object
  // that may sit in another thread's stack frame.
  const std::size_t mark = out.size();
  std::byte* const begin =
      out.append_uninitialized(raw.size() + raw.size() / 8 + 1).data();
  std::byte* dst = begin;
  std::size_t i = 0;
  while (i < raw.size()) {
    // Open a control byte; patch it after its 8 tokens are emitted.
    std::byte* const control_at = dst++;
    std::uint8_t control = 0;
    for (int bit = 0; bit < 8 && i < raw.size(); ++bit) {
      std::size_t match_len = 0;
      std::size_t match_pos = 0;
      if (i + kLzMinMatch <= raw.size()) {
        const std::uint32_t h = lz_hash(raw.data() + i);
        const std::size_t cand = head[h];
        head[h] = i;
        if (cand != SIZE_MAX && i - cand <= kLzWindow) {
          const std::size_t limit = std::min(raw.size() - i, kLzMaxMatch);
          std::size_t len = 0;
          while (len < limit && raw[cand + len] == raw[i + len]) {
            ++len;
          }
          if (len >= kLzMinMatch) {
            match_len = len;
            match_pos = cand;
          }
        }
      }
      if (match_len > 0) {
        control |= static_cast<std::uint8_t>(1u << bit);
        const std::size_t dist = i - match_pos;
        *dst++ = static_cast<std::byte>(dist & 0xff);
        *dst++ = static_cast<std::byte>(dist >> 8);
        *dst++ = static_cast<std::byte>(match_len - kLzMinMatch);
        // Seed the hash head across the matched span so later matches can
        // reference into it (skip the last 3 bytes: no full 4-byte key).
        const std::size_t seed_end =
            std::min(i + match_len, raw.size() - std::min(raw.size(),
                                                          kLzMinMatch - 1));
        for (std::size_t p = i + 1; p < seed_end; ++p) {
          head[lz_hash(raw.data() + p)] = p;
        }
        i += match_len;
      } else {
        *dst++ = raw[i];
        ++i;
      }
    }
    *control_at = std::byte{control};
  }
  out.resize_uninitialized(mark + static_cast<std::size_t>(dst - begin));
}

void lz_decode(std::span<const std::byte> stored, std::uint64_t raw_bytes,
               ByteBuffer& out) {
  const std::size_t out_start = out.size();
  ByteBuffer in(stored);
  std::uint64_t produced = 0;
  while (produced < raw_bytes) {
    if (in.remaining() == 0) {
      throw CorruptCheckpoint("lz block ends before its raw size");
    }
    const std::uint8_t control = in.get_u8();
    for (int bit = 0; bit < 8 && produced < raw_bytes; ++bit) {
      if (in.remaining() < (((control >> bit) & 1u) != 0 ? 3u : 1u)) {
        throw CorruptCheckpoint("lz block ends inside a token");
      }
      if ((control >> bit) & 1u) {
        const std::uint16_t lo = in.get_u8();
        const std::uint16_t hi = in.get_u8();
        const std::size_t dist = static_cast<std::size_t>(lo | (hi << 8));
        const std::size_t len = kLzMinMatch + in.get_u8();
        if (dist == 0 || dist > produced) {
          throw CorruptCheckpoint("lz match reaches before the block start");
        }
        if (produced + len > raw_bytes) {
          throw CorruptCheckpoint("lz block decodes past its raw size");
        }
        // Byte-by-byte: matches may overlap their own output (dist < len).
        std::span<std::byte> dst = out.append_uninitialized(len);
        const std::byte* src =
            out.data() + out_start + produced - dist;
        for (std::size_t k = 0; k < len; ++k) {
          dst[k] = src[k];
        }
        produced += len;
      } else {
        out.append_uninitialized(1)[0] = std::byte{in.get_u8()};
        produced += 1;
      }
    }
  }
}

}  // namespace

const char* to_string(BlockCodec codec) noexcept {
  switch (codec) {
    case BlockCodec::kRaw:
      return "raw";
    case BlockCodec::kLz:
      return "lz";
  }
  return "unknown";
}

BlockCodec block_encode(BlockCodec requested, std::span<const std::byte> raw,
                        ByteBuffer& out) {
  DRMS_EXPECTS(requested == BlockCodec::kRaw ||
               requested == BlockCodec::kLz);
  if (requested == BlockCodec::kLz) {
    const std::size_t mark = out.size();
    lz_encode(raw, out);
    if (out.size() - mark < raw.size()) {
      return requested;
    }
    // Not smaller: drop the attempt and store the raw bytes instead.
    out.resize_uninitialized(mark);
  }
  out.append(raw);
  return BlockCodec::kRaw;
}

void block_decode(BlockCodec codec, std::span<const std::byte> stored,
                  std::uint64_t raw_bytes, ByteBuffer& out) {
  switch (codec) {
    case BlockCodec::kRaw:
      if (stored.size() != raw_bytes) {
        throw CorruptCheckpoint("raw block size does not match its raw size");
      }
      out.append(stored);
      return;
    case BlockCodec::kLz:
      lz_decode(stored, raw_bytes, out);
      return;
  }
  throw CorruptCheckpoint("unknown block codec id");
}

}  // namespace drms::support
