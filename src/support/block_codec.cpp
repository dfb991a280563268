#include "support/block_codec.hpp"

#include <cstring>
#include <vector>

#include "support/error.hpp"

namespace drms::support {

namespace {

// ---- zero-RLE ------------------------------------------------------------
//
// Record stream: [u8 kind][u32 len] (+ len literal bytes when kind==1).
// kind 0 is a run of `len` zero bytes. Runs shorter than the record
// overhead stay inside the surrounding literal.

constexpr std::size_t kZeroRunMin = 8;
constexpr std::uint8_t kRleZeros = 0;
constexpr std::uint8_t kRleLiteral = 1;

void rle_put_literal(std::span<const std::byte> lit, ByteBuffer& out) {
  if (lit.empty()) {
    return;
  }
  out.put_u8(kRleLiteral);
  out.put_u32(static_cast<std::uint32_t>(lit.size()));
  out.append(lit);
}

void zero_rle_encode(std::span<const std::byte> raw, ByteBuffer& out) {
  std::size_t lit_start = 0;
  std::size_t i = 0;
  while (i < raw.size()) {
    if (raw[i] != std::byte{0}) {
      ++i;
      continue;
    }
    std::size_t run_end = i;
    while (run_end < raw.size() && raw[run_end] == std::byte{0}) {
      ++run_end;
    }
    if (run_end - i >= kZeroRunMin) {
      rle_put_literal(raw.subspan(lit_start, i - lit_start), out);
      out.put_u8(kRleZeros);
      out.put_u32(static_cast<std::uint32_t>(run_end - i));
      lit_start = run_end;
    }
    i = run_end;
  }
  rle_put_literal(raw.subspan(lit_start), out);
}

void zero_rle_decode(std::span<const std::byte> stored,
                     std::uint64_t raw_bytes, ByteBuffer& out) {
  ByteBuffer in(stored);
  std::uint64_t produced = 0;
  while (in.remaining() > 0) {
    if (in.remaining() < 5) {
      throw CorruptCheckpoint("zero_rle block ends inside a record header");
    }
    const std::uint8_t kind = in.get_u8();
    const std::uint32_t len = in.get_u32();
    if (produced + len > raw_bytes) {
      throw CorruptCheckpoint("zero_rle block decodes past its raw size");
    }
    if (kind == kRleLiteral && in.remaining() < len) {
      throw CorruptCheckpoint("zero_rle block ends inside a literal run");
    }
    std::span<std::byte> dst = out.append_uninitialized(len);
    if (kind == kRleZeros) {
      std::memset(dst.data(), 0, dst.size());
    } else if (kind == kRleLiteral) {
      in.read_raw(dst.data(), dst.size());
    } else {
      throw CorruptCheckpoint("zero_rle block has an unknown record kind");
    }
    produced += len;
  }
  if (produced != raw_bytes) {
    throw CorruptCheckpoint("zero_rle block decodes short of its raw size");
  }
}

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
    case BlockCodec::kZeroRle:
      return "zero_rle";
    case BlockCodec::kLz:
      return "lz";
  }
  return "unknown";
}

std::optional<BlockCodec> block_codec_from_name(
    std::string_view name) noexcept {
  if (name == "raw") {
    return BlockCodec::kRaw;
  }
  if (name == "zero_rle") {
    return BlockCodec::kZeroRle;
  }
  if (name == "lz") {
    return BlockCodec::kLz;
  }
  return std::nullopt;
}

BlockCodec block_encode(BlockCodec requested, std::span<const std::byte> raw,
                        ByteBuffer& out) {
  if (requested != BlockCodec::kRaw) {
    const std::size_t mark = out.size();
    if (requested == BlockCodec::kZeroRle) {
      zero_rle_encode(raw, out);
    } else {
      lz_encode(raw, out);
    }
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
    case BlockCodec::kZeroRle:
      zero_rle_decode(stored, raw_bytes, out);
      return;
    case BlockCodec::kLz:
      lz_decode(stored, raw_bytes, out);
      return;
  }
  throw CorruptCheckpoint("unknown block codec id");
}

}  // namespace drms::support
