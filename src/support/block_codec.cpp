#include "support/block_codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "support/error.hpp"

namespace drms::support {

namespace {

// ---- LZ (LZ4-block-style sequences) --------------------------------------
//
// One sequence: [token][literal-length bytes][literals][u16 LE offset]
// [match-length bytes]. The token's high nibble is the literal count and
// its low nibble the match length minus kMinMatch; a nibble of 15 is
// continued by bytes that each add 0..255, a 255 meaning another follows.
// The last sequence ends the stored bytes and carries literals only (low
// nibble 0, no offset), so a stream that decodes to its raw size ends
// exactly there.

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr std::size_t kNibbleMax = 15;
/// A match starts at least this far before the block's end, so a probe
/// always has 4 bytes to hash and the stream ends in literals.
constexpr std::size_t kMatchStartMargin = 12;
/// A match ends at least this far before the block's end.
constexpr std::size_t kLastLiterals = 5;
constexpr unsigned kHashBits = 14;
/// Misses before the probe stride grows by one byte: after 2^6 misses in
/// a row the search steps 2 bytes, 2^6 later 3, and so on, so data with
/// no matches costs one probe every few bytes. A match resets it.
constexpr unsigned kSkipTrigger = 6;
/// The decoder copies a literal run shorter than 15 as 16 bytes where
/// both buffers have that much left; like a match's 8-byte steps, the
/// surplus lands ahead of the output cursor and the sequences that follow
/// overwrite it.
constexpr std::ptrdiff_t kWildLiterals = 16;
/// Each stored byte decodes to at most this many raw bytes (a length
/// byte of 255 adds 255 match bytes).
constexpr std::uint64_t kMaxExpansion = 255;

// Little-endian loads, so hashing and match lengths — hence the stored
// bytes — are the same on every host.
std::uint32_t load_le32(const std::byte* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

std::uint64_t load_le64(const std::byte* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

std::uint32_t lz_hash(std::uint32_t key) noexcept {
  return (key * 2654435761u) >> (32 - kHashBits);
}

/// Bytes a and b have in common, counting from a up to `a_end` (b < a).
std::size_t common_length(const std::byte* a, const std::byte* b,
                          const std::byte* a_end) noexcept {
  const std::byte* const start = a;
  while (a_end - a >= 8) {
    const std::uint64_t diff = load_le64(a) ^ load_le64(b);
    if (diff != 0) {
      return static_cast<std::size_t>(a - start) +
             static_cast<std::size_t>(std::countr_zero(diff)) / 8;
    }
    a += 8;
    b += 8;
  }
  while (a < a_end && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<std::size_t>(a - start);
}

/// Bytes that continue a length of `n` past its nibble.
std::size_t length_bytes(std::size_t n) noexcept {
  return n < kNibbleMax ? 0 : 1 + (n - kNibbleMax) / 255;
}

/// Writes the nibble of `n` into the token at `shift` and its
/// continuation bytes at `dst`.
std::byte* put_length(std::byte* token, unsigned shift, std::size_t n,
                      std::byte* dst) noexcept {
  if (n < kNibbleMax) {
    *token |= static_cast<std::byte>(n << shift);
    return dst;
  }
  *token |= static_cast<std::byte>(kNibbleMax << shift);
  const std::size_t rest = n - kNibbleMax;
  std::memset(dst, 0xff, rest / 255);
  dst += rest / 255;
  *dst++ = static_cast<std::byte>(rest % 255);
  return dst;
}

std::byte* put_literals(std::byte* token, const std::byte* src,
                        std::size_t n, std::byte* dst) noexcept {
  dst = put_length(token, 4, n, dst);
  if (n > 0) {
    std::memcpy(dst, src, n);
  }
  return dst + n;
}

/// Encodes `raw` into `out` (at least raw.size() bytes) and returns the
/// stream's size, or 0 as soon as it cannot come out shorter than `raw`.
/// Sequences are written through a pointer into `out`, never into a
/// buffer object, which may sit in another thread's stack frame.
std::size_t lz_encode(std::span<const std::byte> raw,
                      std::span<std::byte> out) {
  const std::size_t n = raw.size();
  if (n > UINT32_MAX) {
    return 0;  // positions are 32-bit
  }
  const std::byte* const base = raw.data();
  std::byte* dst = out.data();
  // Every sequence must leave room for at least the last token below
  // this bound, so the stream stays shorter than the block.
  std::byte* const dst_end = out.data() + n;
  // Cleared on every call, and on the stack: the output depends on `raw`
  // alone, and a block costs no allocation.
  std::array<std::uint32_t, std::size_t{1} << kHashBits> table;
  table.fill(0);

  std::size_t anchor = 0;  // first byte not yet emitted
  if (n > kMatchStartMargin) {
    const std::size_t last_start = n - kMatchStartMargin;
    const std::byte* const match_end = base + n - kLastLiterals;
    std::size_t attempts = std::size_t{1} << kSkipTrigger;
    std::size_t ip = 1;
    while (ip <= last_start) {
      const std::uint32_t key = load_le32(base + ip);
      std::uint32_t& slot = table[lz_hash(key)];
      std::size_t ref = slot;
      slot = static_cast<std::uint32_t>(ip);
      if (ip - ref > kMaxOffset || load_le32(base + ref) != key) {
        ip += attempts++ >> kSkipTrigger;
        continue;
      }
      // Extend the match back over pending literals, then forward.
      while (ip > anchor && ref > 0 && base[ip - 1] == base[ref - 1]) {
        --ip;
        --ref;
      }
      const std::size_t literals = ip - anchor;
      const std::size_t match =
          kMinMatch + common_length(base + ip + kMinMatch,
                                    base + ref + kMinMatch, match_end);
      const std::size_t bytes = 1 + length_bytes(literals) + literals + 2 +
                                length_bytes(match - kMinMatch);
      if (bytes >= static_cast<std::size_t>(dst_end - dst)) {
        return 0;
      }
      std::byte* const token = dst++;
      *token = std::byte{0};
      dst = put_literals(token, base + anchor, literals, dst);
      const std::size_t offset = ip - ref;
      *dst++ = static_cast<std::byte>(offset & 0xff);
      *dst++ = static_cast<std::byte>(offset >> 8);
      dst = put_length(token, 0, match - kMinMatch, dst);
      ip += match;
      anchor = ip;
      attempts = std::size_t{1} << kSkipTrigger;
      if (ip <= last_start) {
        table[lz_hash(load_le32(base + ip - 2))] =
            static_cast<std::uint32_t>(ip - 2);
      }
    }
  }
  const std::size_t literals = n - anchor;
  if (1 + length_bytes(literals) + literals >=
      static_cast<std::size_t>(dst_end - dst)) {
    return 0;
  }
  std::byte* const token = dst++;
  *token = std::byte{0};
  dst = put_literals(token, base + anchor, literals, dst);
  return static_cast<std::size_t>(dst - out.data());
}

/// Reads the continuation bytes of a length whose nibble was 15.
std::size_t read_length(const std::byte*& ip, const std::byte* end) {
  std::size_t n = 0;
  for (;;) {
    if (ip == end) {
      throw CorruptCheckpoint("lz block ends inside a length");
    }
    const auto b = std::to_integer<std::size_t>(*ip++);
    n += b;
    if (b != 255) {
      return n;
    }
  }
}

/// Copies a `len`-byte match from `offset` bytes behind `dst`, where
/// `room` bytes of output are left (room >= len). With 8 bytes to spare it
/// copies in 8-byte steps, each reading only bytes already written: a
/// match closer than 8 first lays down 8 bytes one at a time, then steps
/// back by the period multiple that reaches 8. Without, it copies exactly,
/// doubling the period multiple it takes per copy.
void copy_match(std::byte* dst, std::size_t offset, std::size_t len,
                std::size_t room) {
  const std::byte* const src = dst - offset;
  if (room - len >= 8) {
    std::size_t i = 0;
    std::size_t back = offset;
    if (offset < 8) {
      for (; i < 8; ++i) {
        dst[i] = src[i];
      }
      back = offset * ((8 + offset - 1) / offset);
    }
    for (; i < len; i += 8) {
      std::memcpy(dst + i, dst + i - back, 8);
    }
    return;
  }
  std::size_t done = 0;
  while (done < len) {
    const std::size_t n = std::min(offset + done, len - done);
    std::memcpy(dst + done, src, n);
    done += n;
  }
}

void lz_decode(std::span<const std::byte> stored, std::span<std::byte> out) {
  const std::byte* ip = stored.data();
  const std::byte* const in_end = ip + stored.size();
  std::byte* op = out.data();
  std::byte* const out_end = op + out.size();
  for (;;) {
    if (ip == in_end) {
      throw CorruptCheckpoint("lz block ends before its last sequence");
    }
    const auto token = std::to_integer<std::size_t>(*ip++);
    std::size_t literals = token >> 4;
    if (literals < kNibbleMax && in_end - ip >= kWildLiterals &&
        out_end - op >= kWildLiterals) {
      // Short run, both margins checked: one fixed-size copy.
      std::memcpy(op, ip, kWildLiterals);
    } else {
      if (literals == kNibbleMax) {
        literals += read_length(ip, in_end);
      }
      if (literals > static_cast<std::size_t>(in_end - ip) ||
          literals > static_cast<std::size_t>(out_end - op)) {
        throw CorruptCheckpoint("lz literals run past the end of the block");
      }
      if (literals > 0) {
        std::memcpy(op, ip, literals);
      }
    }
    op += literals;
    ip += literals;
    if (ip == in_end) {
      if ((token & kNibbleMax) != 0 || op != out_end) {
        throw CorruptCheckpoint("lz block does not decode to its raw size");
      }
      return;
    }
    if (in_end - ip < 2) {
      throw CorruptCheckpoint("lz block ends inside a match offset");
    }
    const std::size_t offset = std::to_integer<std::size_t>(ip[0]) |
                               std::to_integer<std::size_t>(ip[1]) << 8;
    ip += 2;
    if (offset == 0 || offset > static_cast<std::size_t>(op - out.data())) {
      throw CorruptCheckpoint("lz match reaches before the block start");
    }
    std::size_t match = token & kNibbleMax;
    if (match == kNibbleMax) {
      match += read_length(ip, in_end);
    }
    match += kMinMatch;
    const auto room = static_cast<std::size_t>(out_end - op);
    if (match > room) {
      throw CorruptCheckpoint("lz match runs past the end of the block");
    }
    copy_match(op, offset, match, room);
    op += match;
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

std::size_t block_compress(BlockCodec requested,
                           std::span<const std::byte> raw,
                           std::span<std::byte> out) {
  DRMS_EXPECTS(requested == BlockCodec::kRaw ||
               requested == BlockCodec::kLz);
  DRMS_EXPECTS(out.size() >= raw.size());
  return requested == BlockCodec::kLz ? lz_encode(raw, out) : 0;
}

BlockCodec block_encode(BlockCodec requested, std::span<const std::byte> raw,
                        ByteBuffer& out) {
  const std::size_t mark = out.size();
  const std::span<std::byte> tail = out.append_uninitialized(raw.size());
  const std::size_t stored = block_compress(requested, raw, tail);
  if (stored > 0) {
    out.resize_uninitialized(mark + stored);
    return requested;
  }
  if (!raw.empty()) {
    std::memcpy(tail.data(), raw.data(), raw.size());
  }
  return BlockCodec::kRaw;
}

void block_decode(BlockCodec codec, std::span<const std::byte> stored,
                  std::span<std::byte> out) {
  switch (codec) {
    case BlockCodec::kRaw:
      if (stored.size() != out.size()) {
        throw CorruptCheckpoint("raw block size does not match its raw size");
      }
      if (!stored.empty()) {
        std::memcpy(out.data(), stored.data(), stored.size());
      }
      return;
    case BlockCodec::kLz:
      lz_decode(stored, out);
      return;
  }
  throw CorruptCheckpoint("unknown block codec id");
}

std::uint64_t block_reach(BlockCodec codec,
                          std::uint64_t stored_bytes) noexcept {
  return codec == BlockCodec::kLz ? stored_bytes * kMaxExpansion
                                  : stored_bytes;
}

void block_decode(BlockCodec codec, std::span<const std::byte> stored,
                  std::uint64_t raw_bytes, ByteBuffer& out) {
  // Size the output only for a raw size the stored bytes can reach.
  if (raw_bytes > block_reach(codec, stored.size())) {
    throw CorruptCheckpoint("block is too short for its raw size");
  }
  block_decode(codec, stored,
               out.append_uninitialized(static_cast<std::size_t>(raw_bytes)));
}

}  // namespace drms::support
