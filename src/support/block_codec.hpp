// Block codecs for delta checkpoint generations — compress fixed-size
// dirty blocks inside the pipelined streamer pass, exactly where the CRC
// already folds in, so compression overlaps exchange/I/O.
//
// Two codecs share one wire contract (decode(encode(x)) == x):
//   kRaw      identity — the fallback the encoder degrades to when its
//             output would not be smaller than the input, so stored
//             blocks never expand.
//   kLz       byte-oriented LZSS: control byte carrying 8 literal/match
//             flags, matches are (u16 back-distance, u8 length-4) over a
//             64 KiB window — cheap, portable, deterministic.
// Like the CRC-32C kernels, codecs are runtime-dispatched by value and
// every codec is available on every host; the codec id is recorded per
// block in the delta index so readers never guess.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "support/byte_buffer.hpp"

namespace drms::support {

/// Id 1 belonged to a zero-run-length codec that compressed no real
/// array; it stays reserved, and readers reject it as corrupt.
enum class BlockCodec : std::uint8_t {
  kRaw = 0,
  kLz = 2,
};

[[nodiscard]] const char* to_string(BlockCodec codec) noexcept;

/// Encodes `raw` with the requested codec, appending to `out`, and
/// returns the codec actually used: when the requested codec would not
/// shrink the block it falls back to kRaw (a plain copy), so stored
/// blocks are never larger than their raw bytes.
[[nodiscard]] BlockCodec block_encode(BlockCodec requested,
                                      std::span<const std::byte> raw,
                                      ByteBuffer& out);

/// Decodes a block stored with `codec`, appending exactly `raw_bytes`
/// bytes to `out`. Throws CorruptCheckpoint when the stored bytes are
/// malformed or do not decode to `raw_bytes`.
void block_decode(BlockCodec codec, std::span<const std::byte> stored,
                  std::uint64_t raw_bytes, ByteBuffer& out);

}  // namespace drms::support
