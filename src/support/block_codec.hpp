// Block codecs for delta checkpoint generations — compress fixed-size
// dirty blocks inside the pipelined streamer pass, exactly where the CRC
// already folds in, so compression overlaps exchange/I/O.
//
// Two codecs share one wire contract (decode(encode(x)) == x):
//   kRaw      identity — the fallback the encoder degrades to when its
//             output would not be smaller than the input, so stored
//             blocks never expand.
//   kLz       LZ4-block-style sequences: [token][literal length][literals]
//             [u16 back offset][match length]. The token's high nibble is
//             the literal count, its low nibble the match length minus 4;
//             a nibble of 15 continues in bytes that add 0..255 each (255
//             means another follows). The last sequence carries literals
//             only. Matches reach back at most 65535 bytes. The encoder
//             probes a hash table of 4-byte keys and strides further
//             ahead the longer matches stop coming, so an incompressible
//             block costs one probe every few bytes.
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

/// Encodes `raw` with `requested` into `out`, which must hold at least
/// raw.size() bytes, and returns the bytes written. Returns 0 when the
/// block is to be stored raw — `requested` is kRaw, or the codec would
/// not shrink it — and then copies nothing: the caller stores `raw` from
/// where it already is. The output is a function of `raw` alone.
[[nodiscard]] std::size_t block_compress(BlockCodec requested,
                                         std::span<const std::byte> raw,
                                         std::span<std::byte> out);

/// Encodes `raw` with the requested codec, appending to `out`, and
/// returns the codec actually used: when the requested codec would not
/// shrink the block it falls back to kRaw (a plain copy), so stored
/// blocks are never larger than their raw bytes.
[[nodiscard]] BlockCodec block_encode(BlockCodec requested,
                                      std::span<const std::byte> raw,
                                      ByteBuffer& out);

/// The largest raw size `stored_bytes` stored with `codec` can decode to.
[[nodiscard]] std::uint64_t block_reach(BlockCodec codec,
                                        std::uint64_t stored_bytes) noexcept;

/// Decodes a block stored with `codec` into `out`, whose size is the
/// block's raw size. Throws CorruptCheckpoint when the stored bytes are
/// malformed or do not decode to exactly out.size() bytes; `out` then
/// holds unspecified bytes.
void block_decode(BlockCodec codec, std::span<const std::byte> stored,
                  std::span<std::byte> out);

/// Decodes a block stored with `codec`, appending exactly `raw_bytes`
/// bytes to `out`. Throws CorruptCheckpoint when the stored bytes are
/// malformed or do not decode to `raw_bytes` — before growing `out` when
/// `stored` is too short to expand to `raw_bytes` at all.
void block_decode(BlockCodec codec, std::span<const std::byte> stored,
                  std::uint64_t raw_bytes, ByteBuffer& out);

}  // namespace drms::support
