// Chunked copy kernel: the one way drms::store moves file bytes in bulk.
//
// Redundancy encode, read-repair/rebuild, materialize and scavenge
// verification (RedundantBackend), drain and spill (TieredBackend) and
// mirror_to all stream through stream_xor(). It reads through one reused
// buffer of kCopyChunkBytes (a second one when sources are XORed), so a
// copy's host memory is bounded by the chunk and not by the file. It folds
// a CRC-32C per source and over its output as the bytes pass, where the
// caller asks for one, so a fragment's checksum is known without a second
// read. And it writes every all-zero piece of the destination's block grid
// with write_zeros_at, so the segment padding that ExtentFile keeps as
// absent blocks stays absent in every copy.
#pragma once

#include <cstdint>
#include <span>

#include "store/storage_backend.hpp"

namespace drms::store {

/// Bytes one kernel buffer holds.
inline constexpr std::uint64_t kCopyChunkBytes = 1024 * 1024;

/// One byte range stream_xor() reads.
struct CopySource {
  FileHandle file{};
  std::uint64_t offset = 0;
  /// Bytes read. Past them the source reads as zeros, so a data fragment
  /// shorter than the parity stripe XORs as if zero-extended.
  std::uint64_t length = 0;
  /// When valid, the source's own bytes are also written here at
  /// `copy_offset` (encode writes each data fragment while it folds the
  /// parity).
  FileHandle copy_to{};
  std::uint64_t copy_offset = 0;
  /// When set, receives the CRC-32C of the `length` bytes read.
  std::uint32_t* crc = nullptr;
};

/// Where stream_xor() puts the XOR of its sources.
struct CopySink {
  /// Invalid: nothing is written (a CRC-only pass).
  FileHandle file{};
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  /// When set, receives the CRC-32C of the `length` output bytes.
  std::uint32_t* crc = nullptr;
};

/// Stream the XOR of `sources` into `sink`, chunk by chunk, folding the
/// CRCs asked for as the bytes pass. The stream spans the longest source
/// or the sink, whichever is longer; output bytes past `sink.length` are
/// dropped. One source makes this a plain copy.
void stream_xor(std::span<CopySource> sources, CopySink sink);

/// Copy all of `src` into `dst` from offset 0; returns the bytes copied.
std::uint64_t copy_file(const FileHandle& src, FileHandle dst);

}  // namespace drms::store
