#include "core/delta_format.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "core/checkpoint_format.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"

namespace drms::core {

namespace {
/// One index record: four u64 fields, then the codec id and two CRCs.
constexpr std::uint64_t kDeltaRecordBytes = 4 * 8 + 3 * 4;
}  // namespace

support::ByteBuffer encode_delta_header(const DeltaFileHeader& header) {
  support::ByteBuffer out;
  out.put_u32(wire::kDeltaMagic);
  out.put_u32(wire::kDeltaVersion);
  out.put_u64(header.block_bytes);
  out.put_u64(header.total_blocks);
  out.put_u64(header.record_count);
  out.put_u64(header.payload_bytes);
  out.put_u64(header.raw_bytes);
  out.put_u64(header.index_offset);
  out.put_u64(0);  // reserved
  DRMS_ENSURES(out.size() == wire::kDeltaHeaderBytes);
  return out;
}

support::ByteBuffer encode_delta_index(
    const std::vector<DeltaBlockRecord>& records) {
  support::ByteBuffer body;
  body.put_u64(records.size());
  for (const auto& r : records) {
    body.put_u64(r.block_index);
    body.put_u64(r.raw_bytes);
    body.put_u64(r.stored_bytes);
    body.put_u64(r.payload_offset);
    body.put_u32(static_cast<std::uint32_t>(r.codec));
    body.put_u32(r.raw_crc);
    body.put_u32(r.stored_crc);
  }
  support::ByteBuffer out;
  out.put_u32(support::crc32c(body.bytes()));
  out.put_u64(body.size());
  out.append(body.bytes());
  return out;
}

DeltaFileHeader read_delta_header(const store::FileHandle& file,
                                  const std::string& what) {
  if (file.size() < wire::kDeltaHeaderBytes) {
    throw support::CorruptCheckpoint(what + ": too small for a delta header");
  }
  support::ByteBuffer buf =
      store::read_to_buffer(file, 0, wire::kDeltaHeaderBytes);
  if (buf.get_u32() != wire::kDeltaMagic) {
    throw support::CorruptCheckpoint(what + ": bad delta magic");
  }
  if (buf.get_u32() != wire::kDeltaVersion) {
    throw support::CorruptCheckpoint(what + ": unsupported delta version");
  }
  DeltaFileHeader h;
  h.block_bytes = buf.get_u64();
  h.total_blocks = buf.get_u64();
  h.record_count = buf.get_u64();
  h.payload_bytes = buf.get_u64();
  h.raw_bytes = buf.get_u64();
  h.index_offset = buf.get_u64();
  if (h.block_bytes == 0 || h.payload_bytes > file.size() ||
      h.index_offset != wire::kDeltaHeaderBytes + h.payload_bytes ||
      h.index_offset > file.size()) {
    throw support::CorruptCheckpoint(what + ": inconsistent delta header");
  }
  return h;
}

std::vector<DeltaBlockRecord> read_delta_index(const store::FileHandle& file,
                                               const DeltaFileHeader& header,
                                               const std::string& what) {
  if (header.index_offset + 12 > file.size()) {
    throw support::CorruptCheckpoint(what + ": truncated delta index frame");
  }
  support::ByteBuffer frame = store::read_to_buffer(
      file, header.index_offset, file.size() - header.index_offset);
  const std::uint32_t crc = frame.get_u32();
  const std::uint64_t size = frame.get_u64();
  if (frame.remaining() < size) {
    throw support::CorruptCheckpoint(what + ": truncated delta index body");
  }
  support::ByteBuffer body(std::span<const std::byte>(
      frame.data() + frame.cursor(), static_cast<std::size_t>(size)));
  if (support::crc32c(body.bytes()) != crc) {
    throw support::CorruptCheckpoint(what + ": delta index CRC mismatch");
  }
  const std::uint64_t count = body.get_u64();
  if (count != header.record_count) {
    throw support::CorruptCheckpoint(what +
                                     ": delta index count disagrees with "
                                     "the header");
  }
  // Reserve only for records the body actually holds.
  if (count > body.remaining() / kDeltaRecordBytes) {
    throw support::CorruptCheckpoint(what +
                                     ": delta index count exceeds its body");
  }
  std::vector<DeltaBlockRecord> records;
  records.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    DeltaBlockRecord r;
    r.block_index = body.get_u64();
    r.raw_bytes = body.get_u64();
    r.stored_bytes = body.get_u64();
    r.payload_offset = body.get_u64();
    const std::uint32_t codec = body.get_u32();
    if (codec != static_cast<std::uint32_t>(support::BlockCodec::kRaw) &&
        codec != static_cast<std::uint32_t>(support::BlockCodec::kLz)) {
      throw support::CorruptCheckpoint(what + ": unknown block codec id");
    }
    r.codec = static_cast<support::BlockCodec>(codec);
    r.raw_crc = body.get_u32();
    r.stored_crc = body.get_u32();
    if (r.block_index >= header.total_blocks ||
        r.stored_bytes > header.payload_bytes ||
        r.payload_offset > header.payload_bytes - r.stored_bytes) {
      throw support::CorruptCheckpoint(what + ": delta record out of bounds");
    }
    // The writer emits dirty blocks in ascending order, and restore
    // relies on each block having at most one record per file.
    if (!records.empty() && r.block_index <= records.back().block_index) {
      throw support::CorruptCheckpoint(
          what + ": delta index repeats or reorders a block");
    }
    // A block is never empty nor larger than the block target, a raw
    // block stores its raw bytes, and an encoded one is smaller.
    if (r.raw_bytes == 0 || r.raw_bytes > header.block_bytes ||
        (r.codec == support::BlockCodec::kRaw
             ? r.stored_bytes != r.raw_bytes
             : r.stored_bytes >= r.raw_bytes)) {
      throw support::CorruptCheckpoint(what +
                                       ": delta record sizes are invalid");
    }
    records.push_back(r);
  }
  return records;
}

std::vector<std::uint64_t> collect_dirty_blocks(
    const DistArray& array, const std::vector<Slice>& blocks) {
  std::vector<std::uint64_t> out;
  if (!array.dirty_tracking() || !array.distributed()) {
    // No tracking: everything is conservatively dirty.
    out.resize(blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      out[b] = b;
    }
    return out;
  }
  const DistSpec& spec = array.distribution();
  const int tasks = array.task_count();
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    bool dirty = false;
    for (int t = 0; t < tasks && !dirty; ++t) {
      const MutationLog& log = array.mutation_log(t);
      if (log.clean()) {
        continue;
      }
      if (log.all) {
        // Mark-all means "this task's whole mapped section" — clip it.
        const Slice& mapped = spec.mapped(t);
        dirty = !mapped.empty() && !blocks[b].intersect(mapped).empty();
      } else {
        dirty = log.intersects(blocks[b]);
      }
    }
    if (dirty) {
      out.push_back(static_cast<std::uint64_t>(b));
    }
  }
  return out;
}

namespace {

/// Walks the chain from `prefix` to its full base. `tip`, when set, is
/// prefix's meta, already read.
CheckpointChain walk_chain(const store::StorageBackend& storage,
                           const std::string& prefix,
                           const CheckpointMeta* tip) {
  CheckpointChain chain;
  std::set<std::string> seen;
  std::string cur = prefix;
  for (int depth = 0; depth < wire::kMaxChainDepth; ++depth) {
    if (!seen.insert(cur).second) {
      throw support::CorruptCheckpoint("checkpoint chain at '" + prefix +
                                       "' is cyclic");
    }
    if (!commit_manifest_exists(storage, cur)) {
      throw support::CorruptCheckpoint("chain member '" + cur +
                                       "' of checkpoint '" + prefix +
                                       "' is not committed");
    }
    CheckpointMeta meta = depth == 0 && tip != nullptr
                              ? *tip
                              : read_checkpoint_meta(storage, cur);
    chain.prefixes.push_back(cur);
    if (meta.kind == GenerationKind::kFull) {
      std::reverse(chain.prefixes.begin(), chain.prefixes.end());
      chain.base = std::move(meta);
      return chain;
    }
    cur = meta.base_prefix;
  }
  throw support::CorruptCheckpoint("checkpoint chain at '" + prefix +
                                   "' exceeds the depth bound");
}

}  // namespace

std::vector<std::string> resolve_checkpoint_chain(
    const store::StorageBackend& storage, const std::string& prefix) {
  return walk_chain(storage, prefix, nullptr).prefixes;
}

CheckpointChain resolve_checkpoint_chain(const store::StorageBackend& storage,
                                         const std::string& prefix,
                                         const CheckpointMeta& meta) {
  if (meta.kind == GenerationKind::kFull) {
    return {{prefix}, meta};
  }
  return walk_chain(storage, prefix, &meta);
}

bool verify_delta_file(const store::StorageBackend& storage,
                       const std::string& name, std::uint64_t expected_size,
                       bool deep, std::vector<std::string>& problems) {
  const std::size_t before = problems.size();
  if (!storage.exists(name)) {
    problems.push_back(name + ": missing");
    return false;
  }
  const store::FileHandle file = storage.open(name);
  if (file.size() != expected_size) {
    problems.push_back(name + ": unexpected size");
  }
  DeltaFileHeader header;
  std::vector<DeltaBlockRecord> records;
  try {
    header = read_delta_header(file, name);
    records = read_delta_index(file, header, name);
  } catch (const support::Error& e) {
    problems.push_back(e.what());
    return false;
  }
  if (deep) {
    // One read and one CRC per raw block; an encoded block is decoded
    // too. Both buffers are reused across blocks.
    support::ByteBuffer stored;
    support::ByteBuffer raw;
    for (const auto& r : records) {
      const auto mismatch = [&](const char* what) {
        problems.push_back(name + ": block " + std::to_string(r.block_index) +
                           what);
      };
      stored.clear();
      file.read_at_into(wire::kDeltaHeaderBytes + r.payload_offset,
                        stored.append_uninitialized(
                            static_cast<std::size_t>(r.stored_bytes)));
      std::uint32_t crc = support::crc32c(stored.bytes());
      if (crc != r.stored_crc) {
        mismatch(" stored CRC mismatch");
        continue;
      }
      if (r.codec != support::BlockCodec::kRaw) {
        raw.clear();
        try {
          support::block_decode(r.codec, stored.bytes(), r.raw_bytes, raw);
        } catch (const support::Error& e) {
          problems.push_back(e.what());
          continue;
        }
        crc = support::crc32c(raw.bytes());
      }
      if (crc != r.raw_crc) {
        mismatch(" raw CRC mismatch");
      }
    }
  }
  return problems.size() == before;
}

}  // namespace drms::core
