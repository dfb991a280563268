#include "core/delta_format.hpp"

#include <algorithm>
#include <utility>

#include "core/checkpoint_format.hpp"
#include "obs/recorder.hpp"
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
    // block stores its raw bytes, and an encoded one is smaller but
    // within what its stored bytes can decode to, which bounds the raw
    // buffer a reader allocates for it.
    if (r.raw_bytes == 0 || r.raw_bytes > header.block_bytes ||
        r.raw_bytes > support::block_reach(r.codec, r.stored_bytes) ||
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

CheckpointChain walk_checkpoint_chain(const store::StorageBackend& storage,
                                      const std::string& prefix,
                                      std::optional<bool> spmd,
                                      MetaCache& metas) {
  CheckpointChain chain;
  for (std::string cur = prefix; chain.problems.empty();) {
    if (std::find(chain.prefixes.begin(), chain.prefixes.end(), cur) !=
        chain.prefixes.end()) {
      chain.problems.push_back("chain under '" + prefix + "' is cyclic at '" +
                               cur + "'");
      break;
    }
    if (chain.prefixes.size() ==
        static_cast<std::size_t>(wire::kMaxChainDepth)) {
      chain.problems.push_back("chain under '" + prefix +
                               "' exceeds the depth bound");
      break;
    }
    std::optional<CommitManifest> manifest =
        check_commit(storage, cur, chain.problems);
    if (!manifest.has_value()) {
      break;
    }
    // `prefix` has the layout asked for; an SPMD generation has no base
    // and is no base.
    const bool own = chain.prefixes.empty();
    if ((own && spmd.value_or(manifest->spmd) != manifest->spmd) ||
        (manifest->spmd && (!own || !manifest->base_prefix.empty()))) {
      chain.problems.push_back(commit_file_name(cur) +
                               ": manifest belongs to the other layout");
    }
    chain.prefixes.push_back(cur);
    chain.manifests.push_back(std::move(*manifest));
    const CommitManifest& m = chain.manifests.back();
    if (chain.problems.empty() && m.base_prefix.empty()) {
      try {
        chain.base = read_listed_meta(storage, cur, m, metas);
      } catch (const support::Error& e) {
        chain.problems.push_back(e.what());
      }
      break;
    }
    cur = m.base_prefix;
  }
  std::reverse(chain.prefixes.begin(), chain.prefixes.end());
  std::reverse(chain.manifests.begin(), chain.manifests.end());
  return chain;
}

namespace {

CheckpointChain resolve(const store::StorageBackend& storage,
                        const std::string& prefix) {
  MetaCache metas;
  CheckpointChain chain = walk_checkpoint_chain(storage, prefix, false, metas);
  if (!chain.problems.empty()) {
    throw support::CorruptCheckpoint(chain.problems.front());
  }
  return chain;
}

}  // namespace

std::vector<std::string> resolve_checkpoint_chain(
    const store::StorageBackend& storage, const std::string& prefix) {
  return resolve(storage, prefix).prefixes;
}

CheckpointChain resolve_checkpoint_chain(const store::StorageBackend& storage,
                                         const std::string& prefix,
                                         const CheckpointMeta& meta) {
  if (meta.kind == GenerationKind::kFull) {
    return {{prefix}, {}, meta, {}};
  }
  CheckpointChain chain = resolve(storage, prefix);
  if (meta.base_prefix != chain.manifests.back().base_prefix) {
    throw support::CorruptCheckpoint(
        meta_file_name(prefix) + ": chain base differs from the commit "
                                 "manifest's");
  }
  return chain;
}

void load_delta_block(const store::FileHandle& file,
                      const DeltaBlockRecord& rec, std::span<std::byte> raw,
                      support::ByteBuffer& scratch, obs::Recorder* recorder,
                      int rank) {
  DRMS_EXPECTS(raw.size() == rec.raw_bytes);
  // A raw block is read straight into `raw` and checked by one CRC (the
  // index guarantees its stored size is its raw size).
  const bool encoded = rec.codec != support::BlockCodec::kRaw;
  std::span<std::byte> stored = raw;
  if (encoded) {
    scratch.resize_uninitialized(static_cast<std::size_t>(rec.stored_bytes));
    stored = std::span<std::byte>(scratch.data(), scratch.size());
  }
  {
    obs::ScopedSpan read_span(recorder, "delta.worker", "read", rank, -1.0);
    file.read_at_into(wire::kDeltaHeaderBytes + rec.payload_offset, stored);
  }
  obs::ScopedSpan decode_span(recorder, "delta.worker", "decode", rank, -1.0);
  const auto corrupt = [&](const char* what) {
    return support::CorruptCheckpoint(
        "delta block " + std::to_string(rec.block_index) + what);
  };
  std::uint32_t crc = support::crc32c(stored);
  if (crc != rec.stored_crc) {
    throw corrupt(": stored CRC mismatch");
  }
  if (encoded) {
    support::block_decode(rec.codec, stored, raw);
    crc = support::crc32c(raw);
  }
  if (crc != rec.raw_crc) {
    throw corrupt(": raw CRC mismatch");
  }
}

bool verify_delta_file(const store::FileHandle& file, const std::string& name,
                       bool deep, std::vector<std::string>& problems) {
  const std::size_t before = problems.size();
  try {
    const std::vector<DeltaBlockRecord> records =
        read_delta_index(file, read_delta_header(file, name), name);
    if (deep) {
      // Both buffers are reused across blocks.
      support::ByteBuffer raw;
      support::ByteBuffer scratch;
      for (const DeltaBlockRecord& r : records) {
        raw.resize_uninitialized(static_cast<std::size_t>(r.raw_bytes));
        try {
          load_delta_block(file, r, {raw.data(), raw.size()}, scratch);
        } catch (const support::Error& e) {
          problems.push_back(name + ": " + e.what());
        }
      }
    }
  } catch (const support::Error& e) {
    problems.push_back(e.what());
  }
  return problems.size() == before;
}

}  // namespace drms::core
