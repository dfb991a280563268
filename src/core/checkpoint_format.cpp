#include "core/checkpoint_format.hpp"

#include <algorithm>

#include "support/byte_buffer.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"

namespace drms::core {

namespace {

constexpr std::uint32_t kMetaMagic = 0x444d4554;  // "DMET"
constexpr std::uint32_t kMetaVersion = 2;
/// Version 3 extends version 2 with delta-generation fields: per-array
/// raw/stored/block statistics, and a trailing (kind, base_prefix,
/// chain_depth, delta_block_bytes) chain record. Full generations keep
/// writing version 2 so their byte encoding (and everything derived from
/// it — manifest CRCs, modeled commit time) is unchanged.
constexpr std::uint32_t kMetaVersionDelta = 3;
constexpr std::uint32_t kCommitMagic = 0x544d4344;  // "DCMT"
constexpr std::uint32_t kCommitVersion = 1;
/// Version 2 appends the chain base_prefix; only delta generations use it.
constexpr std::uint32_t kCommitVersionDelta = 2;
/// Smallest encodings of a meta's array (name length, rank, elem_size,
/// stream_bytes, stream_crc; delta: four more u64) and a manifest entry.
constexpr std::uint64_t kArrayMinBytes = 8 + 8 + 8 + 8 + 4;
constexpr std::uint64_t kDeltaArrayMinBytes = kArrayMinBytes + 4 * 8;
constexpr std::uint64_t kEntryMinBytes = 8 + 8 + 1 + 4;

void serialize_meta(const CheckpointMeta& meta, support::ByteBuffer& out) {
  const bool delta = meta.kind != GenerationKind::kFull;
  support::ByteBuffer body;
  body.put_u32(kMetaMagic);
  body.put_u32(delta ? kMetaVersionDelta : kMetaVersion);
  body.put_string(meta.app_name);
  body.put_i64(meta.task_count);
  body.put_i64(meta.sop);
  body.put_u64(meta.segment_bytes);
  body.put_u64(meta.arrays.size());
  for (const auto& a : meta.arrays) {
    body.put_string(a.name);
    body.put_u64(a.lower.size());
    for (std::size_t k = 0; k < a.lower.size(); ++k) {
      body.put_i64(a.lower[k]);
      body.put_i64(a.upper[k]);
    }
    body.put_u64(a.elem_size);
    body.put_u64(a.stream_bytes);
    body.put_u32(a.stream_crc);
    if (delta) {
      body.put_u64(a.raw_bytes);
      body.put_u64(a.stored_bytes);
      body.put_u64(a.dirty_blocks);
      body.put_u64(a.total_blocks);
    }
  }
  if (delta) {
    body.put_u8(static_cast<std::uint8_t>(meta.kind));
    body.put_string(meta.base_prefix);
    body.put_i64(meta.chain_depth);
    body.put_u64(meta.delta_block_bytes);
  }
  out.put_u32(support::crc32c(body.bytes()));
  out.put_u64(body.size());
  out.append(body.bytes());
}

CheckpointMeta deserialize_meta(support::ByteBuffer& in,
                                const std::string& what) {
  const std::uint32_t crc = in.get_u32();
  const std::uint64_t size = in.get_u64();
  if (in.remaining() < size) {
    throw support::CorruptCheckpoint(what + ": truncated meta record");
  }
  support::ByteBuffer body(std::span<const std::byte>(
      in.data() + in.cursor(), static_cast<std::size_t>(size)));
  if (support::crc32c(body.bytes()) != crc) {
    throw support::CorruptCheckpoint(what + ": meta CRC mismatch");
  }
  if (body.get_u32() != kMetaMagic) {
    throw support::CorruptCheckpoint(what + ": bad meta magic");
  }
  const std::uint32_t version = body.get_u32();
  if (version != kMetaVersion && version != kMetaVersionDelta) {
    throw support::CorruptCheckpoint(what + ": unsupported meta version");
  }
  const bool delta = version == kMetaVersionDelta;
  CheckpointMeta meta;
  meta.app_name = body.get_string();
  meta.task_count = static_cast<int>(body.get_i64());
  meta.sop = body.get_i64();
  meta.segment_bytes = body.get_u64();
  const std::uint64_t n = body.get_u64();
  // Reserve only for arrays the body actually holds.
  if (n > body.remaining() / (delta ? kDeltaArrayMinBytes : kArrayMinBytes)) {
    throw support::CorruptCheckpoint(what + ": array count exceeds the record");
  }
  meta.arrays.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    ArrayMeta a;
    a.name = body.get_string();
    const std::uint64_t rank = body.get_u64();
    if (rank > body.remaining() / (2 * 8)) {
      throw support::CorruptCheckpoint(what +
                                       ": array rank exceeds the record");
    }
    a.lower.resize(static_cast<std::size_t>(rank));
    a.upper.resize(static_cast<std::size_t>(rank));
    for (std::uint64_t k = 0; k < rank; ++k) {
      a.lower[k] = body.get_i64();
      a.upper[k] = body.get_i64();
    }
    a.elem_size = body.get_u64();
    a.stream_bytes = body.get_u64();
    a.stream_crc = body.get_u32();
    if (delta) {
      a.raw_bytes = body.get_u64();
      a.stored_bytes = body.get_u64();
      a.dirty_blocks = body.get_u64();
      a.total_blocks = body.get_u64();
    }
    meta.arrays.push_back(std::move(a));
  }
  if (delta) {
    const std::uint8_t kind = body.get_u8();
    if (kind != static_cast<std::uint8_t>(GenerationKind::kDelta)) {
      throw support::CorruptCheckpoint(what + ": bad generation kind");
    }
    meta.kind = GenerationKind::kDelta;
    meta.base_prefix = body.get_string();
    meta.chain_depth = body.get_i64();
    meta.delta_block_bytes = body.get_u64();
    if (meta.base_prefix.empty()) {
      throw support::CorruptCheckpoint(what + ": delta meta without a base");
    }
  }
  return meta;
}

void serialize_manifest(const CommitManifest& manifest,
                        support::ByteBuffer& out) {
  support::ByteBuffer body;
  body.put_u32(kCommitMagic);
  body.put_u32(manifest.base_prefix.empty() ? kCommitVersion
                                            : kCommitVersionDelta);
  body.put_bool(manifest.spmd);
  if (!manifest.base_prefix.empty()) {
    body.put_string(manifest.base_prefix);
  }
  body.put_u64(manifest.entries.size());
  for (const auto& e : manifest.entries) {
    body.put_string(e.name);
    body.put_u64(e.size);
    body.put_bool(e.has_crc);
    body.put_u32(e.crc);
  }
  out.put_u32(support::crc32c(body.bytes()));
  out.put_u64(body.size());
  out.append(body.bytes());
}

CommitManifest deserialize_manifest(support::ByteBuffer& in,
                                    const std::string& what) {
  if (in.remaining() < 4 + 8) {
    throw support::CorruptCheckpoint(what + ": truncated commit manifest");
  }
  const std::uint32_t crc = in.get_u32();
  const std::uint64_t size = in.get_u64();
  if (in.remaining() < size) {
    throw support::CorruptCheckpoint(what + ": truncated commit manifest");
  }
  support::ByteBuffer body(std::span<const std::byte>(
      in.data() + in.cursor(), static_cast<std::size_t>(size)));
  if (support::crc32c(body.bytes()) != crc) {
    throw support::CorruptCheckpoint(what + ": commit manifest CRC mismatch");
  }
  if (body.get_u32() != kCommitMagic) {
    throw support::CorruptCheckpoint(what + ": bad commit manifest magic");
  }
  const std::uint32_t version = body.get_u32();
  if (version != kCommitVersion && version != kCommitVersionDelta) {
    throw support::CorruptCheckpoint(what +
                                     ": unsupported commit manifest version");
  }
  CommitManifest manifest;
  manifest.spmd = body.get_bool();
  if (version == kCommitVersionDelta) {
    manifest.base_prefix = body.get_string();
    if (manifest.base_prefix.empty()) {
      throw support::CorruptCheckpoint(what +
                                       ": delta manifest without a base");
    }
  }
  const std::uint64_t n = body.get_u64();
  // Reserve only for entries the body actually holds.
  if (n > body.remaining() / kEntryMinBytes) {
    throw support::CorruptCheckpoint(what + ": entry count exceeds the record");
  }
  manifest.entries.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    CommitEntry e;
    e.name = body.get_string();
    e.size = body.get_u64();
    e.has_crc = body.get_bool();
    e.crc = body.get_u32();
    manifest.entries.push_back(std::move(e));
  }
  return manifest;
}

/// The one reader of a meta file; `listing`, when given, is its manifest
/// entry, whose CRC the file must match.
CheckpointMeta read_meta_file(const store::StorageBackend& storage,
                              const std::string& file,
                              const CommitEntry* listing = nullptr) {
  const store::FileHandle handle = storage.open(file);
  support::ByteBuffer buf = store::read_to_buffer(handle, 0, handle.size());
  if (listing != nullptr && listing->has_crc &&
      support::crc32c(buf.bytes()) != listing->crc) {
    throw support::CorruptCheckpoint(file + ": CRC differs from manifest");
  }
  return deserialize_meta(buf, file);
}

}  // namespace

const char* to_string(GenerationKind kind) noexcept {
  return kind == GenerationKind::kDelta ? "delta" : "full";
}

Slice ArrayMeta::box() const { return Slice::box(lower, upper); }

const ArrayMeta& CheckpointMeta::array(const std::string& name) const {
  for (const auto& a : arrays) {
    if (a.name == name) {
      return a;
    }
  }
  throw support::CorruptCheckpoint("checkpoint has no array named '" +
                                   name + "'");
}

const CommitEntry* CommitManifest::entry(const std::string& name) const {
  for (const auto& e : entries) {
    if (e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

std::string commit_file_name(const std::string& prefix) {
  return prefix + ".commit";
}
std::string meta_file_name(const std::string& prefix) {
  return prefix + ".meta";
}
std::string segment_file_name(const std::string& prefix) {
  return prefix + ".segment";
}
std::string array_file_name(const std::string& prefix,
                            const std::string& array_name) {
  return prefix + ".array." + array_name;
}
std::string delta_array_file_name(const std::string& prefix,
                                  const std::string& array_name) {
  return prefix + ".delta." + array_name;
}
std::string spmd_meta_file_name(const std::string& prefix) {
  return prefix + ".spmd.meta";
}
std::string spmd_task_file_name(const std::string& prefix, int rank) {
  return prefix + ".spmd.task" + std::to_string(rank);
}

support::ByteBuffer encode_checkpoint_meta(const CheckpointMeta& meta) {
  support::ByteBuffer buf;
  serialize_meta(meta, buf);
  return buf;
}

support::ByteBuffer encode_commit_manifest(const CommitManifest& manifest) {
  support::ByteBuffer buf;
  serialize_manifest(manifest, buf);
  return buf;
}

std::optional<CommitManifest> check_commit(const store::StorageBackend& storage,
                                           const std::string& prefix,
                                           std::vector<std::string>& problems) {
  const std::string file = commit_file_name(prefix);
  std::optional<CommitManifest> manifest;
  try {  // an absent manifest reads "no such file": not committed
    const store::FileHandle handle = storage.open(file);
    support::ByteBuffer buf = store::read_to_buffer(handle, 0, handle.size());
    manifest = deserialize_manifest(buf, file);
  } catch (const support::Error& e) {
    problems.push_back(e.what());
    return std::nullopt;
  }
  for (const auto& e : manifest->entries) {
    if (!storage.exists(e.name)) {
      problems.push_back(e.name + ": listed in manifest but missing");
    } else if (storage.file_size(e.name) != e.size) {
      problems.push_back(e.name + ": size differs from manifest");
    }
  }
  return manifest;
}

bool commit_manifest_exists(const store::StorageBackend& storage,
                            const std::string& prefix) {
  return storage.exists(commit_file_name(prefix));
}

bool decommit_checkpoint(store::StorageBackend& storage,
                         const std::string& prefix) {
  const std::string file = commit_file_name(prefix);
  if (!storage.exists(file)) {
    return false;
  }
  storage.remove(file);
  return true;
}

CheckpointMeta read_checkpoint_meta(const store::StorageBackend& storage,
                                    const std::string& prefix) {
  return read_meta_file(storage, meta_file_name(prefix));
}

bool checkpoint_exists(const store::StorageBackend& storage,
                       const std::string& prefix) {
  return storage.exists(meta_file_name(prefix));
}

CheckpointMeta read_spmd_meta(const store::StorageBackend& storage,
                              const std::string& prefix) {
  return read_meta_file(storage, spmd_meta_file_name(prefix));
}

bool spmd_checkpoint_exists(const store::StorageBackend& storage,
                            const std::string& prefix) {
  return storage.exists(spmd_meta_file_name(prefix));
}

const CheckpointMeta& read_listed_meta(const store::StorageBackend& storage,
                                       const std::string& prefix,
                                       const CommitManifest& manifest,
                                       MetaCache& metas) {
  if (const auto it = metas.find(prefix); it != metas.end()) {
    return it->second;
  }
  const std::string name = manifest.spmd ? spmd_meta_file_name(prefix)
                                         : meta_file_name(prefix);
  const CommitEntry* entry = manifest.entry(name);
  if (entry == nullptr) {
    throw support::CorruptCheckpoint(name + ": not listed in commit manifest");
  }
  CheckpointMeta meta = read_meta_file(storage, name, entry);
  if (meta.base_prefix != manifest.base_prefix) {
    throw support::CorruptCheckpoint(
        name + ": chain base differs from the commit manifest's");
  }
  return metas.emplace(prefix, std::move(meta)).first->second;
}

support::ByteBuffer encode_segment_header(const SegmentHeader& header) {
  support::ByteBuffer buf;
  buf.put_u32(wire::kSegmentMagic);
  buf.put_u32(wire::kSegmentVersion);
  buf.put_u64(header.replicated_size);
  buf.put_u64(header.total_bytes);
  return buf;
}

SegmentHeader read_segment_header(const store::FileHandle& file,
                                  const std::string& what) {
  if (file.size() < wire::kSegmentHeaderBytes) {
    throw support::CorruptCheckpoint(what + ": too small for a header");
  }
  support::ByteBuffer buf =
      store::read_to_buffer(file, 0, wire::kSegmentHeaderBytes);
  if (buf.get_u32() != wire::kSegmentMagic) {
    throw support::CorruptCheckpoint(what + ": bad magic");
  }
  if (buf.get_u32() != wire::kSegmentVersion) {
    throw support::CorruptCheckpoint(what + ": unsupported version");
  }
  SegmentHeader h;
  h.replicated_size = buf.get_u64();
  h.total_bytes = buf.get_u64();
  if (h.total_bytes != file.size() ||
      h.replicated_size > h.total_bytes - wire::kSegmentHeaderBytes) {
    throw support::CorruptCheckpoint(what + ": header/size mismatch");
  }
  return h;
}

support::ByteBuffer read_sized_crc_record(const store::FileHandle& file,
                                          std::uint64_t offset,
                                          std::uint64_t end,
                                          const std::string& what,
                                          bool read_body) {
  end = std::min(end, file.size());
  if (offset > end || end - offset < wire::kRecordHeadBytes) {
    throw support::CorruptCheckpoint(what + ": truncated record header");
  }
  support::ByteBuffer head =
      store::read_to_buffer(file, offset, wire::kRecordHeadBytes);
  const std::uint64_t body_size = head.get_u64();
  const std::uint32_t crc = head.get_u32();
  if (body_size > end - offset - wire::kRecordHeadBytes) {
    throw support::CorruptCheckpoint(what + ": truncated record body");
  }
  if (!read_body) {
    return {};
  }
  support::ByteBuffer body =
      store::read_to_buffer(file, offset + wire::kRecordHeadBytes, body_size);
  if (support::crc32c(body.bytes()) != crc) {
    throw support::CorruptCheckpoint(what + ": CRC mismatch");
  }
  return body;
}

support::ByteBuffer read_spmd_task_segment(const store::FileHandle& file,
                                           int rank, const std::string& what) {
  support::ByteBuffer body = read_sized_crc_record(file, 0, file.size(), what);
  if (body.size() < 4 + 4 + 8 || body.get_u32() != wire::kSpmdSegmentMagic ||
      body.get_u32() != wire::kSpmdSegmentVersion) {
    throw support::CorruptCheckpoint(what + ": bad task segment header");
  }
  if (body.get_i64() != rank) {
    throw support::CorruptCheckpoint(what +
                                     ": file belongs to a different rank");
  }
  return body;
}

std::uint64_t listed_state_size(const CommitManifest& manifest,
                                const std::string& prefix) {
  const std::string meta = manifest.spmd ? spmd_meta_file_name(prefix)
                                         : meta_file_name(prefix);
  std::uint64_t total = 0;
  for (const CommitEntry& e : manifest.entries) {
    total += e.name == meta ? 0 : e.size;
  }
  return total;
}

std::uint64_t drms_state_size(const store::StorageBackend& storage,
                              const std::string& prefix) {
  std::vector<std::string> problems;
  const std::optional<CommitManifest> manifest =
      check_commit(storage, prefix, problems);
  if (!problems.empty()) {
    throw support::CorruptCheckpoint(problems.front());
  }
  return listed_state_size(*manifest, prefix);
}

std::uint64_t spmd_state_size(const store::StorageBackend& storage,
                              const std::string& prefix) {
  return drms_state_size(storage, prefix);
}

}  // namespace drms::core
