#include "core/checkpoint_format.hpp"

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
  meta.arrays.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ArrayMeta a;
    a.name = body.get_string();
    const std::uint64_t rank = body.get_u64();
    a.lower.resize(rank);
    a.upper.resize(rank);
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
  manifest.entries.reserve(n);
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

CheckpointMeta read_meta_file(const store::StorageBackend& storage,
                              const std::string& file) {
  const store::FileHandle handle = storage.open(file);
  support::ByteBuffer buf = store::read_to_buffer(handle, 0, handle.size());
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

CommitManifest read_commit_manifest(const store::StorageBackend& storage,
                                    const std::string& prefix) {
  const std::string file = commit_file_name(prefix);
  const store::FileHandle handle = storage.open(file);
  support::ByteBuffer buf = store::read_to_buffer(handle, 0, handle.size());
  return deserialize_manifest(buf, file);
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

std::uint64_t drms_state_size(const store::StorageBackend& storage,
                              const std::string& prefix) {
  std::uint64_t total = storage.file_size(segment_file_name(prefix));
  const CheckpointMeta meta = read_checkpoint_meta(storage, prefix);
  const bool delta = meta.kind == GenerationKind::kDelta;
  for (const auto& a : meta.arrays) {
    total += storage.file_size(delta ? delta_array_file_name(prefix, a.name)
                                     : array_file_name(prefix, a.name));
  }
  return total;
}

std::uint64_t spmd_state_size(const store::StorageBackend& storage,
                              const std::string& prefix) {
  const CheckpointMeta meta = read_spmd_meta(storage, prefix);
  std::uint64_t total = 0;
  for (int r = 0; r < meta.task_count; ++r) {
    total += storage.file_size(spmd_task_file_name(prefix, r));
  }
  return total;
}

}  // namespace drms::core
