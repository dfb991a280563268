#include "store/redundant_backend.hpp"

#include <algorithm>
#include <utility>

#include "store/chunk_copy.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace drms::store {

namespace {

/// Payload bytes of fragment `index` of a `total`-byte file. The last
/// fragment is the parity, as long as the first (longest) data fragment.
std::uint64_t payload_length(const RedundancyScheme& scheme,
                             std::uint64_t total, int index) {
  const int data_fragments = scheme.fragment_count() - 1;
  return fragment_extent(total, data_fragments,
                         index == data_fragments ? 0 : index)
      .length;
}

/// Header of fragment `index` of a `total`-byte file whose payload has
/// CRC `crc`.
FragmentHeader header_of(const RedundancyScheme& scheme, int index,
                         std::uint64_t total, std::uint32_t crc) {
  FragmentHeader header;
  header.kind = scheme.kind;
  header.index = static_cast<std::uint32_t>(index);
  header.fragment_count = static_cast<std::uint32_t>(scheme.fragment_count());
  header.payload_bytes = payload_length(scheme, total, index);
  header.total_bytes = total;
  header.payload_crc = crc;
  return header;
}

support::IoError beyond_tolerance(const std::string& name,
                                  const RedundancyScheme& scheme) {
  return support::IoError("file '" + name +
                          "' lost more fragments than " + scheme.describe() +
                          " tolerates");
}

}  // namespace

// ---- file object ------------------------------------------------------------

/// Routes every operation to the file's CURRENT form (staged copy or
/// fragment set) under the record mutex, so encode/materialize/scavenge
/// transitions cannot strand a live handle.
class RedundantBackend::RedundantFileObject final : public FileObject {
 public:
  RedundantFileObject(RedundantBackend* backend, std::string name,
                      std::shared_ptr<FileRec> rec)
      : backend_(backend), name_(std::move(name)), rec_(std::move(rec)) {}

  void write_at(std::uint64_t offset,
                std::span<const std::byte> data) override {
    const std::lock_guard<std::mutex> lock(rec_->mutex);
    staged_file().write_at(offset, data);
    rec_->total = staged_size();
  }

  void write_zeros_at(std::uint64_t offset, std::uint64_t count) override {
    const std::lock_guard<std::mutex> lock(rec_->mutex);
    staged_file().write_zeros_at(offset, count);
    rec_->total = staged_size();
  }

  void append(std::span<const std::byte> data) override {
    const std::lock_guard<std::mutex> lock(rec_->mutex);
    staged_file().append(data);
    rec_->total = staged_size();
  }

  [[nodiscard]] std::vector<std::byte> read_at(
      std::uint64_t offset, std::uint64_t count) const override {
    std::vector<std::byte> out(static_cast<std::size_t>(count));
    read_at_into(offset, out);
    return out;
  }

  void read_at_into(std::uint64_t offset,
                    std::span<std::byte> out) const override {
    const std::lock_guard<std::mutex> lock(rec_->mutex);
    if (staged_live()) {
      backend_->nodes_[static_cast<std::size_t>(rec_->staged_node)]
          ->store->open(name_)
          .read_at_into(offset, out);
      return;
    }
    if (!rec_->encoded) {
      throw support::IoError("file '" + name_ +
                             "' was lost with its fast-tier node");
    }
    read_encoded(offset, out);
  }

  [[nodiscard]] std::uint64_t size() const override {
    const std::lock_guard<std::mutex> lock(rec_->mutex);
    return staged_live() ? staged_size() : rec_->total;
  }

  [[nodiscard]] const std::string& name() const override { return name_; }

 private:
  [[nodiscard]] bool staged_live() const {
    return rec_->staged_node >= 0 &&
           backend_->nodes_[static_cast<std::size_t>(rec_->staged_node)]
               ->up.load() &&
           backend_->nodes_[static_cast<std::size_t>(rec_->staged_node)]
               ->store->exists(name_);
  }

  [[nodiscard]] std::uint64_t staged_size() const {
    return backend_->nodes_[static_cast<std::size_t>(rec_->staged_node)]
        ->store->file_size(name_);
  }

  /// Writable staged handle; reassembles an encoded file first (a mutated
  /// file must be re-encoded before it is redundant again).
  [[nodiscard]] FileHandle staged_file() {
    if (rec_->encoded) {
      backend_->materialize_locked(name_, *rec_);
    }
    if (!staged_live()) {
      throw support::IoError("file '" + name_ +
                             "' was lost with its fast-tier node");
    }
    return backend_->nodes_[static_cast<std::size_t>(rec_->staged_node)]
        ->store->open(name_);
  }

  /// Serve a read straight from the fragment set: contiguous-split
  /// arithmetic per data fragment, with read-repair on a missing one.
  void read_encoded(std::uint64_t offset, std::span<std::byte> out) const {
    if (offset + out.size() > rec_->total) {
      throw support::IoError("read past end of encoded file '" + name_ +
                             "'");
    }
    const RedundancyScheme& scheme = backend_->scheme_;
    if (scheme.kind == RedundancyKind::kPartner) {
      const int live = backend_->first_live_fragment_locked(name_, *rec_);
      backend_->nodes_[static_cast<std::size_t>(rec_->frag_nodes[
          static_cast<std::size_t>(live)])]
          ->store->open(fragment_name(name_, live))
          .read_at_into(kFragmentHeaderBytes + offset, out);
      return;
    }
    const int data_fragments = scheme.group_size - 1;
    std::uint64_t done = 0;
    for (int i = 0; i < data_fragments && done < out.size(); ++i) {
      const FragmentExtent ext =
          fragment_extent(rec_->total, data_fragments, i);
      const std::uint64_t lo = std::max(ext.offset, offset);
      const std::uint64_t hi =
          std::min(ext.offset + ext.length, offset + out.size());
      if (lo >= hi) {
        continue;
      }
      if (!backend_->live_fragment_locked(name_, *rec_, i).has_value()) {
        backend_->rebuild_fragment_locked(name_, *rec_, i);  // read-repair
      }
      backend_->nodes_[static_cast<std::size_t>(
          rec_->frag_nodes[static_cast<std::size_t>(i)])]
          ->store->open(fragment_name(name_, i))
          .read_at_into(kFragmentHeaderBytes + (lo - ext.offset),
                        out.subspan(static_cast<std::size_t>(lo - offset),
                                    static_cast<std::size_t>(hi - lo)));
      done += hi - lo;
    }
  }

  RedundantBackend* backend_;
  std::string name_;
  std::shared_ptr<FileRec> rec_;
};

// ---- construction -----------------------------------------------------------

RedundantBackend::RedundantBackend(int node_count, RedundancyScheme scheme,
                                   std::uint64_t capacity_per_node,
                                   const sim::CostModel* cost)
    : scheme_(scheme), cost_(cost) {
  DRMS_EXPECTS_MSG(scheme_.group_size >= 2,
                   "redundancy groups need at least two nodes");
  DRMS_EXPECTS_MSG(
      scheme_.kind != RedundancyKind::kPartner || scheme_.group_size == 2,
      "partner replication uses pairs (group_size == 2)");
  DRMS_EXPECTS_MSG(
      scheme_.kind != RedundancyKind::kXor || scheme_.group_size >= 3,
      "xor groups need at least two data fragments (group_size >= 3)");
  DRMS_EXPECTS_MSG(node_count > 0 && node_count % scheme_.group_size == 0,
                   "node count must be a positive multiple of the group "
                   "size");
  nodes_.reserve(static_cast<std::size_t>(node_count));
  for (int i = 0; i < node_count; ++i) {
    auto node = std::make_unique<Node>();
    node->store = std::make_unique<MemoryBackend>(capacity_per_node, cost);
    nodes_.push_back(std::move(node));
  }
}

// ---- record plumbing --------------------------------------------------------

std::shared_ptr<RedundantBackend::FileRec> RedundantBackend::find_rec(
    const std::string& name, bool create_missing) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = recs_.find(name);
  if (it != recs_.end()) {
    return it->second;
  }
  if (!create_missing) {
    return nullptr;
  }
  auto rec = std::make_shared<FileRec>();
  recs_[name] = rec;
  return rec;
}

void RedundantBackend::drop_rec(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  recs_.erase(name);
}

// Placement is a stable pure function of the file name, so fragment
// layout (and the tests pinning it) is the same on every platform.
int RedundantBackend::home_group_base(const std::string& name) const {
  const int groups = node_count() / scheme_.group_size;
  return static_cast<int>(support::fnv1a(name) %
                          static_cast<std::uint64_t>(groups)) *
         scheme_.group_size;
}

// FNV-1a's high bits barely depend on a name's last bytes, so names that
// differ only in a trailing counter would share a rotation without the
// finalizer.
int RedundantBackend::rotation_of(const std::string& name) const {
  return static_cast<int>(support::mix64(support::fnv1a(name)) %
                          static_cast<std::uint64_t>(scheme_.group_size));
}

int RedundantBackend::pick_live_node(const std::string& name,
                                     const std::vector<int>& avoid) const {
  const auto usable = [&](int n) {
    return nodes_[static_cast<std::size_t>(n)]->up.load() &&
           std::find(avoid.begin(), avoid.end(), n) == avoid.end();
  };
  const int base = home_group_base(name);
  const int rot = rotation_of(name);
  for (int k = 0; k < scheme_.group_size; ++k) {
    const int n = base + (rot + k) % scheme_.group_size;
    if (usable(n)) {
      return n;
    }
  }
  for (int n = 0; n < node_count(); ++n) {
    if (usable(n)) {
      return n;
    }
  }
  return -1;
}

// ---- namespace operations ---------------------------------------------------

FileHandle RedundantBackend::create(const std::string& name) {
  auto rec = find_rec(name, /*create_missing=*/true);
  const std::lock_guard<std::mutex> lock(rec->mutex);
  remove_physical_locked(name, *rec);  // a re-created file supersedes all
  const int node = pick_live_node(name, {});
  if (node < 0) {
    throw support::IoError("create '" + name +
                           "': every fast-tier node is down");
  }
  nodes_[static_cast<std::size_t>(node)]->store->create(name);
  rec->staged_node = node;
  rec->encoded = false;
  rec->frag_nodes.clear();
  rec->total = 0;
  return FileHandle(
      std::make_shared<RedundantFileObject>(this, name, rec));
}

FileHandle RedundantBackend::open(const std::string& name) const {
  auto rec = find_rec(name, /*create_missing=*/false);
  if (rec != nullptr) {
    const std::lock_guard<std::mutex> lock(rec->mutex);
    if (readable_locked(name, *rec)) {
      return FileHandle(std::make_shared<RedundantFileObject>(
          const_cast<RedundantBackend*>(this), name, rec));
    }
  }
  throw support::IoError("no such file: '" + name + "'");
}

bool RedundantBackend::exists(const std::string& name) const {
  auto rec = find_rec(name, /*create_missing=*/false);
  if (rec == nullptr) {
    return false;
  }
  const std::lock_guard<std::mutex> lock(rec->mutex);
  return readable_locked(name, *rec);
}

void RedundantBackend::remove(const std::string& name) {
  auto rec = find_rec(name, /*create_missing=*/false);
  if (rec == nullptr) {
    throw support::IoError("cannot remove missing file: '" + name + "'");
  }
  {
    const std::lock_guard<std::mutex> lock(rec->mutex);
    remove_physical_locked(name, *rec);
    rec->staged_node = -1;
    rec->encoded = false;
    rec->frag_nodes.clear();
  }
  drop_rec(name);
}

int RedundantBackend::remove_prefix(const std::string& prefix) {
  std::vector<std::string> names;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, rec] : recs_) {
      if (name.rfind(prefix, 0) == 0) {
        names.push_back(name);
      }
    }
  }
  int removed = 0;
  for (const auto& name : names) {
    try {
      remove(name);
      ++removed;
    } catch (const support::IoError&) {
      // Vanished meanwhile.
    }
  }
  return removed;
}

std::vector<std::string> RedundantBackend::list(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, std::shared_ptr<FileRec>>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, rec] : recs_) {
      if (name.rfind(prefix, 0) == 0) {
        snapshot.emplace_back(name, rec);
      }
    }
  }
  std::vector<std::string> out;
  for (const auto& [name, rec] : snapshot) {
    const std::lock_guard<std::mutex> lock(rec->mutex);
    if (readable_locked(name, *rec)) {
      out.push_back(name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t RedundantBackend::file_size(const std::string& name) const {
  auto rec = find_rec(name, /*create_missing=*/false);
  if (rec == nullptr) {
    throw support::IoError("no such file: '" + name + "'");
  }
  const std::lock_guard<std::mutex> lock(rec->mutex);
  if (!readable_locked(name, *rec)) {
    throw support::IoError("no such file: '" + name + "'");
  }
  if (rec->staged_node >= 0) {
    return nodes_[static_cast<std::size_t>(rec->staged_node)]
        ->store->file_size(name);
  }
  return rec->total;
}

// ---- introspection ----------------------------------------------------------

StorageStats RedundantBackend::stats() const {
  StorageStats out;
  for (const auto& node : nodes_) {
    const StorageStats s = node->store->stats();
    out.bytes_written += s.bytes_written;
    out.bytes_read += s.bytes_read;
    out.write_ops += s.write_ops;
    out.read_ops += s.read_ops;
    out.files_created += s.files_created;
  }
  return out;
}

void RedundantBackend::reset_stats() {
  for (const auto& node : nodes_) {
    node->store->reset_stats();
  }
}

std::string RedundantBackend::description() const {
  return "redundant(" + scheme_.describe() +
         ", nodes=" + std::to_string(node_count()) + ")";
}

std::uint64_t RedundantBackend::capacity_bytes() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) {
    if (!node->up.load()) {
      continue;
    }
    const std::uint64_t c = node->store->capacity_bytes();
    if (c == 0) {
      return 0;  // any unlimited live node makes the tier unlimited
    }
    total += c;
  }
  return total;
}

std::uint64_t RedundantBackend::used_bytes() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) {
    if (node->up.load()) {
      total += node->store->used_bytes();
    }
  }
  return total;
}

bool RedundantBackend::node_up(int node) const {
  DRMS_EXPECTS_MSG(node >= 0 && node < node_count(), "node out of range");
  return nodes_[static_cast<std::size_t>(node)]->up.load();
}

// ---- simulated time ---------------------------------------------------------
// The staged write path is a single memory-tier copy; delegate every
// primitive to a node store (they all share the cost model).

double RedundantBackend::single_write_seconds(std::uint64_t bytes,
                                              const sim::LoadContext& ctx,
                                              support::Rng* jitter) const {
  return nodes_.front()->store->single_write_seconds(bytes, ctx, jitter);
}

double RedundantBackend::concurrent_write_seconds(
    std::uint64_t bytes_per_writer, int writers, const sim::LoadContext& ctx,
    support::Rng* jitter) const {
  return nodes_.front()->store->concurrent_write_seconds(bytes_per_writer,
                                                         writers, ctx, jitter);
}

double RedundantBackend::shared_read_seconds(std::uint64_t bytes, int readers,
                                             const sim::LoadContext& ctx,
                                             support::Rng* jitter) const {
  return nodes_.front()->store->shared_read_seconds(bytes, readers, ctx,
                                                    jitter);
}

double RedundantBackend::private_read_seconds(std::uint64_t bytes_per_reader,
                                              int readers,
                                              const sim::LoadContext& ctx,
                                              support::Rng* jitter) const {
  return nodes_.front()->store->private_read_seconds(bytes_per_reader,
                                                     readers, ctx, jitter);
}

double RedundantBackend::stream_write_round_seconds(
    std::uint64_t bytes, int writers, const sim::LoadContext& ctx,
    support::Rng* jitter) const {
  return nodes_.front()->store->stream_write_round_seconds(bytes, writers,
                                                           ctx, jitter);
}

double RedundantBackend::stream_read_round_seconds(
    std::uint64_t bytes, int readers, const sim::LoadContext& ctx,
    support::Rng* jitter) const {
  return nodes_.front()->store->stream_read_round_seconds(bytes, readers,
                                                          ctx, jitter);
}

// ---- encode path ------------------------------------------------------------

std::vector<RedundantBackend::EncodeItem> RedundantBackend::encode_work()
    const {
  std::vector<std::pair<std::string, std::shared_ptr<FileRec>>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snapshot.assign(recs_.begin(), recs_.end());
  }
  std::vector<EncodeItem> work;
  for (const auto& [name, rec] : snapshot) {
    const std::lock_guard<std::mutex> lock(rec->mutex);
    if (rec->encoded || rec->staged_node < 0) {
      continue;
    }
    const auto& node = nodes_[static_cast<std::size_t>(rec->staged_node)];
    if (node->up.load() && node->store->exists(name)) {
      work.push_back(EncodeItem{name, node->store->file_size(name)});
    }
  }
  return work;
}

std::optional<std::uint64_t> RedundantBackend::encode_file(
    const std::string& name) {
  auto rec = find_rec(name, /*create_missing=*/false);
  if (rec == nullptr) {
    return std::nullopt;
  }
  const std::lock_guard<std::mutex> lock(rec->mutex);
  if (rec->encoded || rec->staged_node < 0) {
    return std::nullopt;  // encoded, re-created, or removed meanwhile
  }
  const auto& staged = nodes_[static_cast<std::size_t>(rec->staged_node)];
  if (!staged->up.load() || !staged->store->exists(name)) {
    return std::nullopt;  // lost with its node before encoding
  }
  const FileHandle src = staged->store->open(name);
  const std::uint64_t total = src.size();

  // Place one fragment per node, parity rotated by the file hash.
  const int count = scheme_.fragment_count();
  std::vector<int> targets;
  for (int i = 0; i < count; ++i) {
    const int preferred =
        home_group_base(name) +
        (rotation_of(name) + i) % scheme_.group_size;
    targets.push_back(
        nodes_[static_cast<std::size_t>(preferred)]->up.load() &&
                std::find(targets.begin(), targets.end(), preferred) ==
                    targets.end()
            ? preferred
            : pick_live_node(name, targets));
    if (targets.back() < 0) {
      return std::nullopt;  // not enough live nodes to protect the file
    }
  }

  // The last fragment is the XOR parity of the data fragments. Partner is
  // the one-data-fragment case: the parity of one fragment is its copy.
  const int data_fragments = count - 1;
  std::vector<FileHandle> files;
  const auto discard = [&] {
    for (std::size_t i = 0; i < files.size(); ++i) {
      MemoryBackend& store =
          *nodes_[static_cast<std::size_t>(targets[i])]->store;
      const std::string frag = fragment_name(name, static_cast<int>(i));
      if (store.exists(frag)) {
        store.remove(frag);
      }
    }
  };
  try {
    for (int i = 0; i < count; ++i) {
      files.push_back(nodes_[static_cast<std::size_t>(targets[
                                 static_cast<std::size_t>(i)])]
                          ->store->create(fragment_name(name, i)));
    }
    std::vector<std::uint32_t> crcs(static_cast<std::size_t>(count));
    std::vector<CopySource> sources;
    for (int i = 0; i < data_fragments; ++i) {
      const FragmentExtent ext = fragment_extent(total, data_fragments, i);
      sources.push_back(CopySource{
          .file = src,
          .offset = ext.offset,
          .length = ext.length,
          .copy_to = files[static_cast<std::size_t>(i)],
          .copy_offset = kFragmentHeaderBytes,
          .crc = &crcs[static_cast<std::size_t>(i)]});
    }
    stream_xor(sources, CopySink{.file = files.back(),
                                 .offset = kFragmentHeaderBytes,
                                 .length = payload_length(scheme_, total,
                                                          data_fragments),
                                 .crc = &crcs.back()});
    for (int i = 0; i < count; ++i) {
      write_fragment_header(
          files[static_cast<std::size_t>(i)],
          header_of(scheme_, i, total, crcs[static_cast<std::size_t>(i)]));
    }
  } catch (const CapacityExceeded&) {
    // Undo the partial set; the file stays staged (readable, just not
    // redundant yet) rather than half-encoded.
    discard();
    return std::nullopt;
  } catch (...) {
    discard();
    throw;
  }
  staged->store->remove(name);
  rec->staged_node = -1;
  rec->encoded = true;
  rec->frag_nodes = std::move(targets);
  rec->total = total;
  return total;
}

int RedundantBackend::encode_all() {
  int encoded = 0;
  for (const auto& item : encode_work()) {
    if (encode_file(item.name).has_value()) {
      ++encoded;
    }
  }
  return encoded;
}

std::uint64_t RedundantBackend::encoded_bytes(std::uint64_t bytes) const {
  if (scheme_.kind == RedundancyKind::kPartner) {
    return 2 * bytes;
  }
  return bytes + fragment_extent(bytes, scheme_.group_size - 1, 0).length;
}

double RedundantBackend::encode_write_seconds(
    std::uint64_t bytes, const sim::LoadContext& load) const {
  return nodes_.front()->store->single_write_seconds(encoded_bytes(bytes),
                                                     load, nullptr);
}

// ---- failure & scavenge -----------------------------------------------------

void RedundantBackend::fail_node(int node) {
  DRMS_EXPECTS_MSG(node >= 0 && node < node_count(), "node out of range");
  auto& n = *nodes_[static_cast<std::size_t>(node)];
  n.up.store(false);
  n.store->remove_prefix("");  // its memory is gone with it
}

void RedundantBackend::repair_node(int node) {
  DRMS_EXPECTS_MSG(node >= 0 && node < node_count(), "node out of range");
  auto& n = *nodes_[static_cast<std::size_t>(node)];
  n.store->remove_prefix("");
  n.up.store(true);
}

bool RedundantBackend::readable_locked(const std::string& name,
                                       const FileRec& rec) const {
  if (rec.staged_node >= 0) {
    const auto& node = nodes_[static_cast<std::size_t>(rec.staged_node)];
    return node->up.load() && node->store->exists(name);
  }
  if (!rec.encoded) {
    return false;
  }
  int missing = 0;
  for (int i = 0; i < scheme_.fragment_count(); ++i) {
    if (!live_fragment_locked(name, rec, i).has_value()) {
      ++missing;
    }
  }
  if (scheme_.kind == RedundancyKind::kPartner) {
    return missing < scheme_.fragment_count();
  }
  return missing <= scheme_.tolerated_losses();
}

std::optional<RedundantBackend::LiveFragment>
RedundantBackend::live_fragment_locked(const std::string& name,
                                       const FileRec& rec, int index) const {
  const int node = rec.frag_nodes[static_cast<std::size_t>(index)];
  if (node < 0 || !nodes_[static_cast<std::size_t>(node)]->up.load()) {
    return std::nullopt;
  }
  const MemoryBackend& store = *nodes_[static_cast<std::size_t>(node)]->store;
  const std::string frag = fragment_name(name, index);
  if (!store.exists(frag)) {
    return std::nullopt;
  }
  LiveFragment out{store.open(frag), {}};
  const std::optional<FragmentHeader> header = read_fragment_header(out.file);
  // Sound: it is the fragment this record expects, all but the payload
  // CRC, which only a full read can check.
  if (!header.has_value() ||
      *header != header_of(scheme_, index, rec.total, header->payload_crc)) {
    return std::nullopt;
  }
  out.header = *header;
  return out;
}

int RedundantBackend::first_live_fragment_locked(const std::string& name,
                                                 const FileRec& rec) const {
  for (int i = 0; i < scheme_.fragment_count(); ++i) {
    if (live_fragment_locked(name, rec, i).has_value()) {
      return i;
    }
  }
  throw support::IoError("file '" + name +
                         "' lost every fast-tier fragment");
}

std::optional<std::uint32_t> RedundantBackend::stream_fragment_locked(
    const std::string& name, const FileRec& rec, int index,
    const FileHandle& dst, std::uint64_t offset) const {
  std::uint32_t crc = 0;
  const CopySink sink{.file = dst,
                      .offset = offset,
                      .length = payload_length(scheme_, rec.total, index),
                      .crc = &crc};
  const auto stream_from = [&](const std::vector<int>& indices) {
    std::vector<CopySource> sources;
    std::vector<std::uint32_t> expected;
    std::vector<std::uint32_t> got(indices.size());
    for (std::size_t k = 0; k < indices.size(); ++k) {
      std::optional<LiveFragment> live =
          live_fragment_locked(name, rec, indices[k]);
      if (!live.has_value()) {
        return false;
      }
      sources.push_back(CopySource{.file = std::move(live->file),
                                   .offset = kFragmentHeaderBytes,
                                   .length = live->header.payload_bytes,
                                   .crc = &got[k]});
      expected.push_back(live->header.payload_crc);
    }
    stream_xor(sources, sink);
    return got == expected;
  };
  std::vector<int> others;
  for (int i = 0; i < scheme_.fragment_count(); ++i) {
    if (i != index) {
      others.push_back(i);
    }
  }
  if (stream_from({index}) || stream_from(others)) {
    return crc;
  }
  return std::nullopt;
}

void RedundantBackend::rebuild_fragment_locked(const std::string& name,
                                               FileRec& rec, int index) {
  std::vector<int> avoid;
  for (int i = 0; i < scheme_.fragment_count(); ++i) {
    if (i != index && live_fragment_locked(name, rec, i).has_value()) {
      avoid.push_back(rec.frag_nodes[static_cast<std::size_t>(i)]);
    }
  }
  int node = pick_live_node(name, avoid);
  if (node < 0) {
    // Every live node already holds one of the file's fragments (e.g. a
    // single-group tier after a loss). Double up on a live node: the
    // file stays fully readable now, at the cost of tolerance until the
    // failed node is repaired and re-protected.
    node = pick_live_node(name, {});
  }
  if (node < 0) {
    throw support::IoError("rebuild '" + name +
                           "': no live node left for the fragment");
  }
  MemoryBackend& store = *nodes_[static_cast<std::size_t>(node)]->store;
  const std::string frag = fragment_name(name, index);
  FileHandle file = store.create(frag);
  std::optional<std::uint32_t> crc;
  try {
    crc = stream_fragment_locked(name, rec, index, file, kFragmentHeaderBytes);
  } catch (...) {
    store.remove(frag);
    throw;
  }
  if (!crc.has_value()) {
    store.remove(frag);
    throw beyond_tolerance(name, scheme_);
  }
  write_fragment_header(file, header_of(scheme_, index, rec.total, *crc));
  rec.frag_nodes[static_cast<std::size_t>(index)] = node;
}

void RedundantBackend::materialize_locked(const std::string& name,
                                          FileRec& rec) {
  const int node = pick_live_node(name, {});
  if (node < 0) {
    throw support::IoError("materialize '" + name +
                           "': every fast-tier node is down");
  }
  // Stream into the staged copy first and drop the fragments after: a
  // write the node has no room for leaves the file encoded, and a tiered
  // caller spills it instead of losing it.
  MemoryBackend& store = *nodes_[static_cast<std::size_t>(node)]->store;
  const FileHandle dst = store.create(name);
  try {
    const int data_fragments = scheme_.fragment_count() - 1;
    for (int i = 0; i < data_fragments; ++i) {
      if (!stream_fragment_locked(
               name, rec, i, dst,
               fragment_extent(rec.total, data_fragments, i).offset)) {
        throw beyond_tolerance(name, scheme_);
      }
    }
  } catch (...) {
    store.remove(name);
    throw;
  }
  remove_physical_locked(name, rec);  // the fragments: nothing is staged
  rec.staged_node = node;
  rec.encoded = false;
  rec.frag_nodes.clear();
}

void RedundantBackend::remove_physical_locked(const std::string& name,
                                              FileRec& rec) {
  if (rec.staged_node >= 0) {
    const auto& node = nodes_[static_cast<std::size_t>(rec.staged_node)];
    if (node->up.load() && node->store->exists(name)) {
      node->store->remove(name);
    }
  }
  for (std::size_t i = 0; i < rec.frag_nodes.size(); ++i) {
    const int node = rec.frag_nodes[i];
    const std::string frag = fragment_name(name, static_cast<int>(i));
    if (node >= 0 && nodes_[static_cast<std::size_t>(node)]->up.load() &&
        nodes_[static_cast<std::size_t>(node)]->store->exists(frag)) {
      nodes_[static_cast<std::size_t>(node)]->store->remove(frag);
    }
  }
}

ScavengeReport RedundantBackend::scavenge(const std::string& prefix) {
  std::vector<std::pair<std::string, std::shared_ptr<FileRec>>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, rec] : recs_) {
      if (name.rfind(prefix, 0) == 0) {
        snapshot.emplace_back(name, rec);
      }
    }
  }
  ScavengeReport report;
  std::vector<std::string> dead;
  for (const auto& [name, rec] : snapshot) {
    const std::lock_guard<std::mutex> lock(rec->mutex);
    if (rec->staged_node >= 0) {
      const auto& node = nodes_[static_cast<std::size_t>(rec->staged_node)];
      if (node->up.load() && node->store->exists(name)) {
        ++report.files_intact;
      } else {
        // Lost before it was ever encoded — the exact window the scheme
        // does not cover (like an undrained tiered file).
        ++report.files_lost;
        report.lost.push_back(name);
        dead.push_back(name);
      }
      continue;
    }
    if (!rec->encoded) {
      continue;  // tombstone
    }
    // CRC-verify every surviving fragment (header read once, payload
    // streamed); a corrupt payload counts as missing (it must not poison
    // a reassembly).
    std::vector<int> missing;
    for (int i = 0; i < scheme_.fragment_count(); ++i) {
      const std::optional<LiveFragment> live =
          live_fragment_locked(name, *rec, i);
      if (!live.has_value()) {
        missing.push_back(i);
      } else if (!fragment_payload_intact(live->file, live->header)) {
        ++report.crc_failures;
        missing.push_back(i);
      }
    }
    if (missing.empty()) {
      ++report.files_intact;
      continue;
    }
    bool recovered =
        scheme_.kind == RedundancyKind::kPartner
            ? static_cast<int>(missing.size()) < scheme_.fragment_count()
            : static_cast<int>(missing.size()) <=
                  scheme_.tolerated_losses();
    for (std::size_t k = 0; recovered && k < missing.size(); ++k) {
      try {
        rebuild_fragment_locked(name, *rec, missing[k]);
        ++report.fragments_rebuilt;
      } catch (const support::IoError&) {
        recovered = false;  // a survivor failed its CRC, or no room
      }
    }
    if (!recovered) {
      remove_physical_locked(name, *rec);
      rec->encoded = false;
      rec->frag_nodes.clear();
      ++report.files_lost;
      report.lost.push_back(name);
      dead.push_back(name);
      continue;
    }
    ++report.files_rebuilt;
    report.bytes_recovered += rec->total;
  }
  for (const auto& name : dead) {
    drop_rec(name);
  }
  return report;
}

void RedundantBackend::mirror_to(StorageBackend& dst) const {
  for (const auto& node : nodes_) {
    if (!node->up.load()) {
      continue;
    }
    for (const auto& name : node->store->list()) {
      copy_file(node->store->open(name), dst.create(name));
    }
  }
}

int RedundantBackend::staged_node_of(const std::string& name) const {
  auto rec = find_rec(name, /*create_missing=*/false);
  if (rec == nullptr) {
    return -1;
  }
  const std::lock_guard<std::mutex> lock(rec->mutex);
  return rec->staged_node;
}

std::vector<int> RedundantBackend::fragment_nodes_of(
    const std::string& name) const {
  auto rec = find_rec(name, /*create_missing=*/false);
  if (rec == nullptr) {
    return {};
  }
  const std::lock_guard<std::mutex> lock(rec->mutex);
  return rec->frag_nodes;
}

MemoryBackend& RedundantBackend::node_store(int node) {
  DRMS_EXPECTS_MSG(node >= 0 && node < node_count(), "node out of range");
  return *nodes_[static_cast<std::size_t>(node)]->store;
}

}  // namespace drms::store
