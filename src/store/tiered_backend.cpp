#include "store/tiered_backend.hpp"

#include <algorithm>
#include <utility>

#include "store/chunk_copy.hpp"

namespace drms::store {

/// Routes every operation to the file's CURRENT tier under the entry
/// mutex, so a concurrent spill (capacity overflow on another task)
/// cannot strand a handle on a removed fast copy.
class TieredBackend::TieredFileObject final : public FileObject {
 public:
  TieredFileObject(TieredBackend* backend, std::string name,
                   std::shared_ptr<Entry> entry)
      : backend_(backend), name_(std::move(name)), entry_(std::move(entry)) {}

  void write_at(std::uint64_t offset,
                std::span<const std::byte> data) override {
    const std::lock_guard<std::mutex> lock(entry_->mutex);
    if (entry_->in_fast) {
      try {
        backend_->fast_.open(name_).write_at(offset, data);
        entry_->dirty = true;
        backend_->fast_bytes_committed_.fetch_add(data.size());
        return;
      } catch (const CapacityExceeded&) {
        backend_->spill_locked(name_, *entry_);
      }
    }
    slow_file().write_at(offset, data);
  }

  void write_zeros_at(std::uint64_t offset, std::uint64_t count) override {
    const std::lock_guard<std::mutex> lock(entry_->mutex);
    if (entry_->in_fast) {
      try {
        backend_->fast_.open(name_).write_zeros_at(offset, count);
        entry_->dirty = true;
        backend_->fast_bytes_committed_.fetch_add(count);
        return;
      } catch (const CapacityExceeded&) {
        backend_->spill_locked(name_, *entry_);
      }
    }
    slow_file().write_zeros_at(offset, count);
  }

  [[nodiscard]] std::vector<std::byte> read_at(
      std::uint64_t offset, std::uint64_t count) const override {
    const std::lock_guard<std::mutex> lock(entry_->mutex);
    return current_file().read_at(offset, count);
  }

  void read_at_into(std::uint64_t offset,
                    std::span<std::byte> out) const override {
    const std::lock_guard<std::mutex> lock(entry_->mutex);
    current_file().read_at_into(offset, out);
  }

  void append(std::span<const std::byte> data) override {
    const std::lock_guard<std::mutex> lock(entry_->mutex);
    if (entry_->in_fast) {
      try {
        backend_->fast_.open(name_).append(data);
        entry_->dirty = true;
        backend_->fast_bytes_committed_.fetch_add(data.size());
        return;
      } catch (const CapacityExceeded&) {
        backend_->spill_locked(name_, *entry_);
      }
    }
    slow_file().append(data);
  }

  [[nodiscard]] std::uint64_t size() const override {
    const std::lock_guard<std::mutex> lock(entry_->mutex);
    return current_file().size();
  }

  [[nodiscard]] const std::string& name() const override { return name_; }

 private:
  /// Nearest valid copy (reads). Caller holds the entry mutex.
  [[nodiscard]] FileHandle current_file() const {
    if (entry_->in_fast) {
      return backend_->fast_.open(name_);
    }
    if (entry_->in_slow) {
      return backend_->slow_.open(name_);
    }
    throw support::IoError("file '" + name_ +
                           "' was lost with the fast tier before draining");
  }

  /// Slow-tier handle for post-spill writes. Caller holds the entry mutex.
  [[nodiscard]] FileHandle slow_file() const {
    if (!entry_->in_slow) {
      backend_->slow_.create(name_);
      entry_->in_slow = true;
    }
    return backend_->slow_.open(name_);
  }

  TieredBackend* backend_;
  std::string name_;
  std::shared_ptr<Entry> entry_;
};

TieredBackend::TieredBackend(StorageBackend& fast, StorageBackend& slow)
    : fast_(fast), slow_(slow) {}

std::shared_ptr<TieredBackend::Entry> TieredBackend::find_entry(
    const std::string& name, bool create_missing) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    return it->second;
  }
  // Adopt a file the slow tier already holds (e.g. a tiered backend
  // layered over a volume with pre-existing checkpoints).
  if (slow_.exists(name)) {
    auto entry = std::make_shared<Entry>();
    entry->in_slow = true;
    entries_[name] = entry;
    return entry;
  }
  if (!create_missing) {
    return nullptr;
  }
  auto entry = std::make_shared<Entry>();
  entries_[name] = entry;
  return entry;
}

bool TieredBackend::fast_fits(std::uint64_t bytes) const {
  const std::uint64_t capacity = fast_.capacity_bytes();
  return capacity == 0 || fast_.used_bytes() + bytes <= capacity;
}

std::uint64_t TieredBackend::fast_admissible(std::uint64_t bytes) const {
  const std::uint64_t capacity = fast_.capacity_bytes();
  if (capacity == 0) {
    return bytes;
  }
  const std::uint64_t used = fast_.used_bytes();
  return used >= capacity ? 0 : std::min(bytes, capacity - used);
}

std::uint64_t TieredBackend::copy_to_slow_locked(const std::string& name) {
  return copy_file(fast_.open(name), slow_.create(name));
}

void TieredBackend::spill_locked(const std::string& name, Entry& entry) {
  copy_to_slow_locked(name);
  fast_.remove(name);
  entry.in_fast = false;
  entry.in_slow = true;
  entry.dirty = false;
  fast_spills_.fetch_add(1);
}

FileHandle TieredBackend::create(const std::string& name) {
  auto entry = find_entry(name, /*create_missing=*/true);
  const std::lock_guard<std::mutex> lock(entry->mutex);
  // A re-created file supersedes both copies.
  if (entry->in_fast && fast_.exists(name)) {
    fast_.remove(name);
  }
  if (entry->in_slow && slow_.exists(name)) {
    slow_.remove(name);
  }
  fast_.create(name);
  entry->in_fast = true;
  entry->in_slow = false;
  entry->dirty = true;
  return FileHandle(std::make_shared<TieredFileObject>(this, name, entry));
}

FileHandle TieredBackend::open(const std::string& name) const {
  auto entry = find_entry(name, /*create_missing=*/false);
  if (entry != nullptr) {
    const std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->in_fast || entry->in_slow) {
      return FileHandle(std::make_shared<TieredFileObject>(
          const_cast<TieredBackend*>(this), name, entry));
    }
  }
  throw support::IoError("no such file: '" + name + "'");
}

bool TieredBackend::exists(const std::string& name) const {
  auto entry = find_entry(name, /*create_missing=*/false);
  if (entry == nullptr) {
    return false;
  }
  const std::lock_guard<std::mutex> lock(entry->mutex);
  return entry->in_fast || entry->in_slow;
}

void TieredBackend::remove(const std::string& name) {
  // Failure must be side-effect-free: live TieredFileObject handles share
  // the entry, so the record may only change once something was actually
  // removed.
  auto entry = find_entry(name, /*create_missing=*/false);
  bool removed = false;
  if (entry != nullptr) {
    const std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->in_fast || entry->in_slow) {
      if (entry->in_fast) {
        if (fast_.exists(name)) {
          fast_.remove(name);
        }
        entry->in_fast = false;
      }
      if (entry->in_slow) {
        slow_.remove(name);
        entry->in_slow = false;
      }
      entry->dirty = false;
      removed = true;
    }
    // else: lost with the fast tier — nothing to remove; keep the
    // tombstone entry so existing handles stay consistently invalid.
  }
  if (!removed) {
    throw support::IoError("cannot remove missing file: '" + name + "'");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.erase(name);
}

int TieredBackend::remove_prefix(const std::string& prefix) {
  int removed = 0;
  for (const auto& name : list(prefix)) {
    try {
      remove(name);
      ++removed;
    } catch (const support::IoError&) {
      // Vanished between list() and remove() (concurrent GC);
      // MemoryBackend quietly skips these too.
    }
  }
  return removed;
}

std::vector<std::string> TieredBackend::list(
    const std::string& prefix) const {
  std::vector<std::string> names = slow_.list(prefix);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, entry] : entries_) {
      if (name.rfind(prefix, 0) == 0 && (entry->in_fast || entry->in_slow)) {
        names.push_back(name);
      }
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  // Drop names whose only copy was lost with the fast tier.
  std::erase_if(names, [this](const std::string& n) { return !exists(n); });
  return names;
}

StorageStats TieredBackend::stats() const {
  const StorageStats f = fast_.stats();
  const StorageStats s = slow_.stats();
  StorageStats out;
  out.bytes_written = f.bytes_written + s.bytes_written;
  out.bytes_read = f.bytes_read + s.bytes_read;
  out.write_ops = f.write_ops + s.write_ops;
  out.read_ops = f.read_ops + s.read_ops;
  out.files_created = f.files_created + s.files_created;
  out.fast_bytes_committed = fast_bytes_committed_.load();
  out.drained_bytes = drained_bytes_.load();
  out.drain_backlog_bytes = drain_backlog_bytes();
  out.fast_spills = fast_spills_.load();
  return out;
}

void TieredBackend::reset_stats() {
  fast_.reset_stats();
  slow_.reset_stats();
  fast_bytes_committed_.store(0);
  drained_bytes_.store(0);
  fast_spills_.store(0);
}

std::string TieredBackend::description() const {
  return "tiered(fast=" + fast_.description() +
         ", slow=" + slow_.description() + ")";
}

TieredBackend::DrainReport TieredBackend::drain(
    const sim::LoadContext& load) {
  // Synchronous sweep over the event-model primitives: snapshot the work
  // list, then drain each file under its own lock so concurrent writers
  // aren't blocked for the whole sweep.
  DrainReport report;
  for (const auto& item : drain_work()) {
    const std::optional<std::uint64_t> copied = drain_file(item.name);
    if (!copied.has_value()) {
      continue;  // cleaned, spilled, or removed since the snapshot
    }
    ++report.files_drained;
    report.bytes_drained += *copied;
    report.simulated_seconds += drain_write_seconds(*copied, load);
  }
  return report;
}

std::vector<TieredBackend::DrainItem> TieredBackend::drain_work() const {
  std::vector<std::pair<std::string, std::shared_ptr<Entry>>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snapshot.assign(entries_.begin(), entries_.end());
  }
  std::vector<DrainItem> work;
  for (const auto& [name, entry] : snapshot) {
    const std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->in_fast && entry->dirty && fast_.exists(name)) {
      work.push_back(DrainItem{name, fast_.file_size(name)});
    }
  }
  return work;
}

std::optional<std::uint64_t> TieredBackend::drain_file(
    const std::string& name) {
  auto entry = find_entry(name, /*create_missing=*/false);
  if (entry == nullptr) {
    return std::nullopt;
  }
  const std::lock_guard<std::mutex> lock(entry->mutex);
  if (!entry->in_fast || !entry->dirty) {
    return std::nullopt;
  }
  if (!fast_.exists(name)) {
    // Deleted or superseded between drain_work() and execution (GC, a
    // re-created generation, or a fast-tier node loss). Draining now
    // would either throw or resurrect stale bytes onto the slow tier;
    // instead the entry downgrades and the dirty set forgets the file.
    entry->in_fast = false;
    entry->dirty = false;
    return std::nullopt;
  }
  const std::uint64_t copied = copy_to_slow_locked(name);
  entry->in_slow = true;
  entry->dirty = false;
  drained_bytes_.fetch_add(copied);
  return copied;
}

double TieredBackend::drain_write_seconds(std::uint64_t bytes,
                                          const sim::LoadContext& load) const {
  return slow_.single_write_seconds(bytes, load, nullptr);
}

void TieredBackend::fail_fast_tier() {
  std::vector<std::pair<std::string, std::shared_ptr<Entry>>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snapshot.assign(entries_.begin(), entries_.end());
  }
  for (auto& [name, entry] : snapshot) {
    const std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->in_fast) {
      if (fast_.exists(name)) {
        fast_.remove(name);
      }
      entry->in_fast = false;
      entry->dirty = false;
      // An undrained file has no surviving copy; its entry stays with
      // both flags cleared and open()/exists() report it gone.
    }
  }
}

int TieredBackend::reconcile_fast_tier() {
  std::vector<std::pair<std::string, std::shared_ptr<Entry>>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snapshot.assign(entries_.begin(), entries_.end());
  }
  int downgraded = 0;
  for (auto& [name, entry] : snapshot) {
    const std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->in_fast && !fast_.exists(name)) {
      entry->in_fast = false;
      entry->dirty = false;
      ++downgraded;
    }
  }
  return downgraded;
}

std::uint64_t TieredBackend::drain_backlog_bytes() const {
  std::vector<std::pair<std::string, std::shared_ptr<Entry>>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snapshot.assign(entries_.begin(), entries_.end());
  }
  std::uint64_t backlog = 0;
  for (const auto& [name, entry] : snapshot) {
    const std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->in_fast && entry->dirty && fast_.exists(name)) {
      backlog += fast_.file_size(name);
    }
  }
  return backlog;
}

bool TieredBackend::fast_holds_data() const {
  std::vector<std::shared_ptr<Entry>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, entry] : entries_) {
      snapshot.push_back(entry);
    }
  }
  for (const auto& entry : snapshot) {
    const std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->in_fast) {
      return true;
    }
  }
  return false;
}

double TieredBackend::single_write_seconds(std::uint64_t bytes,
                                           const sim::LoadContext& ctx,
                                           support::Rng* jitter) const {
  // Mirror the data path: the write lands in the fast tier until it no
  // longer fits, at which point spill_locked() re-copies the WHOLE file
  // (staged prefix included) to the slow tier and the write finishes
  // there. A mid-operation spill therefore costs the staged prefix at
  // fast speed plus the full size at slow speed.
  const std::uint64_t fast_part = fast_admissible(bytes);
  if (fast_part == bytes) {
    return fast_.single_write_seconds(bytes, ctx, jitter);
  }
  if (fast_part == 0) {
    return slow_.single_write_seconds(bytes, ctx, jitter);
  }
  return fast_.single_write_seconds(fast_part, ctx, jitter) +
         slow_.single_write_seconds(bytes, ctx, jitter);
}

double TieredBackend::concurrent_write_seconds(std::uint64_t bytes_per_writer,
                                               int writers,
                                               const sim::LoadContext& ctx,
                                               support::Rng* jitter) const {
  const std::uint64_t total =
      bytes_per_writer * static_cast<std::uint64_t>(writers);
  return fast_fits(total)
             ? fast_.concurrent_write_seconds(bytes_per_writer, writers, ctx,
                                              jitter)
             : slow_.concurrent_write_seconds(bytes_per_writer, writers, ctx,
                                              jitter);
}

double TieredBackend::shared_read_seconds(std::uint64_t bytes, int readers,
                                          const sim::LoadContext& ctx,
                                          support::Rng* jitter) const {
  return fast_holds_data()
             ? fast_.shared_read_seconds(bytes, readers, ctx, jitter)
             : slow_.shared_read_seconds(bytes, readers, ctx, jitter);
}

double TieredBackend::private_read_seconds(std::uint64_t bytes_per_reader,
                                           int readers,
                                           const sim::LoadContext& ctx,
                                           support::Rng* jitter) const {
  return fast_holds_data()
             ? fast_.private_read_seconds(bytes_per_reader, readers, ctx,
                                          jitter)
             : slow_.private_read_seconds(bytes_per_reader, readers, ctx,
                                          jitter);
}

double TieredBackend::stream_write_round_seconds(std::uint64_t bytes,
                                                 int writers,
                                                 const sim::LoadContext& ctx,
                                                 support::Rng* jitter) const {
  // Same mid-round spill accounting as single_write_seconds.
  const std::uint64_t fast_part = fast_admissible(bytes);
  if (fast_part == bytes) {
    return fast_.stream_write_round_seconds(bytes, writers, ctx, jitter);
  }
  if (fast_part == 0) {
    return slow_.stream_write_round_seconds(bytes, writers, ctx, jitter);
  }
  return fast_.stream_write_round_seconds(fast_part, writers, ctx, jitter) +
         slow_.stream_write_round_seconds(bytes, writers, ctx, jitter);
}

double TieredBackend::stream_read_round_seconds(std::uint64_t bytes,
                                                int readers,
                                                const sim::LoadContext& ctx,
                                                support::Rng* jitter) const {
  return fast_holds_data()
             ? fast_.stream_read_round_seconds(bytes, readers, ctx, jitter)
             : slow_.stream_read_round_seconds(bytes, readers, ctx, jitter);
}

}  // namespace drms::store
