#include "store/memory_backend.hpp"

#include <algorithm>

#include "piofs/extent_file.hpp"

namespace drms::store {

/// One in-memory file. All access is serialized by the backend mutex —
/// the tier is a simulator construct moving memcpy-sized chunks, so a
/// single lock is simpler than the per-file locking piofs needs and still
/// safe for the parallel-streaming tasks.
struct MemoryBackend::MemFile {
  explicit MemFile(std::string file_name) : name(std::move(file_name)) {}
  std::string name;
  piofs::ExtentFile data;
};

class MemoryBackend::MemFileObject final : public FileObject {
 public:
  MemFileObject(MemoryBackend* backend, std::shared_ptr<MemFile> file)
      : backend_(backend), file_(std::move(file)) {}

  void write_at(std::uint64_t offset,
                std::span<const std::byte> data) override {
    const std::lock_guard<std::mutex> lock(backend_->mutex_);
    const std::uint64_t old_size = file_->data.size();
    const std::uint64_t new_size =
        std::max(old_size, offset + data.size());
    backend_->account_write(new_size - old_size, data.size());
    file_->data.write_at(offset, data);
  }

  void write_zeros_at(std::uint64_t offset, std::uint64_t count) override {
    const std::lock_guard<std::mutex> lock(backend_->mutex_);
    const std::uint64_t old_size = file_->data.size();
    const std::uint64_t new_size = std::max(old_size, offset + count);
    backend_->account_write(new_size - old_size, count);
    file_->data.write_zeros_at(offset, count);
  }

  [[nodiscard]] std::vector<std::byte> read_at(
      std::uint64_t offset, std::uint64_t count) const override {
    const std::lock_guard<std::mutex> lock(backend_->mutex_);
    if (offset + count > file_->data.size()) {
      throw support::IoError("read past end of file '" + file_->name +
                             "' (offset " + std::to_string(offset) +
                             " count " + std::to_string(count) + " size " +
                             std::to_string(file_->data.size()) + ")");
    }
    backend_->account_read(count);
    return file_->data.read_at(offset, count);
  }

  void read_at_into(std::uint64_t offset,
                    std::span<std::byte> out) const override {
    const std::lock_guard<std::mutex> lock(backend_->mutex_);
    if (offset + out.size() > file_->data.size()) {
      throw support::IoError("read past end of file '" + file_->name +
                             "' (offset " + std::to_string(offset) +
                             " count " + std::to_string(out.size()) +
                             " size " + std::to_string(file_->data.size()) +
                             ")");
    }
    backend_->account_read(out.size());
    file_->data.read_at_into(offset, out);
  }

  void append(std::span<const std::byte> data) override {
    const std::lock_guard<std::mutex> lock(backend_->mutex_);
    backend_->account_write(data.size(), data.size());
    file_->data.write_at(file_->data.size(), data);
  }

  [[nodiscard]] std::uint64_t size() const override {
    const std::lock_guard<std::mutex> lock(backend_->mutex_);
    return file_->data.size();
  }

  [[nodiscard]] const std::string& name() const override {
    return file_->name;
  }

 private:
  MemoryBackend* backend_;
  std::shared_ptr<MemFile> file_;
};

void MemoryBackend::account_write(std::uint64_t grow_by,
                                  std::uint64_t count) {
  if (capacity_bytes_ > 0 && used_bytes_ + grow_by > capacity_bytes_) {
    throw CapacityExceeded(
        "memory tier full: " + std::to_string(used_bytes_) + " + " +
        std::to_string(grow_by) + " bytes exceeds capacity " +
        std::to_string(capacity_bytes_));
  }
  used_bytes_ += grow_by;
  stats_.bytes_written += count;
  ++stats_.write_ops;
}

void MemoryBackend::account_read(std::uint64_t count) const {
  stats_.bytes_read += count;
  ++stats_.read_ops;
}

FileHandle MemoryBackend::create(const std::string& name) {
  DRMS_EXPECTS(!name.empty());
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = files_[name];
  if (slot == nullptr) {
    slot = std::make_shared<MemFile>(name);
    ++stats_.files_created;
  } else {
    used_bytes_ -= slot->data.size();
    slot->data.truncate();
  }
  return FileHandle(std::make_shared<MemFileObject>(this, slot));
}

FileHandle MemoryBackend::open(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = files_.find(name);
  if (it == files_.end()) {
    throw support::IoError("no such file: '" + name + "'");
  }
  return FileHandle(std::make_shared<MemFileObject>(
      const_cast<MemoryBackend*>(this), it->second));
}

bool MemoryBackend::exists(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return files_.count(name) != 0;
}

void MemoryBackend::remove(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = files_.find(name);
  if (it == files_.end()) {
    throw support::IoError("cannot remove missing file: '" + name + "'");
  }
  used_bytes_ -= it->second->data.size();
  files_.erase(it);
}

int MemoryBackend::remove_prefix(const std::string& prefix) {
  const std::lock_guard<std::mutex> lock(mutex_);
  int removed = 0;
  for (auto it = files_.begin(); it != files_.end();) {
    if (it->first.rfind(prefix, 0) == 0) {
      used_bytes_ -= it->second->data.size();
      it = files_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<std::string> MemoryBackend::list(
    const std::string& prefix) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [name, file] : files_) {
    if (name.rfind(prefix, 0) == 0) {
      names.push_back(name);
    }
  }
  return names;  // std::map iteration is already sorted
}

StorageStats MemoryBackend::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void MemoryBackend::reset_stats() {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_ = StorageStats{};
}

std::string MemoryBackend::description() const {
  return "memory(capacity=" +
         (capacity_bytes_ == 0 ? std::string("unlimited")
                               : std::to_string(capacity_bytes_)) +
         ")";
}

std::uint64_t MemoryBackend::used_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return used_bytes_;
}

std::uint64_t MemoryBackend::allocated_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [name, file] : files_) {
    total += file->data.allocated_bytes();
  }
  return total;
}

double MemoryBackend::jittered(double seconds, support::Rng* jitter) const {
  if (jitter == nullptr || cost_ == nullptr || cost_->jitter_sigma <= 0.0) {
    return seconds;
  }
  return seconds * jitter->jitter(cost_->jitter_sigma);
}

double MemoryBackend::single_write_seconds(std::uint64_t bytes,
                                           const sim::LoadContext& /*ctx*/,
                                           support::Rng* jitter) const {
  if (cost_ == nullptr || cost_->memory_write_bw <= 0.0) {
    return 0.0;
  }
  return jittered(static_cast<double>(bytes) / cost_->memory_write_bw +
                      cost_->memory_op_latency,
                  jitter);
}

double MemoryBackend::concurrent_write_seconds(std::uint64_t bytes_per_writer,
                                               int writers,
                                               const sim::LoadContext& /*ctx*/,
                                               support::Rng* jitter) const {
  DRMS_EXPECTS(writers > 0);
  if (cost_ == nullptr || cost_->memory_write_bw <= 0.0) {
    return 0.0;
  }
  // Node-local: every writer proceeds at memory bandwidth independently.
  return jittered(
      static_cast<double>(bytes_per_writer) / cost_->memory_write_bw +
          cost_->memory_op_latency,
      jitter);
}

double MemoryBackend::shared_read_seconds(std::uint64_t bytes, int readers,
                                          const sim::LoadContext& /*ctx*/,
                                          support::Rng* jitter) const {
  DRMS_EXPECTS(readers > 0);
  if (cost_ == nullptr || cost_->memory_read_bw <= 0.0) {
    return 0.0;
  }
  return jittered(static_cast<double>(bytes) / cost_->memory_read_bw +
                      cost_->memory_op_latency,
                  jitter);
}

double MemoryBackend::private_read_seconds(std::uint64_t bytes_per_reader,
                                           int readers,
                                           const sim::LoadContext& /*ctx*/,
                                           support::Rng* jitter) const {
  DRMS_EXPECTS(readers > 0);
  if (cost_ == nullptr || cost_->memory_read_bw <= 0.0) {
    return 0.0;
  }
  // No buffer-memory threshold: the tier IS the buffer memory.
  return jittered(
      static_cast<double>(bytes_per_reader) / cost_->memory_read_bw +
          cost_->memory_op_latency,
      jitter);
}

double MemoryBackend::stream_write_round_seconds(std::uint64_t bytes,
                                                 int writers,
                                                 const sim::LoadContext& ctx,
                                                 support::Rng* jitter) const {
  DRMS_EXPECTS(writers > 0);
  if (cost_ == nullptr || cost_->memory_write_bw <= 0.0) {
    return 0.0;
  }
  // Phase 1 (redistribution into the canonical distribution) is client
  // CPU work and keeps the PIOFS model's rate; only phase 2 (the actual
  // write) runs at memory speed, in parallel on every writer.
  double redist = 0.0;
  if (cost_->redistribution_bw > 0.0) {
    const double rate =
        cost_->redistribution_bw / cost_->client_congestion(ctx);
    redist =
        static_cast<double>(bytes) / (rate * static_cast<double>(writers));
  }
  const double write =
      static_cast<double>(bytes) /
      (cost_->memory_write_bw * static_cast<double>(writers));
  return jittered(redist + write + cost_->memory_op_latency, jitter);
}

double MemoryBackend::stream_read_round_seconds(std::uint64_t bytes,
                                                int readers,
                                                const sim::LoadContext& /*ctx*/,
                                                support::Rng* jitter) const {
  DRMS_EXPECTS(readers > 0);
  if (cost_ == nullptr || cost_->memory_read_bw <= 0.0) {
    return 0.0;
  }
  return jittered(
      static_cast<double>(bytes) /
              (cost_->memory_read_bw * static_cast<double>(readers)) +
          cost_->memory_op_latency,
      jitter);
}

}  // namespace drms::store
