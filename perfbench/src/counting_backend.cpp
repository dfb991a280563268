#include "counting_backend.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

namespace store = drms::store;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

StoreCounts StoreCounts::operator-(const StoreCounts& o) const {
  return {write_ops - o.write_ops, write_bytes - o.write_bytes,
          write_ns - o.write_ns,   read_ops - o.read_ops,
          read_bytes - o.read_bytes, read_ns - o.read_ns,
          ns_ops - o.ns_ops};
}

class CountingBackend::File final : public store::FileObject {
 public:
  File(CountingBackend* owner, store::FileHandle inner)
      : owner_(owner), inner_(std::move(inner)) {}

  void write_at(std::uint64_t offset,
                std::span<const std::byte> data) override {
    owner_->data_op("write_at", true, data.size(),
                    [&] { inner_.write_at(offset, data); });
  }
  void write_zeros_at(std::uint64_t offset, std::uint64_t count) override {
    owner_->data_op("write_zeros_at", true, count,
                    [&] { inner_.write_zeros_at(offset, count); });
  }
  [[nodiscard]] std::vector<std::byte> read_at(
      std::uint64_t offset, std::uint64_t count) const override {
    std::vector<std::byte> out;
    owner_->data_op("read_at", false, count,
                    [&] { out = inner_.read_at(offset, count); });
    return out;
  }
  void read_at_into(std::uint64_t offset,
                    std::span<std::byte> out) const override {
    owner_->data_op("read_at", false, out.size(),
                    [&] { inner_.read_at_into(offset, out); });
  }
  void append(std::span<const std::byte> data) override {
    owner_->data_op("append", true, data.size(),
                    [&] { inner_.append(data); });
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }
  [[nodiscard]] const std::string& name() const override {
    return inner_.name();
  }

 private:
  CountingBackend* owner_;
  store::FileHandle inner_;
};

void CountingBackend::set_tracing(bool on, drms::obs::Recorder* recorder) {
  recorder_ = recorder;
  tracing_.store(on);
}

template <typename Fn>
void CountingBackend::data_op(const char* name, bool write,
                              std::uint64_t bytes, Fn&& fn) {
  auto& ops = write ? write_ops_ : read_ops_;
  auto& byte_count = write ? write_bytes_ : read_bytes_;
  ops.fetch_add(1, std::memory_order_relaxed);
  byte_count.fetch_add(bytes, std::memory_order_relaxed);
  if (!tracing_.load(std::memory_order_relaxed)) {
    fn();
    return;
  }
  drms::obs::ScopedSpan span(
      recorder_, "store", name, -1, -1.0,
      {drms::obs::Attr::str("tier", label_),
       drms::obs::Attr::num("parent", parent_.load()),
       drms::obs::Attr::num("op", op_.load()),
       drms::obs::Attr::num("bytes", static_cast<std::int64_t>(bytes))});
  const std::int64_t t0 = steady_ns();
  fn();
  const std::int64_t t1 = steady_ns();
  (write ? write_ns_ : read_ns_)
      .fetch_add(static_cast<std::uint64_t>(t1 - t0),
                 std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(intervals_mutex_);
  intervals_.emplace_back(t0, t1);
}

StoreCounts CountingBackend::counts() const {
  return {write_ops_.load(), write_bytes_.load(), write_ns_.load(),
          read_ops_.load(),  read_bytes_.load(),  read_ns_.load(),
          ns_ops_.load()};
}

std::uint64_t CountingBackend::covered_ns(std::int64_t begin_ns,
                                          std::int64_t end_ns) {
  std::vector<std::pair<std::int64_t, std::int64_t>> mine;
  {
    const std::lock_guard<std::mutex> lock(intervals_mutex_);
    for (const auto& iv : intervals_) {
      if (iv.second > begin_ns && iv.first < end_ns) {
        mine.emplace_back(std::max(iv.first, begin_ns),
                          std::min(iv.second, end_ns));
      }
    }
    std::erase_if(intervals_,
                  [&](const auto& iv) { return iv.second <= end_ns; });
  }
  std::sort(mine.begin(), mine.end());
  std::uint64_t covered = 0;
  std::int64_t cur_begin = 0;
  std::int64_t cur_end = -1;
  for (const auto& [b, e] : mine) {
    if (cur_end < 0 || b > cur_end) {
      if (cur_end >= 0) {
        covered += static_cast<std::uint64_t>(cur_end - cur_begin);
      }
      cur_begin = b;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end >= 0) {
    covered += static_cast<std::uint64_t>(cur_end - cur_begin);
  }
  return covered;
}

store::FileHandle CountingBackend::wrap(store::FileHandle inner) const {
  return store::FileHandle(std::make_shared<File>(
      const_cast<CountingBackend*>(this), std::move(inner)));
}

store::FileHandle CountingBackend::create(const std::string& name) {
  ns_op();
  return wrap(inner_.create(name));
}

store::FileHandle CountingBackend::open(const std::string& name) const {
  ns_op();
  return wrap(inner_.open(name));
}

bool CountingBackend::exists(const std::string& name) const {
  ns_op();
  return inner_.exists(name);
}

void CountingBackend::remove(const std::string& name) {
  ns_op();
  inner_.remove(name);
}

int CountingBackend::remove_prefix(const std::string& prefix) {
  ns_op();
  return inner_.remove_prefix(prefix);
}

std::vector<std::string> CountingBackend::list(
    const std::string& prefix) const {
  ns_op();
  return inner_.list(prefix);
}

std::uint64_t CountingBackend::file_size(const std::string& name) const {
  return inner_.file_size(name);
}

std::uint64_t CountingBackend::total_size(const std::string& prefix) const {
  return inner_.total_size(prefix);
}

}  // namespace perfbench
