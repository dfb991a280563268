// Benchmark-owned StorageBackend/FileObject decorator: counts the ops,
// bytes and (when timing is on) host time that cross one storage level,
// and in a traced run records one obs span per op, parented to the
// benchmark operation in flight. It measures the store layer from
// outside, through its public interface only.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/recorder.hpp"
#include "store/storage_backend.hpp"

namespace perfbench {

struct StoreCounts {
  std::uint64_t write_ops = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t write_ns = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t read_ns = 0;
  std::uint64_t ns_ops = 0;  // create/open/exists/remove/list

  [[nodiscard]] StoreCounts operator-(const StoreCounts& o) const;
};

class CountingBackend final : public drms::store::StorageBackend {
 public:
  CountingBackend(drms::store::StorageBackend& inner, std::string label)
      : inner_(inner), label_(std::move(label)) {}

  CountingBackend(const CountingBackend&) = delete;
  CountingBackend& operator=(const CountingBackend&) = delete;

  /// Traced mode: time every data op, keep its interval for coverage
  /// queries, and record it as a span into `recorder` (may be null).
  void set_tracing(bool on, drms::obs::Recorder* recorder);
  /// Span id and operation id of the benchmark operation now in flight;
  /// store spans carry them as their `parent` and `op` attributes.
  void set_parent(std::int64_t span_id, std::int64_t op_id) {
    parent_.store(span_id);
    op_.store(op_id);
  }

  [[nodiscard]] StoreCounts counts() const;
  /// Host nanoseconds of [begin_ns, end_ns] (steady clock) covered by at
  /// least one timed data op; drops the intervals that end before end_ns.
  std::uint64_t covered_ns(std::int64_t begin_ns, std::int64_t end_ns);

  // ---- StorageBackend --------------------------------------------------------
  drms::store::FileHandle create(const std::string& name) override;
  [[nodiscard]] drms::store::FileHandle open(
      const std::string& name) const override;
  [[nodiscard]] bool exists(const std::string& name) const override;
  void remove(const std::string& name) override;
  int remove_prefix(const std::string& prefix) override;
  [[nodiscard]] std::vector<std::string> list(
      const std::string& prefix = "") const override;
  [[nodiscard]] std::uint64_t file_size(
      const std::string& name) const override;
  [[nodiscard]] std::uint64_t total_size(
      const std::string& prefix) const override;

  [[nodiscard]] drms::store::StorageStats stats() const override {
    return inner_.stats();
  }
  void reset_stats() override { inner_.reset_stats(); }
  [[nodiscard]] std::string description() const override {
    return "counting(" + inner_.description() + ")";
  }
  [[nodiscard]] int server_count() const override {
    return inner_.server_count();
  }
  [[nodiscard]] std::uint64_t capacity_bytes() const override {
    return inner_.capacity_bytes();
  }
  [[nodiscard]] std::uint64_t used_bytes() const override {
    return inner_.used_bytes();
  }
  [[nodiscard]] const drms::sim::CostModel* cost_model() const override {
    return inner_.cost_model();
  }
  [[nodiscard]] double single_write_seconds(
      std::uint64_t bytes, const drms::sim::LoadContext& ctx,
      drms::support::Rng* jitter) const override {
    return inner_.single_write_seconds(bytes, ctx, jitter);
  }
  [[nodiscard]] double concurrent_write_seconds(
      std::uint64_t bytes_per_writer, int writers,
      const drms::sim::LoadContext& ctx,
      drms::support::Rng* jitter) const override {
    return inner_.concurrent_write_seconds(bytes_per_writer, writers, ctx,
                                           jitter);
  }
  [[nodiscard]] double shared_read_seconds(
      std::uint64_t bytes, int readers, const drms::sim::LoadContext& ctx,
      drms::support::Rng* jitter) const override {
    return inner_.shared_read_seconds(bytes, readers, ctx, jitter);
  }
  [[nodiscard]] double private_read_seconds(
      std::uint64_t bytes_per_reader, int readers,
      const drms::sim::LoadContext& ctx,
      drms::support::Rng* jitter) const override {
    return inner_.private_read_seconds(bytes_per_reader, readers, ctx,
                                       jitter);
  }
  [[nodiscard]] double stream_write_round_seconds(
      std::uint64_t bytes, int writers, const drms::sim::LoadContext& ctx,
      drms::support::Rng* jitter) const override {
    return inner_.stream_write_round_seconds(bytes, writers, ctx, jitter);
  }
  [[nodiscard]] double stream_read_round_seconds(
      std::uint64_t bytes, int readers, const drms::sim::LoadContext& ctx,
      drms::support::Rng* jitter) const override {
    return inner_.stream_read_round_seconds(bytes, readers, ctx, jitter);
  }

 private:
  class File;
  friend class File;

  /// Times one data op when tracing; `fn` does the forwarded call.
  template <typename Fn>
  void data_op(const char* name, bool write, std::uint64_t bytes, Fn&& fn);
  void ns_op() const { ns_ops_.fetch_add(1, std::memory_order_relaxed); }
  [[nodiscard]] drms::store::FileHandle wrap(
      drms::store::FileHandle inner) const;

  drms::store::StorageBackend& inner_;
  std::string label_;
  std::atomic<bool> tracing_{false};
  drms::obs::Recorder* recorder_ = nullptr;
  std::atomic<std::int64_t> parent_{-1};
  std::atomic<std::int64_t> op_{-1};

  std::atomic<std::uint64_t> write_ops_{0}, write_bytes_{0}, write_ns_{0};
  std::atomic<std::uint64_t> read_ops_{0}, read_bytes_{0}, read_ns_{0};
  mutable std::atomic<std::uint64_t> ns_ops_{0};

  std::mutex intervals_mutex_;  // guards intervals_
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals_;
};

/// Steady-clock nanoseconds (the time base of covered_ns).
[[nodiscard]] std::int64_t steady_ns();

}  // namespace perfbench
