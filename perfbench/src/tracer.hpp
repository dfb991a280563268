// Benchmark-side tracing for the --trace 1 run: spans around the calls
// the benchmark makes into each layer, kept in an obs::Recorder owned by
// the benchmark and written out as a Chrome trace when the run ends.
// Every span carries the id of the operation it belongs to ("op") and
// its parent span ("parent"); the library itself records nothing.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/recorder.hpp"
#include "obs/trace_export.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Op {
    std::size_t span = drms::obs::kNoSpan;
    std::int64_t id = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] drms::obs::Recorder* recorder() {
    return enabled_ ? &recorder_ : nullptr;
  }

  /// Open a span for a new operation (a fresh op id) or, with `within`,
  /// a child span of that operation.
  Op begin(const std::string& name, const Op* within = nullptr) {
    if (!enabled_) {
      return {};
    }
    const std::int64_t id = within != nullptr ? within->id : next_op_++;
    const std::int64_t parent =
        within != nullptr ? static_cast<std::int64_t>(within->span) : -1;
    const std::size_t span = recorder_.begin_span(
        "bench", name, -1, -1.0,
        {drms::obs::Attr::num("op", id), drms::obs::Attr::num("parent", parent)});
    return {span, id};
  }
  void end(const Op& op) {
    if (enabled_ && op.span != drms::obs::kNoSpan) {
      recorder_.end_span(op.span, -1.0);
    }
  }

  /// Chrome trace_event JSON of every span, for chrome://tracing.
  void write(const std::string& path) const {
    if (!enabled_ || path.empty()) {
      return;
    }
    std::ofstream out(path);
    drms::obs::write_chrome_trace(out, recorder_);
  }

 private:
  bool enabled_;
  drms::obs::Recorder recorder_;
  std::int64_t next_op_ = 0;
};

/// Named samples of per-layer quantities, reported as medians.
class Samples {
 public:
  void add(const std::string& name, double v) { data_[name].push_back(v); }
  [[nodiscard]] const std::vector<double>& of(const std::string& name) {
    return data_[name];
  }
  /// Median of `name` into `report` (0 with n=0 when never sampled: the
  /// layer is not on this workload's path).
  void report_median(Report& report, const std::string& name) {
    const auto& v = data_[name];
    report.metric(name, median(v), v.size());
  }

 private:
  std::map<std::string, std::vector<double>> data_;
};

}  // namespace perfbench
