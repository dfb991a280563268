// Shared plumbing of the perfbench binary: clocks, sample statistics, the
// run report (metric lines + the final JSON line) and the thread-budget
// guard.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Wall seconds since an arbitrary fixed origin (steady clock).
[[nodiscard]] double wall_s();
/// Process CPU seconds, user + system, summed over every thread.
[[nodiscard]] double cpu_s();
/// Peak resident set size of this process, MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();
/// Share of all CPUs' time the hypervisor stole since boot (Linux
/// /proc/stat); two readings bracket a run. Context for wall-time noise.
struct StealReading {
  double steal = 0.0;
  double total = 0.0;
};
[[nodiscard]] StealReading read_steal();
/// "# host steal ..." info line for the interval since `from`.
[[nodiscard]] std::string steal_since(const StealReading& from);
/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] int online_cpus();

/// A wall/CPU stopwatch reading taken at one instant.
struct Stamp {
  double wall = 0.0;
  double cpu = 0.0;
  [[nodiscard]] static Stamp now() { return {wall_s(), cpu_s()}; }
};

/// Median; 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0,1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Traced run: where to write the Chrome trace (empty: not written).
  std::string trace_out;
};

/// Metric names and units the final JSON line carries, in BENCHMARK.json
/// order. The untraced run's JSON carries exactly kEndToEnd, the traced
/// run's exactly kPerLayer. kWallLatency metrics are printed as lines by
/// the untraced run but stay out of the JSON (see README: on a shared
/// host they swing between minutes-long regimes; their CPU pairs carry
/// the bound).
struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kWallLatency;
extern const std::vector<MetricDef> kPerLayer;

/// Collects one run's metrics and outcome counts and prints them: one
/// human-readable line per metric (value, unit, sample count), then the
/// JSON result as the last line of stdout.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// Record a metric measured from `samples` observations.
  void metric(const std::string& name, double value, std::size_t samples);
  /// Tail of a latency sample, printed for reading only: the highest of
  /// p90/p99 with at least ten samples beyond it.
  void tail(const std::string& name, const std::vector<double>& samples,
            const std::string& unit);
  /// Free-form info line ("# ..."), e.g. provenance or derived figures.
  void info(const std::string& line);

  /// One attempted operation (checkpoint, restart, recovery or job) and
  /// whether it succeeded and checked out.
  void attempt(bool ok, const std::string& what);

  /// Print every metric line and the final JSON line; returns the process
  /// exit code (nonzero on any failure or mismatch).
  int finish();

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::size_t samples = 0;
  };
  bool trace_;
  std::vector<Entry> entries_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> problems_;
};

/// Exit with a message when a workload's long-lived threads (tasks plus
/// scheduler workers) would exceed nproc - 1: one core stays free for the
/// streamer's per-round workers, so the benchmark measures the program
/// and not the OS scheduler.
void require_thread_budget(const std::string& workload, int long_lived);

/// splitmix64 mix of `seed` and `salt`: independent seeded streams.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
