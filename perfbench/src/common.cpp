#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},          {"ckpt_cpu_ms", "ms"},
    {"restart_cpu_ms", "ms"},  {"recover_cpu_ms", "ms"},
    {"job_cpu_s", "s"},        {"stored_per_state", "ratio"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kWallLatency = {
    {"ckpt_ms_p50", "ms"},
    {"restart_ms_p50", "ms"},
    {"recover_ms_p50", "ms"},
    {"job_s_p50", "s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"rt.launch_ms", "ms"},
    {"rt.join_ms", "ms"},
    {"rt.barrier_us", "us"},
    {"core.ckpt_self_ms", "ms"},
    {"core.restore_self_ms", "ms"},
    {"core.rounds", "count"},
    {"core.exchange_gbps", "GB/s"},
    {"core.gather_gbps", "GB/s"},
    {"core.scatter_gbps", "GB/s"},
    {"core.dirty_frac", "ratio"},
    {"core.chain_depth", "count"},
    {"support.crc_gbps", "GB/s"},
    {"support.encode_gbps", "GB/s"},
    {"support.decode_gbps", "GB/s"},
    {"support.codec_ratio", "ratio"},
    {"store.write_ops", "count"},
    {"store.write_mb", "MB"},
    {"store.write_ms", "ms"},
    {"store.read_ops", "count"},
    {"store.read_mb", "MB"},
    {"store.read_ms", "ms"},
    {"store.ns_ops", "count"},
    {"store.slow.write_mb", "MB"},
    {"store.slow.read_mb", "MB"},
    {"store.drain_ms", "ms"},
    {"store.encode_ms", "ms"},
    {"store.drain_mb", "MB"},
    {"svc.items", "count"},
    {"svc.failed", "count"},
    {"svc.queue_wait_ms", "ms"},
    {"svc.barrier_ms", "ms"},
    {"recovery.detect_ms", "ms"},
    {"recovery.select_ms", "ms"},
    {"recovery.verify_ms", "ms"},
    {"recovery.reconfigure_ms", "ms"},
    {"recovery.resume_ms", "ms"},
    {"recovery.scavenge_ms", "ms"},
    {"recovery.partial_frac", "ratio"},
    {"recovery.restore_mb", "MB"},
    {"apps.iter_ms", "ms"},
    {"obs.overhead_frac", "ratio"},
    {"obs.residual_frac", "ratio"},
};

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

StealReading read_steal() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  StealReading r;
  stat >> cpu;  // aggregate line: user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && stat; ++field) {
    double v = 0.0;
    stat >> v;
    r.total += v;
    if (field == 7) {
      r.steal = v;
    }
  }
  return r;
}

std::string steal_since(const StealReading& from) {
  const StealReading now = read_steal();
  const double total = now.total - from.total;
  const double pct =
      total > 0.0 ? 100.0 * (now.steal - from.steal) / total : 0.0;
  std::ostringstream line;
  line << "# host steal " << pct << "% of CPU time during measurement";
  return line.str();
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return CPU_COUNT(&set);
  }
  return 1;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double x : v) {
    sum += x;
  }
  return sum / static_cast<double>(v.size());
}

namespace {

const char* unit_of(const std::string& name) {
  for (const auto* list : {&kEndToEnd, &kWallLatency, &kPerLayer}) {
    for (const MetricDef& d : *list) {
      if (name == d.name) {
        return d.unit;
      }
    }
  }
  return "";
}

/// Full-precision JSON number ("%.17g"; non-finite values print as 0 and
/// are flagged by the caller as a problem).
std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    std::size_t samples) {
  entries_.push_back({name, value, samples});
}

void Report::tail(const std::string& name, const std::vector<double>& samples,
                  const std::string& unit) {
  const std::size_t n = samples.size();
  std::ostringstream line;
  line << "# tail " << name << ": ";
  if (n >= 1000) {
    line << "p99 " << quantile(samples, 0.99) << " " << unit;
  } else if (n >= 100) {
    line << "p90 " << quantile(samples, 0.90) << " " << unit;
  } else {
    line << "no percentile above p50 has ten samples beyond it";
  }
  line << " (n=" << n << ")";
  info(line.str());
}

void Report::info(const std::string& line) { std::cout << line << "\n"; }

void Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    problems_.push_back(what);
  }
}

int Report::finish() {
  const std::vector<MetricDef>& wanted = trace_ ? kPerLayer : kEndToEnd;
  std::map<std::string, const Entry*> by_name;
  for (const Entry& e : entries_) {
    by_name[e.name] = &e;
    const bool wall = std::any_of(
        kWallLatency.begin(), kWallLatency.end(),
        [&](const MetricDef& d) { return e.name == d.name; });
    std::cout << (trace_ ? "layer " : wall ? "wall " : "metric ") << e.name
              << " = " << json_number(e.value) << " " << unit_of(e.name)
              << " (n=" << e.samples << ")"
              << (wall ? " reported, not bounded" : "") << "\n";
  }
  bool complete = true;
  std::vector<MetricDef> printed = wanted;
  if (!trace_) {
    printed.insert(printed.end(), kWallLatency.begin(), kWallLatency.end());
  }
  for (const MetricDef& d : printed) {
    const auto it = by_name.find(d.name);
    if (it == by_name.end() || !std::isfinite(it->second->value)) {
      std::cout << "# missing or non-finite metric: " << d.name << "\n";
      complete = false;
    }
  }
  for (const std::string& p : problems_) {
    std::cout << "# FAILED: " << p << "\n";
  }
  const double frac = attempted_ == 0 ? 1.0
                                      : static_cast<double>(failed_) /
                                            static_cast<double>(attempted_);
  std::cout << "# fail_frac = " << json_number(frac) << " ratio (" << failed_
            << " of " << attempted_ << " operations)\n";

  const bool correct = failed_ == 0 && attempted_ > 0 && complete;
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : wanted) {
    const auto it = by_name.find(d.name);
    const double v = it == by_name.end() ? 0.0 : it->second->value;
    js << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
       << json_number(v) << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}

void require_thread_budget(const std::string& workload, int long_lived) {
  const int cpus = online_cpus();
  if (long_lived > cpus - 1) {
    std::cerr << "perfbench: workload '" << workload << "' keeps "
              << long_lived << " long-lived threads but nproc is " << cpus
              << "; it needs at least " << long_lived + 1
              << " CPUs (nproc - 1 threads, one core left for the "
                 "streamer's per-round workers)\n";
    std::exit(2);
  }
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
