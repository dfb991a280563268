// Multi-tenant contention benchmark — the checkpoint service's gate.
//
// Four concurrent jobs checkpoint through one IoScheduler against each
// storage backend (memory / piofs / tiered). Two schedulings of the SAME
// submission stream are compared:
//
//   serialized   shard_count=1 — every tenant funnels through one server
//                queue (the pre-service drain model: one volume lock, one
//                background sweep)
//   sharded      shard_count=4 — independent jobs land on independent
//                server queues
//
// All quantities come from the scheduler's DETERMINISTIC virtual-time
// queueing model (each shard prices the items it dequeues at their
// cost-model service seconds): aggregate throughput is total bytes over
// makespan, queue waits are virtual start minus arrival. Reproducible
// across runs and machines, and unaffected by host core count — which is
// the point, since wall-clock speedups are meaningless on a single-core
// CI box.
//
// A second experiment queues RESTORE-class reads against a backlog of
// DRAIN-class tier traffic (the tiered scenario drains real dirty files
// through svc::submit_drain) and checks the p99 restore queue-wait with
// drains active against the drain-free baseline: priority dequeueing
// must keep restores ahead of background traffic.
//
// Writes BENCH_contention.json. Exit status 1 when any backend's sharded
// speedup falls below 2x, or the restore p99 regresses when drains are
// queued. --quick shrinks the per-job item count for the CI smoke.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "json_writer.hpp"
#include "piofs/volume.hpp"
#include "sim/cost_model.hpp"
#include "store/memory_backend.hpp"
#include "store/piofs_backend.hpp"
#include "store/storage_backend.hpp"
#include "store/tiered_backend.hpp"
#include "support/table.hpp"
#include "support/units.hpp"
#include "svc/drain_service.hpp"
#include "svc/io_scheduler.hpp"

namespace {

using namespace drms;
using svc::IoScheduler;
using svc::JobToken;
using svc::Priority;

constexpr int kJobs = 4;
constexpr std::uint64_t kBytesPerItem = 256 * 1024;

/// One storage under test. Owns whatever tiers/volumes back it, all
/// timed by the paper-calibrated cost model so service seconds are
/// non-trivial and identical across runs.
struct Rig {
  std::string name;
  store::StorageBackend* storage = nullptr;
  store::TieredBackend* tiered = nullptr;  // non-null for the tiered rig

  sim::CostModel cost = sim::CostModel::paper_sp16();
  piofs::Volume volume{16};
  std::unique_ptr<store::MemoryBackend> memory;
  std::unique_ptr<store::PiofsBackend> piofs_backend;
  std::unique_ptr<store::TieredBackend> tiered_backend;
};

std::unique_ptr<Rig> make_rig(const std::string& kind) {
  auto rig = std::make_unique<Rig>();
  rig->name = kind;
  if (kind == "memory") {
    rig->memory = std::make_unique<store::MemoryBackend>(0, &rig->cost);
    rig->storage = rig->memory.get();
  } else if (kind == "piofs") {
    rig->piofs_backend =
        std::make_unique<store::PiofsBackend>(rig->volume, &rig->cost);
    rig->storage = rig->piofs_backend.get();
  } else {  // tiered
    rig->memory = std::make_unique<store::MemoryBackend>(0, &rig->cost);
    rig->piofs_backend =
        std::make_unique<store::PiofsBackend>(rig->volume, &rig->cost);
    rig->tiered_backend = std::make_unique<store::TieredBackend>(
        *rig->memory, *rig->piofs_backend);
    rig->storage = rig->tiered_backend.get();
    rig->tiered = rig->tiered_backend.get();
  }
  return rig;
}

/// Queue every job's checkpoint writes (real bytes, cost-model service
/// seconds) on a fresh `kind` rig behind `shards` server queues and
/// return the virtual makespan once the queue runs dry.
double run_write_storm(const std::string& kind, int shards,
                       int items_per_job) {
  auto rig = make_rig(kind);
  store::StorageBackend& storage = *rig->storage;
  const std::vector<std::byte> payload(kBytesPerItem, std::byte{0x5d});
  IoScheduler::Options opts;
  opts.shard_count = shards;
  IoScheduler scheduler(opts);
  scheduler.pause();
  std::vector<JobToken> jobs;
  jobs.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    jobs.push_back(scheduler.register_job("job" + std::to_string(j)));
  }
  const double service =
      storage.single_write_seconds(kBytesPerItem, {}, nullptr);
  for (int k = 0; k < items_per_job; ++k) {
    for (int j = 0; j < kJobs; ++j) {
      const std::string file =
          "job" + std::to_string(j) + "/seg" + std::to_string(k);
      scheduler.submit(jobs[j], Priority::kForeground, file, kBytesPerItem,
                       service, [&storage, &payload, file] {
                         storage.create(file).write_at(0, payload);
                       });
    }
  }
  scheduler.resume();
  for (auto& job : jobs) {
    scheduler.barrier(job);
  }
  scheduler.wait_idle();
  return scheduler.makespan_seconds();
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::min(rank == 0 ? 0 : rank - 1, samples.size() - 1)];
}

/// Queue restore-class reads (with a foreground backlog) and return the
/// p99 virtual queue-wait of the restores. When `with_drains`, a DRAIN
/// backlog is queued first — real dirty tiered files via the drain
/// service when the rig is tiered, synthetic drain items otherwise.
double restore_p99(Rig& rig, int items_per_job, bool with_drains) {
  IoScheduler::Options opts;
  opts.shard_count = 4;
  opts.keep_wait_samples = true;
  IoScheduler scheduler(opts);
  scheduler.pause();

  // State to restore, created synchronously before anything queues.
  const std::vector<std::byte> payload(kBytesPerItem, std::byte{0x3c});
  for (int k = 0; k < items_per_job; ++k) {
    rig.storage->create("ck/seg" + std::to_string(k)).write_at(0, payload);
  }

  JobToken drain_job = scheduler.register_job("drainer");
  svc::DrainTicket drain_ticket;
  if (with_drains) {
    if (rig.tiered != nullptr) {
      // The checkpoint writes above left the fast tier dirty: drain the
      // real backlog through the service, one DRAIN item per file.
      drain_ticket = svc::submit_drain(scheduler, drain_job, *rig.tiered);
    } else {
      const double service =
          rig.storage->single_write_seconds(kBytesPerItem, {}, nullptr);
      for (int k = 0; k < 4 * items_per_job; ++k) {
        scheduler.submit(drain_job, Priority::kDrain,
                         "drain" + std::to_string(k), kBytesPerItem, service,
                         [] {});
      }
    }
  }

  // The contending tenants: a foreground write backlog plus the restore
  // reads whose waits are under test.
  std::vector<JobToken> jobs;
  for (int j = 0; j < kJobs; ++j) {
    jobs.push_back(scheduler.register_job("job" + std::to_string(j)));
  }
  const double write_service =
      rig.storage->single_write_seconds(kBytesPerItem, {}, nullptr);
  const double read_service =
      rig.storage->private_read_seconds(kBytesPerItem, 1, {}, nullptr);
  for (int k = 0; k < items_per_job; ++k) {
    for (int j = 0; j < kJobs; ++j) {
      const std::string file =
          "fg" + std::to_string(j) + "/seg" + std::to_string(k);
      scheduler.submit(jobs[j], Priority::kForeground, file, kBytesPerItem,
                       write_service, [&rig, &payload, file] {
                         rig.storage->create(file).write_at(0, payload);
                       });
    }
    const std::string ck = "ck/seg" + std::to_string(k);
    scheduler.submit(jobs[k % kJobs], Priority::kRestore, ck, kBytesPerItem,
                     read_service, [&rig, ck] {
                       (void)rig.storage->open(ck).read_at(0, kBytesPerItem);
                     });
  }

  scheduler.resume();
  scheduler.wait_idle();
  if (with_drains && rig.tiered != nullptr) {
    (void)drain_ticket.wait();
  }
  return percentile(scheduler.wait_samples(Priority::kRestore), 0.99);
}

struct ScenarioResult {
  std::string backend;
  double serialized_makespan = 0.0;
  double sharded_makespan = 0.0;
  double speedup = 0.0;
  double restore_p99_quiet = 0.0;
  double restore_p99_drains = 0.0;
  bool pass_speedup = false;
  bool pass_restore = false;
};

ScenarioResult run_scenario(const std::string& kind, int items_per_job) {
  ScenarioResult result;
  result.backend = kind;

  result.serialized_makespan = run_write_storm(kind, 1, items_per_job);
  result.sharded_makespan = run_write_storm(kind, kJobs, items_per_job);
  result.speedup = result.sharded_makespan > 0.0
                       ? result.serialized_makespan / result.sharded_makespan
                       : 0.0;
  result.pass_speedup = result.speedup >= 2.0;

  {
    auto rig = make_rig(kind);
    result.restore_p99_quiet = restore_p99(*rig, items_per_job, false);
  }
  {
    auto rig = make_rig(kind);
    result.restore_p99_drains = restore_p99(*rig, items_per_job, true);
  }
  // Priority dequeueing must keep queued drains out of the restore path:
  // no regression beyond floating-point noise.
  result.pass_restore =
      result.restore_p99_drains <= result.restore_p99_quiet + 1e-9;
  return result;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    }
  }
  const int items_per_job = quick ? 8 : 32;

  std::vector<ScenarioResult> results;
  for (const std::string kind : {"memory", "piofs", "tiered"}) {
    results.push_back(run_scenario(kind, items_per_job));
  }

  std::cout << "Checkpoint-service contention (" << kJobs
            << " jobs x " << items_per_job << " x "
            << support::format_bytes(kBytesPerItem)
            << ", virtual-time model)\n";
  support::TextTable table({"backend", "serialized s", "sharded s", "speedup",
                            "restore p99 quiet", "restore p99 drains",
                            "gate"});
  bool all_pass = true;
  for (const auto& r : results) {
    const bool pass = r.pass_speedup && r.pass_restore;
    all_pass = all_pass && pass;
    table.add_row({r.backend, fmt(r.serialized_makespan),
                   fmt(r.sharded_makespan), fmt(r.speedup),
                   fmt(r.restore_p99_quiet), fmt(r.restore_p99_drains),
                   pass ? "PASS" : "FAIL"});
  }
  table.print(std::cout);

  {
    std::ofstream out("BENCH_contention.json");
    bench::JsonWriter json(out);
    json.begin_object();
    json.field("bench", "contention");
    json.field("quick", quick);
    json.field("jobs", kJobs);
    json.field("items_per_job", items_per_job);
    json.field("bytes_per_item", kBytesPerItem);
    json.field("speedup_gate", 2.0);
    json.begin_array("scenarios");
    for (const auto& r : results) {
      json.begin_object();
      json.field("backend", r.backend);
      json.field("serialized_makespan_s", r.serialized_makespan);
      json.field("sharded_makespan_s", r.sharded_makespan);
      json.field("speedup", r.speedup);
      json.field("restore_p99_quiet_s", r.restore_p99_quiet);
      json.field("restore_p99_drains_s", r.restore_p99_drains);
      json.field("pass_speedup", r.pass_speedup);
      json.field("pass_restore", r.pass_restore);
      json.end_object();
    }
    json.end_array();
    json.field("pass", all_pass);
    json.end_object();
    out << "\n";
  }

  if (!all_pass) {
    std::cerr << "bench_contention: GATE FAILED (speedup < 2x or restore "
                 "p99 regressed with drains active)\n";
    return 1;
  }
  std::cout << "bench_contention: gates passed\n";
  return 0;
}
