// drms_tool — operator command line for checkpoint stores that have been
// exported to a host directory (piofs::Volume::export_to_directory): the
// workflow behind the paper's checkpoint-migration story.
//
//   drms_tool list   <dir>                 inventory of checkpointed states
//   drms_tool verify [--deep] <dir> [prefix]
//                                          offline integrity check. Default:
//                                          structural (manifest, sizes,
//                                          headers). --deep: read every byte
//                                          back against the stored CRCs
//                                          (segment sized-CRC record, meta
//                                          manifest CRC, array stream CRCs)
//   drms_tool remove <dir> <prefix>        delete one state and re-export
//   drms_tool info   <dir> <prefix>        per-array detail of one state
//                                          (verifies the stored CRCs)
//   drms_tool info --restart-plan <slot> <dir> <prefix>
//                                          per-array stream runs a partial
//                                          restart would read to replace
//                                          the given lost slot (canonical
//                                          block distribution over the
//                                          checkpoint's task count), vs
//                                          the full-restore byte count
//   drms_tool export <dir> <prefix> <dst>  copy one verified state to a
//                                          fresh directory (migration)
//   drms_tool fsck   <dir> [prefix]        report committed vs torn states
//                                          (a torn state crashed before its
//                                          commit manifest was published)
//   drms_tool gc     [--dry-run] <dir> [prefix]
//                                          reclaim torn states' files and
//                                          re-export the directory.
//                                          --dry-run: report what would be
//                                          reclaimed (torn states, stray
//                                          files, and committed generations
//                                          superseded by a newer one of the
//                                          same app) without deleting
//   drms_tool trace  <dir> <prefix>        run a traced integrity pass over
//                                          one state and emit the Chrome
//                                          trace_event JSON on stdout
//   drms_tool stats  <dir> [prefix]        same pass, but print the flat
//                                          counter/latency table instead
//   drms_tool adapt  <trace.json>          replay a failure/checkpoint
//                                          trace (sim::FailureTrace JSON)
//                                          through the adaptive interval
//                                          controller and print the
//                                          estimator state plus the
//                                          recommended checkpoint interval
//
// Exit code 0 on success; 2 on bad usage (unknown subcommand or missing
// arguments); 1 on a missing state or a failed CRC verification — info
// and export refuse to bless a corrupt state — or, for fsck, when any
// torn state is found, or for adapt, when the trace file is unreadable
// or malformed.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "core/checkpoint_catalog.hpp"
#include "core/dist_spec.hpp"
#include "core/partial_restore.hpp"
#include "obs/instrumented_backend.hpp"
#include "obs/recorder.hpp"
#include "obs/trace_export.hpp"
#include "piofs/volume.hpp"
#include "sim/failure_trace.hpp"
#include "store/piofs_backend.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace {

using namespace drms;

int usage() {
  std::cerr
      << "usage: drms_tool <command> <directory> [args]\n"
         "  list   <dir>                 list checkpointed states\n"
         "  verify [--deep] <dir> [prefix]\n"
         "                               verify integrity (all or one);\n"
         "                               --deep reads every byte back "
         "against\n"
         "                               the stored CRCs\n"
         "  remove <dir> <prefix>        delete a state, rewrite the dir\n"
         "  info   <dir> <prefix>        show per-array details (verifies "
         "CRCs)\n"
         "  info --restart-plan <slot> <dir> <prefix>\n"
         "                               stream runs a partial restart "
         "reads\n"
         "                               to replace the lost slot vs the "
         "full-\n"
         "                               restore bytes\n"
         "  export <dir> <prefix> <dst>  copy one verified state to <dst>\n"
         "  fsck   <dir> [prefix]        report committed vs torn states\n"
         "  gc     [--dry-run] <dir> [prefix]\n"
         "                               reclaim torn states' files;\n"
         "                               --dry-run reports reclaimable "
         "torn/\n"
         "                               superseded states without "
         "deleting\n"
         "  trace  <dir> <prefix>        traced integrity pass -> Chrome "
         "trace JSON\n"
         "  stats  <dir> [prefix]        traced integrity pass -> stats "
         "table\n"
         "  adapt  <trace.json>          replay a failure trace through "
         "the\n"
         "                               adaptive interval controller\n";
  return 2;
}

/// The tool's working store: a host directory imported into a volume,
/// accessed through the storage-backend interface like every other
/// consumer of checkpoint data.
struct ToolStore {
  piofs::Volume volume;
  store::PiofsBackend backend;

  explicit ToolStore(const std::string& dir) : volume(16), backend(volume) {
    volume.import_from_directory(dir, "");
  }
};

/// Run the offline verifier on one state and print any problems.
/// Returns true when every stored CRC and size checks out.
bool verify_and_report(const ToolStore& st, const core::CheckpointRecord& r) {
  const auto result = core::verify_checkpoint(st.backend, r);
  for (const auto& problem : result.problems) {
    std::cerr << "    " << problem << "\n";
  }
  return result.ok;
}

int cmd_list(const std::string& dir) {
  const ToolStore st(dir);
  const auto records = core::list_checkpoints(st.backend);
  if (records.empty()) {
    std::cout << "no checkpointed states in " << dir << "\n";
    return 0;
  }
  support::TextTable table(
      {"prefix", "app", "mode", "tasks", "sop", "arrays", "size"});
  for (const auto& r : records) {
    table.add_row({r.prefix, r.meta.app_name, r.spmd ? "SPMD" : "DRMS",
                   std::to_string(r.meta.task_count),
                   std::to_string(r.meta.sop),
                   std::to_string(r.meta.arrays.size()),
                   support::format_bytes(r.state_bytes)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_verify(const std::string& dir, const std::string& prefix, bool deep) {
  const ToolStore st(dir);
  const auto records = core::list_checkpoints(st.backend, prefix);
  if (records.empty()) {
    std::cerr << "no states" << (prefix.empty() ? "" : " under " + prefix)
              << " in " << dir << "\n";
    return 1;
  }
  bool all_ok = true;
  for (const auto& r : records) {
    const auto result = core::verify_checkpoint(st.backend, r, deep);
    std::cout << r.prefix << ": "
              << (result.ok ? "OK" : "CORRUPT") << "\n";
    for (const auto& problem : result.problems) {
      std::cout << "    " << problem << "\n";
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}

int cmd_remove(const std::string& dir, const std::string& prefix) {
  ToolStore st(dir);
  bool removed = false;
  for (const auto& r : core::list_checkpoints(st.backend, prefix)) {
    if (r.prefix == prefix) {
      core::remove_checkpoint(st.backend, r);
      removed = true;
    }
  }
  if (!removed) {
    std::cerr << "no state with prefix '" << prefix << "'\n";
    return 1;
  }
  // Rewrite the directory to reflect the volume.
  std::filesystem::remove_all(dir);
  st.volume.export_to_directory("", dir);
  std::cout << "removed " << prefix << "\n";
  return 0;
}

int cmd_info(const std::string& dir, const std::string& prefix) {
  const ToolStore st(dir);
  for (const auto& r : core::list_checkpoints(st.backend, prefix)) {
    if (r.prefix != prefix) {
      continue;
    }
    const bool delta = r.meta.kind == core::GenerationKind::kDelta;
    std::cout << "prefix:  " << r.prefix << "\n"
              << "app:     " << r.meta.app_name << "\n"
              << "mode:    " << (r.spmd ? "SPMD" : "DRMS") << "\n"
              << "kind:    " << core::to_string(r.meta.kind) << "\n";
    if (delta) {
      std::cout << "base:    " << r.meta.base_prefix << "\n"
                << "chain:   depth " << r.meta.chain_depth << " (block "
                << support::format_bytes(r.meta.delta_block_bytes) << ")\n";
    }
    std::cout << "tasks:   " << r.meta.task_count << "\n"
              << "sop:     " << r.meta.sop << "\n"
              << "segment: " << support::format_bytes(r.meta.segment_bytes)
              << "\n";
    if (!r.meta.arrays.empty() && delta) {
      std::uint64_t raw_total = 0;
      std::uint64_t stored_total = 0;
      support::TextTable table(
          {"array", "index space", "blocks", "raw", "stored", "ratio"});
      for (const auto& a : r.meta.arrays) {
        raw_total += a.raw_bytes;
        stored_total += a.stored_bytes;
        table.add_row(
            {a.name, a.box().to_string(),
             std::to_string(a.dirty_blocks) + "/" +
                 std::to_string(a.total_blocks),
             support::format_bytes(a.raw_bytes),
             support::format_bytes(a.stored_bytes),
             a.stored_bytes == 0
                 ? "-"
                 : support::format_fixed(
                       static_cast<double>(a.raw_bytes) /
                           static_cast<double>(a.stored_bytes),
                       2) + ":1"});
      }
      table.print(std::cout);
      std::cout << "compression: "
                << support::format_bytes(raw_total) << " raw -> "
                << support::format_bytes(stored_total) << " stored";
      if (stored_total > 0) {
        std::cout << " ("
                  << support::format_fixed(static_cast<double>(raw_total) /
                                               static_cast<double>(
                                                   stored_total),
                                           2)
                  << ":1)";
      }
      std::cout << "\n";
    } else if (!r.meta.arrays.empty()) {
      support::TextTable table({"array", "index space", "bytes", "crc"});
      for (const auto& a : r.meta.arrays) {
        table.add_row({a.name, a.box().to_string(),
                       support::format_bytes(a.stream_bytes),
                       support::format_fixed(a.stream_crc, 0)});
      }
      table.print(std::cout);
    }
    // The displayed CRCs are only trustworthy if the file contents still
    // match them.
    const bool ok = verify_and_report(st, r);
    std::cout << "integrity: " << (ok ? "OK" : "CORRUPT") << "\n";
    return ok ? 0 : 1;
  }
  std::cerr << "no state with prefix '" << prefix << "'\n";
  return 1;
}

/// What a partial restart would read to replace one lost slot: the
/// slot's assigned sections under the canonical block distribution over
/// the checkpoint's own task count, decomposed into stream-contiguous
/// byte runs of each array file. The point of the report is the ratio —
/// a replacement slot reads ~1/t1 of the state, not all of it.
int cmd_restart_plan(const std::string& dir, const std::string& prefix,
                     int lost_slot) {
  const ToolStore st(dir);
  for (const auto& r : core::list_checkpoints(st.backend, prefix)) {
    if (r.prefix != prefix) {
      continue;
    }
    if (r.spmd) {
      std::cerr << prefix
                << ": SPMD states restore whole per-task files — no "
                   "partial plan\n";
      return 1;
    }
    if (lost_slot < 0 || lost_slot >= r.meta.task_count) {
      std::cerr << "lost slot " << lost_slot << " out of range (t1 = "
                << r.meta.task_count << ")\n";
      return 2;
    }
    std::cout << "restart plan: " << prefix << ", lost slot " << lost_slot
              << " of " << r.meta.task_count
              << " (canonical block distribution)\n";
    if (r.meta.kind == core::GenerationKind::kDelta) {
      std::cout << "delta generation (chain depth " << r.meta.chain_depth
                << "): run offsets address the reconstructed stream — each "
                   "byte is read once, from the newest chain link that "
                   "holds it: the newest blocks touching the ranges, and "
                   "the base's runs no delta holds\n";
    }
    std::uint64_t partial_total = 0;
    std::uint64_t full_total = 0;
    support::TextTable table({"array", "section", "runs", "partial",
                              "full stream", "first byte ranges"});
    for (const auto& a : r.meta.arrays) {
      const core::Slice box = a.box();
      const core::DistSpec spec = core::DistSpec::block_auto(
          box, r.meta.task_count,
          std::vector<core::Index>(static_cast<std::size_t>(box.rank()), 0));
      const core::Slice section = spec.assigned(lost_slot);
      const auto runs = core::stream_runs(box, section, a.elem_size);
      std::uint64_t bytes = 0;
      std::string ranges;
      for (std::size_t i = 0; i < runs.size(); ++i) {
        bytes += runs[i].bytes;
        if (i < 3) {
          if (i > 0) {
            ranges += ' ';
          }
          ranges += '[';
          ranges += std::to_string(runs[i].byte_offset);
          ranges += ',';
          ranges += std::to_string(runs[i].byte_offset + runs[i].bytes);
          ranges += ')';
        } else if (i == 3) {
          ranges += " ...";
        }
      }
      const std::uint64_t full_bytes =
          static_cast<std::uint64_t>(box.element_count()) * a.elem_size;
      partial_total += bytes;
      full_total += full_bytes;
      table.add_row({a.name, section.to_string(),
                     std::to_string(runs.size()),
                     support::format_bytes(bytes),
                     support::format_bytes(full_bytes), ranges});
    }
    table.print(std::cout);
    std::cout << "total: " << support::format_bytes(partial_total) << " of "
              << support::format_bytes(full_total);
    if (full_total > 0) {
      std::cout << " ("
                << support::format_fixed(100.0 *
                                             static_cast<double>(
                                                 partial_total) /
                                             static_cast<double>(full_total),
                                         1)
                << "%)";
    }
    std::cout << "; plus the replicated segment ("
              << support::format_bytes(r.meta.segment_bytes)
              << ") every restart reads\n";
    return 0;
  }
  std::cerr << "no state with prefix '" << prefix << "'\n";
  return 1;
}

int cmd_export(const std::string& dir, const std::string& prefix,
               const std::string& dst) {
  const ToolStore st(dir);
  for (const auto& r : core::list_checkpoints(st.backend, prefix)) {
    if (r.prefix != prefix) {
      continue;
    }
    // Never migrate a state that fails its own fingerprints.
    if (!verify_and_report(st, r)) {
      std::cerr << prefix << ": CORRUPT — not exported\n";
      return 1;
    }
    st.volume.export_to_directory(prefix, dst);
    std::cout << "exported " << prefix << " to " << dst << "\n";
    return 0;
  }
  std::cerr << "no state with prefix '" << prefix << "'\n";
  return 1;
}

int cmd_fsck(const std::string& dir, const std::string& prefix) {
  const ToolStore st(dir);
  const auto states = core::fsck_scan(st.backend, prefix);
  if (states.empty()) {
    std::cout << "no checkpointed states"
              << (prefix.empty() ? "" : " under " + prefix) << " in " << dir
              << "\n";
    return 0;
  }
  support::TextTable table(
      {"prefix", "mode", "status", "fragments", "reclaimable"});
  int torn = 0;
  for (const auto& s : states) {
    int sets_ok = 0;
    for (const auto& fs : s.fragment_sets) {
      if (fs.recoverable) {
        ++sets_ok;
      }
    }
    const std::string frag_cell =
        s.fragment_sets.empty()
            ? "-"
            : std::to_string(sets_ok) + "/" +
                  std::to_string(s.fragment_sets.size()) + " sets";
    table.add_row({s.prefix, s.spmd ? "SPMD" : "DRMS",
                   s.committed   ? "committed"
                   : s.encoded_only ? "encoded"
                                    : "TORN",
                   frag_cell, support::format_bytes(s.reclaimable_bytes)});
    // An encoded-only state is healthy while every fragment set is
    // scavengeable; a set beyond tolerance is as fatal as a torn state.
    if ((!s.committed && !s.encoded_only) ||
        sets_ok != static_cast<int>(s.fragment_sets.size())) {
      ++torn;
    }
  }
  table.print(std::cout);
  for (const auto& s : states) {
    for (const auto& p : s.problems) {
      std::cout << "  " << s.prefix << ": " << p << "\n";
    }
    for (const auto& fs : s.fragment_sets) {
      std::cout << "  " << s.prefix << ": " << fs.base << ": "
                << fs.present << "/" << fs.expected << " fragments"
                << (fs.recoverable ? "" : " (BEYOND TOLERANCE)") << "\n";
    }
  }
  std::cout << torn << " torn state" << (torn == 1 ? "" : "s") << "\n";
  return torn == 0 ? 0 : 1;
}

/// Shared engine of `trace` and `stats`: run the offline verifier over
/// the selected states with an InstrumentedBackend between the catalog
/// code and the store, so every read lands in the recorder. Returns the
/// number of states visited, or -1 when any failed verification.
int traced_verify(ToolStore& st, obs::Recorder& recorder,
                  const std::string& prefix) {
  obs::InstrumentedBackend instrumented(st.backend, &recorder, "piofs");
  const auto records = core::list_checkpoints(instrumented, prefix);
  bool all_ok = true;
  for (const auto& r : records) {
    const auto result = core::verify_checkpoint(instrumented, r);
    for (const auto& problem : result.problems) {
      std::cerr << r.prefix << ": " << problem << "\n";
      all_ok = false;
    }
  }
  return all_ok ? static_cast<int>(records.size()) : -1;
}

int cmd_trace(const std::string& dir, const std::string& prefix) {
  ToolStore st(dir);
  obs::Recorder recorder;
  const int states = traced_verify(st, recorder, prefix);
  if (states == 0) {
    std::cerr << "no state with prefix '" << prefix << "'\n";
    return 1;
  }
  obs::write_chrome_trace(std::cout, recorder);
  return states < 0 ? 1 : 0;
}

int cmd_stats(const std::string& dir, const std::string& prefix) {
  ToolStore st(dir);
  obs::Recorder recorder;
  const int states = traced_verify(st, recorder, prefix);
  if (states == 0) {
    std::cout << "no checkpointed states"
              << (prefix.empty() ? "" : " under " + prefix) << " in " << dir
              << "\n";
    return 0;
  }
  obs::write_stats_table(std::cout, recorder);
  return states < 0 ? 1 : 0;
}

/// `gc --dry-run`: the same scans gc and retention run, reporting only.
/// Torn states and strays are what `gc` itself would reclaim; committed
/// generations superseded by a newer committed generation of the same
/// application are what retention (keep-newest) could retire.
int cmd_gc_dry_run(const ToolStore& st, const std::string& prefix) {
  support::TextTable table({"prefix", "status", "files", "reclaimable"});
  int torn_files = 0;
  std::uint64_t torn_bytes = 0;
  for (const auto& s : core::fsck_scan(st.backend, prefix)) {
    if (s.reclaimable.empty()) {
      continue;
    }
    table.add_row({s.prefix, s.committed ? "committed (strays)" : "TORN",
                   std::to_string(s.reclaimable.size()),
                   support::format_bytes(s.reclaimable_bytes)});
    torn_files += static_cast<int>(s.reclaimable.size());
    torn_bytes += s.reclaimable_bytes;
  }
  // Superseded committed generations: restart_candidates is SOP
  // descending per application, so every committed record past the
  // newest one has a newer fallback above it.
  int superseded = 0;
  std::uint64_t superseded_bytes = 0;
  std::vector<std::string> apps;
  for (const auto& r : core::list_checkpoints(st.backend, prefix)) {
    if (std::find(apps.begin(), apps.end(), r.meta.app_name) == apps.end()) {
      apps.push_back(r.meta.app_name);
    }
  }
  for (const auto& app : apps) {
    const auto candidates = core::restart_candidates(st.backend, app, prefix);
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      table.add_row({candidates[i].prefix, "superseded", "-",
                     support::format_bytes(candidates[i].state_bytes)});
      ++superseded;
      superseded_bytes += candidates[i].state_bytes;
    }
  }
  if (torn_files > 0 || superseded > 0) {
    table.print(std::cout);
  }
  std::cout << "gc would reclaim " << torn_files << " file"
            << (torn_files == 1 ? "" : "s") << " ("
            << support::format_bytes(torn_bytes) << "); " << superseded
            << " superseded state" << (superseded == 1 ? "" : "s") << " ("
            << support::format_bytes(superseded_bytes)
            << ") eligible for retention; nothing deleted\n";
  return 0;
}

int cmd_gc(const std::string& dir, const std::string& prefix, bool dry_run) {
  ToolStore st(dir);
  if (dry_run) {
    return cmd_gc_dry_run(st, prefix);
  }
  const int removed = core::gc_torn_states(st.backend, prefix);
  if (removed > 0) {
    std::filesystem::remove_all(dir);
    st.volume.export_to_directory("", dir);
  }
  std::cout << "reclaimed " << removed << " file" << (removed == 1 ? "" : "s")
            << "\n";
  return 0;
}

/// Replay a sim::FailureTrace file through the adaptive controller and
/// print where the estimators ended up — "what interval would the
/// controller recommend for the failure history in this file?"
int cmd_adapt(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open trace file '" << path << "'\n";
    return 1;
  }
  const sim::FailureTrace trace = sim::FailureTrace::parse_json(in);

  adapt::ControllerOptions copts;
  if (trace.fixed_interval_seconds > 0.0) {
    copts.fixed_interval_seconds = trace.fixed_interval_seconds;
  }
  adapt::IntervalController controller(copts);
  double now = 0.0;
  for (const sim::TraceEvent& ev : trace.events) {
    now = std::max(now, ev.t_seconds);
    if (ev.kind == sim::TraceEvent::Kind::kFailure) {
      controller.record_failure(ev.t_seconds);
    } else {
      const adapt::CostKind kind = ev.generation == "delta"
                                       ? adapt::CostKind::kDelta
                                       : adapt::CostKind::kFull;
      controller.observe_cost(kind, ev.cost_seconds, ev.t_seconds);
    }
  }
  const adapt::ControllerState st = controller.state(now);

  std::cout << "trace: " << path << "\n"
            << "  events " << trace.events.size() << " (failures "
            << trace.failure_count() << ", checkpoints "
            << trace.checkpoint_count() << "), horizon "
            << support::format_fixed(trace.horizon_seconds(), 1) << " s\n\n";
  support::TextTable table({"estimator", "value"});
  table.add_row({"failures observed", std::to_string(st.failures)});
  table.add_row({"mean failure gap",
                 support::format_fixed(st.mean_gap_seconds, 1) + " s"});
  table.add_row({"full checkpoints",
                 std::to_string(st.full_samples) + " x " +
                     support::format_fixed(st.full_cost_seconds, 2) + " s"});
  table.add_row({"delta checkpoints",
                 std::to_string(st.delta_samples) + " x " +
                     support::format_fixed(st.delta_cost_seconds, 2) + " s"});
  table.add_row({"amortized cost",
                 support::format_fixed(st.amortized_cost_seconds, 2) + " s"});
  table.add_row({"young target",
                 support::format_fixed(st.target_interval_seconds, 1) +
                     " s"});
  table.add_row({"applied interval",
                 support::format_fixed(st.applied_interval_seconds, 1) +
                     " s"});
  table.add_row({"mode", st.degraded
                             ? "degraded (" + st.degraded_reason + ")"
                             : "healthy"});
  table.print(std::cout);
  std::cout << "\nrecommended interval: "
            << support::format_fixed(st.interval_seconds, 1) << " s"
            << (st.degraded ? " (fixed fallback)" : "") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return usage();
  }
  const std::string command = argv[1];
  // `verify` takes an optional --deep flag before the directory, `gc` an
  // optional --dry-run, `info` an optional --restart-plan <slot>.
  bool deep = false;
  bool dry_run = false;
  bool restart_plan = false;
  int lost_slot = -1;
  int arg = 2;
  if (command == "verify" && std::string(argv[arg]) == "--deep") {
    deep = true;
    ++arg;
    if (argc <= arg) {
      return usage();
    }
  }
  if (command == "info" && std::string(argv[arg]) == "--restart-plan") {
    restart_plan = true;
    ++arg;
    if (argc <= arg + 2) {  // need <slot> <dir> <prefix>
      return usage();
    }
    try {
      lost_slot = std::stoi(argv[arg]);
    } catch (const std::exception&) {
      return usage();
    }
    ++arg;
  }
  if (command == "gc" && std::string(argv[arg]) == "--dry-run") {
    dry_run = true;
    ++arg;
    if (argc <= arg) {
      return usage();
    }
  }
  const std::string dir = argv[arg];
  try {
    if (command == "adapt") {
      return cmd_adapt(dir);
    }
    if (command == "list") {
      return cmd_list(dir);
    }
    if (command == "verify") {
      return cmd_verify(dir, argc > arg + 1 ? argv[arg + 1] : "", deep);
    }
    if (command == "remove" && argc > 3) {
      return cmd_remove(dir, argv[3]);
    }
    if (command == "info" && restart_plan) {
      return cmd_restart_plan(dir, argv[arg + 1], lost_slot);
    }
    if (command == "info" && argc > 3) {
      return cmd_info(dir, argv[3]);
    }
    if (command == "export" && argc > 4) {
      return cmd_export(dir, argv[3], argv[4]);
    }
    if (command == "fsck") {
      return cmd_fsck(dir, argc > 3 ? argv[3] : "");
    }
    if (command == "gc") {
      return cmd_gc(dir, argc > arg + 1 ? argv[arg + 1] : "", dry_run);
    }
    if (command == "trace" && argc > 3) {
      return cmd_trace(dir, argv[3]);
    }
    if (command == "stats") {
      return cmd_stats(dir, argc > 3 ? argv[3] : "");
    }
  } catch (const drms::support::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
