// DRMS (reconfigurable) checkpoint engine.
//
// Checkpoint: one representative task writes its data segment (the
// replicated store plus the Table-4 padding components), then all tasks
// cooperatively stream every distributed array to its own
// distribution-independent file. Blocking semantics: the application does
// not continue until the whole state is on the volume.
//
// Restart: every task reads the single segment file (restoring replicated
// variables and the execution context), then — once the new distribution
// is specified — loads its sections of each array. The state is
// independent of the task count, so the restart group may be any size.
#pragma once

#include <span>
#include <string>

#include "core/checkpoint_format.hpp"
#include "core/commit_session.hpp"
#include "core/delta_format.hpp"
#include "core/dist_array.hpp"
#include "core/replicated_store.hpp"
#include "obs/recorder.hpp"
#include "rt/task_context.hpp"
#include "sim/cost_model.hpp"
#include "support/block_codec.hpp"
#include "support/units.hpp"

namespace drms::core {

class ArrayStreamer;

/// Simulated-time components of one checkpoint (Table 6's columns).
struct CheckpointTiming {
  double segment_seconds = 0.0;
  double arrays_seconds = 0.0;
  /// Modeled cost of publishing the meta record + commit manifest (the
  /// two-phase-commit overhead). Reported separately — meta writes have
  /// never been part of the paper's Table 5/6 phase times, so it is NOT
  /// included in total_seconds().
  double commit_seconds = 0.0;
  [[nodiscard]] double total_seconds() const noexcept {
    return segment_seconds + arrays_seconds;
  }
};

/// Policy knobs for block-level delta generations (the §6 memory-exclusion
/// optimization at block granularity). Passed to write() together with a
/// DeltaChainState; without them every generation is a full dump and the
/// on-volume formats are byte-identical to the pre-delta layout.
struct DeltaOptions {
  /// One full generation per `full_every_k` generations (<= 1: always
  /// full). A chain never grows past k - 1 deltas.
  int full_every_k = 4;
  /// Dirty-tracking and storage granularity (stream-order blocks of the
  /// array's element stream).
  std::uint64_t block_bytes = 256 * support::kKiB;
  /// Codec for the dirty blocks' payload; raw fallback per block keeps
  /// stored blocks from ever expanding.
  support::BlockCodec codec = support::BlockCodec::kLz;
};

/// Chain state carried between checkpoints. Owned by the caller
/// (DrmsProgram); write() copies what it needs on every task at its entry
/// barrier and updates it on task 0 only, after the commit. `chain` holds
/// the committed prefixes of the live chain, full base first; empty until
/// the first full generation commits.
struct DeltaChainState {
  std::vector<std::string> chain;
  /// Statistics of the most recent write().
  GenerationKind last_kind = GenerationKind::kFull;
  std::uint64_t last_raw_bytes = 0;
  std::uint64_t last_stored_bytes = 0;
  std::uint64_t last_dirty_blocks = 0;
  std::uint64_t last_total_blocks = 0;
};

/// Simulated-time components of one restart.
struct RestartTiming {
  double init_seconds = 0.0;  // application text load ("other")
  double segment_seconds = 0.0;
  double arrays_seconds = 0.0;
  [[nodiscard]] double total_seconds() const noexcept {
    return init_seconds + segment_seconds + arrays_seconds;
  }
};

class DrmsCheckpoint {
 public:
  /// Timing is charged through `storage`'s primitives; a backend with no
  /// cost model charges nothing (pure-correctness tests).
  /// `io_tasks` bounds the parallel-streaming width (0 = all tasks).
  /// A non-null `recorder` receives per-phase trace spans and retry
  /// counters; recording never charges simulated time.
  DrmsCheckpoint(store::StorageBackend& storage, sim::LoadContext load,
                 int io_tasks = 0,
                 std::uint64_t target_chunk_bytes = support::kMiB,
                 bool jitter = false, obs::Recorder* recorder = nullptr);

  /// COLLECTIVE: write a full checkpoint under `prefix`. `store` is the
  /// calling task's replicated store (task 0's copy is the one saved);
  /// `arrays` are the application's distributed arrays, all distributed.
  ///
  /// With non-null `delta` AND `chain`, the engine writes a DELTA
  /// generation — only the blocks dirtied since the chain's last
  /// generation, run through the codec stage — whenever the live chain is
  /// non-empty, shorter than full_every_k generations, still committed,
  /// and does not contain `prefix` (overwriting a chain member would pull
  /// the base out from under its dependents); otherwise it writes a full
  /// generation that starts a fresh chain.
  CheckpointTiming write(rt::TaskContext& ctx, const std::string& prefix,
                         const std::string& app_name, std::int64_t sop,
                         const ReplicatedStore& store,
                         std::span<DistArray* const> arrays,
                         const AppSegmentModel& segment_model,
                         const DeltaOptions* delta = nullptr,
                         DeltaChainState* chain = nullptr);

  /// COLLECTIVE: restore the data segment — every task reads the shared
  /// segment file and refreshes its replicated variables. Returns the
  /// meta (identical on every task). Includes the restart-initialization
  /// (text load) charge.
  CheckpointMeta restore_segment(rt::TaskContext& ctx,
                                 const std::string& prefix,
                                 ReplicatedStore& store,
                                 const AppSegmentModel& segment_model,
                                 RestartTiming& timing);

  /// COLLECTIVE: load one array's data from the generation `meta`
  /// describes into its (already installed) distribution. `chain` is
  /// that generation's resolve_checkpoint_chain(storage, prefix, meta),
  /// resolved once per restart for all arrays. Adds to
  /// timing.arrays_seconds.
  /// When `meta` names a delta generation, its chain is replayed so that
  /// each stream byte is read once, from the newest link that holds it:
  /// the full base streams in whole (stream CRC checked) only if some
  /// byte is held by no delta, then each delta record that no newer link
  /// fully covers is read, checked against its stored and raw CRCs, and
  /// scattered, oldest link first. Superseded blocks are not read, so
  /// not checked either; verify_checkpoint(deep) walks every link.
  void restore_array(rt::TaskContext& ctx, const CheckpointMeta& meta,
                     const CheckpointChain& chain, DistArray& array,
                     RestartTiming& timing);

  /// COLLECTIVE: load ONLY `sections` (disjoint sub-slices of the array's
  /// global box — a partial restart's lost sections) from the generation
  /// `meta` and `chain` describe (as for restore_array) into the array's
  /// current distribution. The checkpoint file is the column-major
  /// element stream of the global box, so each
  /// section decomposes into stream-contiguous runs read at computed byte
  /// offsets; delta generations read the base's runs that no delta fully
  /// holds, then restore_array's kept blocks that touch the sections (a
  /// block reaching past them lands there too, for the caller to
  /// overwrite). No whole-stream CRC is checkable on a subset read —
  /// callers deep-verify the generation first (the supervisor's verify
  /// phase does); delta blocks keep their per-block CRC checks. Each
  /// reading task reads its runs itself, as restore_array does. Returns
  /// the bytes read from storage (identical on every task) and adds to
  /// timing.arrays_seconds.
  std::uint64_t restore_array_sections(rt::TaskContext& ctx,
                                       const CheckpointMeta& meta,
                                       const CheckpointChain& chain,
                                       DistArray& array,
                                       std::span<const Slice> sections,
                                       RestartTiming& timing);

 private:
  struct GenerationPlan;

  [[nodiscard]] int effective_io_tasks(const rt::TaskContext& ctx) const;
  /// At write()'s entry barrier, on every task: full or delta, and for a
  /// delta its base and each array's dirty blocks.
  [[nodiscard]] GenerationPlan plan_generation(
      const std::string& prefix, std::span<DistArray* const> arrays,
      const DeltaOptions* options, const DeltaChainState* chain) const;
  /// COLLECTIVE: stream one array's dirty blocks into its delta file;
  /// task 0 then publishes the file's index and header. Fills the
  /// array's size and block statistics in `am`.
  void write_delta_array(rt::TaskContext& ctx, const ArrayStreamer& streamer,
                         const std::string& prefix, const DistArray& array,
                         const GenerationPlan& plan, std::size_t index,
                         int writers, ArrayMeta& am);

  store::StorageBackend& storage_;
  sim::LoadContext load_;
  int io_tasks_;
  std::uint64_t target_chunk_bytes_;
  bool jitter_;
  obs::Recorder* recorder_;
  CommitSession session_;
};

}  // namespace drms::core
