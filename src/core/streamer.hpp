// Parallel array section streaming (§3.2, Figure 5).
//
// Output streaming of a section A[x] produces the elements of x in
// column-major order — a distribution-independent representation. The
// section is recursively partitioned in stream order into m chunks
// (~1 MB each, m >= number of I/O tasks); each round redistributes P
// chunks into a canonical distribution (chunk c lives wholly in task
// c mod P) and the P tasks then write their chunks at precomputed stream
// offsets in parallel. Input streaming runs the two phases in reverse.
//
// P = 1 degenerates to serial streaming: chunk offsets are consecutive,
// so the writer only ever appends (no seek capability needed — the stream
// could be a socket or tape, as the paper notes).
//
// Every entry point runs one round pipeline (streamer.cpp, run_rounds):
// in round r, I/O task q carries item r*P + q (a chunk or a delta block)
// through a job on its I/O lane (rt::TaskContext::submit: one worker
// thread per task, jobs in submission order) and a landing step that runs
// on every task in round order. Writes gather round r and submit its job
// before landing round r-1; reads land round r and submit round r+1's
// read before scattering r. The serial forms are the P = 1 case, with the
// channel as the I/O stage. Staging slots are not zero-filled when every
// byte is overwritten before it is read: on every read, and on writes of
// a fully assigned array.
#pragma once

#include <cstdint>
#include <vector>

#include "core/delta_format.hpp"
#include "core/dist_array.hpp"
#include "core/sequential_channel.hpp"
#include "obs/recorder.hpp"
#include "store/storage_backend.hpp"
#include "rt/task_context.hpp"
#include "sim/cost_model.hpp"
#include "support/units.hpp"

namespace drms::core {

/// Stream-order chunking of a section: chunk i occupies bytes
/// [offsets[i], offsets[i] + bytes(chunks[i])) of the element stream.
struct StreamPlan {
  std::vector<Slice> chunks;
  std::vector<std::uint64_t> offsets;  // byte offsets within the stream
  std::uint64_t total_bytes = 0;

  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunks.size();
  }
};

/// Build the chunking used by the streaming operations: at least
/// `io_tasks` chunks (to exploit parallelism), each at most
/// `target_chunk_bytes` (to bound intermediate buffer memory).
[[nodiscard]] StreamPlan make_stream_plan(const Slice& section,
                                          std::size_t elem_size,
                                          int io_tasks,
                                          std::uint64_t target_chunk_bytes);

/// Streaming engine bound to a storage backend (for timing) and load
/// context. The engine is stateless with respect to arrays; one instance
/// per checkpoint/restart operation is typical.
class ArrayStreamer {
 public:
  /// `jitter` enables per-round lognormal timing noise drawn from each
  /// task's deterministic RNG stream (used by the benchmark harness to
  /// reproduce the paper's run-to-run spread). `recorder`, when non-null,
  /// receives per-round trace spans (exchange, in-flight I/O, worker
  /// CRC/write) — recording never touches the simulated clock.
  ArrayStreamer(const store::StorageBackend* storage, sim::LoadContext load,
                std::uint64_t target_chunk_bytes = support::kMiB,
                bool jitter = false, obs::Recorder* recorder = nullptr)
      : storage_(storage),
        load_(load),
        target_chunk_bytes_(target_chunk_bytes),
        jitter_(jitter),
        recorder_(recorder) {}

  /// COLLECTIVE: stream section `x` of `array` out to `file` starting at
  /// byte `file_offset`, with `io_tasks` tasks performing I/O
  /// (1 <= io_tasks <= group size). Returns bytes written (on all tasks).
  /// When `stream_crc` is non-null it receives a CRC-32C over the
  /// chunk-ordered stream contents (identical on every task) — the
  /// integrity fingerprint recorded in checkpoint metadata.
  std::uint64_t write_section(rt::TaskContext& ctx, const DistArray& array,
                              const Slice& x, store::FileHandle file,
                              std::uint64_t file_offset, int io_tasks,
                              std::uint32_t* stream_crc = nullptr) const;

  /// COLLECTIVE: stream section `x` in from `file`, scattering into the
  /// array's current distribution (all mapped copies updated).
  /// `stream_crc` receives the CRC of the bytes as read, computed the
  /// same way as write_section's — comparing the two detects torn or
  /// corrupted checkpoint files.
  std::uint64_t read_section(rt::TaskContext& ctx, DistArray& array,
                             const Slice& x, store::FileHandle file,
                             std::uint64_t file_offset, int io_tasks,
                             std::uint32_t* stream_crc = nullptr) const;

  /// COLLECTIVE: serial streaming through a sequential (append-only)
  /// channel — a socket- or tape-like stream with no seek capability.
  /// Task 0 performs all channel I/O; the other tasks only participate in
  /// the canonical redistribution. The byte stream is identical to the
  /// parallel form's file contents.
  std::uint64_t write_section_sequential(rt::TaskContext& ctx,
                                         const DistArray& array,
                                         const Slice& x,
                                         SequentialSink& sink) const;
  std::uint64_t read_section_sequential(rt::TaskContext& ctx,
                                        DistArray& array, const Slice& x,
                                        SequentialSource& source) const;

  /// Totals of one delta-block write; identical on every task.
  struct DeltaWriteResult {
    /// One record per stored block, ascending block order — the delta
    /// file's index contents (payload offsets already assigned).
    std::vector<DeltaBlockRecord> records;
    std::uint64_t raw_bytes = 0;
    std::uint64_t stored_bytes = 0;
  };

  /// COLLECTIVE: stream the dirty blocks (`dirty` indexes into `blocks`,
  /// the array's stream-order block plan) out to `file`'s payload region
  /// (starting at wire::kDeltaHeaderBytes), passing each block through
  /// the codec stage where write_section folds in the CRC: round r's
  /// blocks compress on the task's I/O lane while round r+1's exchange
  /// runs, and are written once the round's stored sizes have been agreed
  /// collectively (compressed sizes are data-dependent, so offsets cannot
  /// be precomputed), while round r+1's blocks compress. The caller
  /// (engine) writes the index and header afterwards. Simulated time is
  /// charged on STORED bytes — the codec's win shows up in checkpoint
  /// time.
  DeltaWriteResult write_delta_blocks(rt::TaskContext& ctx,
                                      const DistArray& array,
                                      const StreamPlan& blocks,
                                      const std::vector<std::uint64_t>& dirty,
                                      store::FileHandle file, int io_tasks,
                                      support::BlockCodec codec) const;

  /// COLLECTIVE: the restore inverse — read each indexed block's stored
  /// bytes, verify + decode on the task's I/O lane (overlapping the
  /// previous round's scatter exchange), and scatter the raw block into
  /// the array's current distribution. The records must name distinct
  /// blocks of `blocks`, each at its block's size; a later call
  /// overwrites what an earlier one landed.
  void apply_delta_blocks(rt::TaskContext& ctx, DistArray& array,
                          const StreamPlan& blocks,
                          const std::vector<DeltaBlockRecord>& records,
                          store::FileHandle file, int io_tasks) const;

 private:
  struct Stages;
  /// The one round pipeline behind every entry point (streamer.cpp):
  /// `into` is the calling task's local array for a read (storage to
  /// array), null for a write.
  void run_rounds(rt::TaskContext& ctx, const DistArray& array,
                  LocalArray* into, int io_tasks, const Stages& stages) const;

  /// May be null: no time accounting (pure data movement).
  const store::StorageBackend* storage_;
  sim::LoadContext load_;
  std::uint64_t target_chunk_bytes_;
  bool jitter_;
  /// May be null: no trace recording (the zero-overhead default).
  obs::Recorder* recorder_;
};

}  // namespace drms::core
