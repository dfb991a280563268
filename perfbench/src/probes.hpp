// Layer probes of the traced run: each times calls into one public layer
// function on the workload's own shape (SP's 5-component `u`, 64^3, at the
// workload's task count) and reports a rate from computed byte counts.
#pragma once

#include <cstdint>
#include <utility>

namespace perfbench {

/// Streaming rounds of one generation of the SP inventory at `tasks`
/// tasks: core::make_stream_plan chunks (1 MiB target) over the task
/// count, summed over the arrays.
[[nodiscard]] int stream_rounds(int tasks);

/// TaskContext::barrier round trip at `tasks` tasks, microseconds.
[[nodiscard]] double probe_barrier_us(int tasks);

/// TaskGroup::run of an empty body at `tasks` tasks: {launch_ms,
/// join_ms} (call -> every task in the body; last body exit -> return).
[[nodiscard]] std::pair<double, double> probe_launch_join_ms(int tasks);

/// core::exchange_sections moving `u` from its `tasks`-task block
/// distribution into the stream plan's per-round chunk staging, GB/s of
/// the array's bytes.
[[nodiscard]] double probe_exchange_gbps(int tasks);

/// LocalArray::extract / insert of one task's assigned section of `u` at
/// `tasks` tasks: {gather, scatter} GB/s.
[[nodiscard]] std::pair<double, double> probe_gather_scatter_gbps(int tasks);

/// support::crc32c over one array stream (`u`, 10.5 MB), GB/s.
[[nodiscard]] double probe_crc_gbps();

struct CodecProbe {
  double encode_gbps = 0.0;  // raw bytes per second
  double decode_gbps = 0.0;  // raw bytes per second
  double ratio = 0.0;        // raw / stored
};
/// support::block_encode / block_decode (LZ, 256 KiB blocks) over the
/// solver-like `u` stream the delta workload dirties at SOP `sop`.
[[nodiscard]] CodecProbe probe_codec(std::uint64_t seed, std::int64_t sop);

}  // namespace perfbench
