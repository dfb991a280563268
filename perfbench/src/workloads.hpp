// The three perfbench workloads. Each runs in its own process, measures
// for args.seconds after its set-up, checks its outputs, and returns the
// process exit code after printing its report (see README.md).
#pragma once

#include "common.hpp"

namespace perfbench {

/// DRMS full generations at 2 tasks, each followed by a restart at 3
/// tasks; every component rewritten between SOPs. The pure data plane.
int run_full_reconfig(const Args& args, const Stamp& process_start);

/// Delta generations (full every 4, 256 KiB blocks, LZ); only u and rhs
/// change; every restart replays a full base plus three deltas.
int run_delta_chain(const Args& args, const Stamp& process_start);

/// Repeated RecoverySupervisor jobs of the SP solver on a tiered,
/// redundancy-encoded store behind the I/O scheduler, each losing one
/// node and recovering through scavenge + partial restore.
int run_supervised_recovery(const Args& args, const Stamp& process_start);

}  // namespace perfbench
