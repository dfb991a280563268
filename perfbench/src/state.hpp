// Generated SP class-A application state: the 24-component inventory of
// apps::AppSpec::sp() at 64^3 (50.3 MB of distributed doubles) plus its
// data segment, declared and distributed through the public DRMS API and
// rewritten by a seeded generator between SOPs.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/app_spec.hpp"
#include "core/dist_array.hpp"
#include "core/drms_context.hpp"
#include "rt/task_context.hpp"

namespace perfbench {

inline constexpr drms::core::Index kGrid = 64;  // NPB class A

/// How the generator rewrites the state at an SOP.
enum class Update {
  /// Every component gets fresh seeded pseudo-random doubles.
  kEveryComponent,
  /// Only `u` and `rhs` (10 of 24 components) change, to smooth
  /// solver-like values; the other arrays stay untouched (clean blocks).
  kSolverLike,
};

/// Figure-1 prologue on this task: declare every array of the inventory
/// and distribute it over the group (on a restart, distribute() loads the
/// checkpointed contents). COLLECTIVE.
std::vector<drms::core::DistArray*> declare_arrays(
    drms::core::DrmsContext& drms, const drms::apps::AppSpec& spec);

/// Seeded rewrite of this task's assigned sections for SOP `sop`. With
/// `initial`, every array is written (the fill before the first SOP).
void update_state(const std::vector<drms::core::DistArray*>& arrays, int rank,
                  std::uint64_t seed, std::int64_t sop, Update kind,
                  bool initial);

/// Element (c, x, y, z) of array number `array` (inventory order) after
/// the solver-like update of SOP `sop`.
[[nodiscard]] double solver_like_value(std::uint64_t seed, std::int64_t sop,
                                       std::size_t array, drms::core::Index c,
                                       drms::core::Index x, drms::core::Index y,
                                       drms::core::Index z);

/// Canonical (distribution-independent) stream CRC-32C of each array,
/// identical on every task and for every task count. COLLECTIVE.
std::vector<std::uint32_t> canonical_crcs(
    drms::rt::TaskContext& ctx,
    const std::vector<drms::core::DistArray*>& arrays);

}  // namespace perfbench
