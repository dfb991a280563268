// A smooth, solver-shaped field for the benches that need realistic
// array contents: the shape of the BT/LU/SP solvers' initial values,
// indexed by global (component, x, y, z), so every distribution of an
// array holds the same values.
#pragma once

#include <cstddef>
#include <span>

#include "core/slice.hpp"

namespace drms::bench {

/// Value of array number `array` at global index p = (c, x, y, z): a
/// per-array and per-component offset plus gentle gradients along x, y
/// and z, tilted by `drift` * (x + y + z + 1) as a solver step moves it.
/// Without drift LZ shrinks such doubles by about 1.6-2x; a drift that
/// is not a round number leaves it next to nothing to match.
inline double solver_value(std::size_t array, std::span<const core::Index> p,
                           double drift = 0.0) {
  return 0.1 * static_cast<double>(array + 1) +
         1e-3 * static_cast<double>(p[0] + 1) +
         1e-4 * static_cast<double>(p[1]) + 1e-7 * static_cast<double>(p[2]) +
         1e-10 * static_cast<double>(p[3]) +
         drift * static_cast<double>(p[1] + p[2] + p[3] + 1);
}

}  // namespace drms::bench
