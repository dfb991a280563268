#include "state.hpp"

#include <memory>
#include <string>

#include "common.hpp"
#include "core/streamer.hpp"
#include "store/storage_backend.hpp"

namespace perfbench {

using drms::core::DistArray;
using drms::core::Index;
using drms::core::Slice;

namespace {

/// File sink that keeps nothing: write_section streams through it only
/// for the stream CRC it folds in on the way.
class DiscardFile final : public drms::store::FileObject {
 public:
  void write_at(std::uint64_t, std::span<const std::byte>) override {}
  void write_zeros_at(std::uint64_t, std::uint64_t) override {}
  [[nodiscard]] std::vector<std::byte> read_at(std::uint64_t,
                                               std::uint64_t) const override {
    throw drms::support::IoError("discard file is write-only");
  }
  void append(std::span<const std::byte>) override {}
  [[nodiscard]] std::uint64_t size() const override { return 0; }
  [[nodiscard]] const std::string& name() const override { return name_; }

 private:
  std::string name_ = "perfbench.discard";
};

/// Column-major (comp, x, y, z) view of one task's local section.
struct LocalView {
  double* data = nullptr;
  Index c0 = 0, x0 = 0, y0 = 0, z0 = 0;
  Index sx = 0, sy = 0, sz = 0;

  [[nodiscard]] double& at(Index c, Index x, Index y, Index z) const {
    return data[(c - c0) + (x - x0) * sx + (y - y0) * sy + (z - z0) * sz];
  }
};

LocalView view_of(DistArray& array, int rank) {
  drms::core::LocalArray& local = array.local(rank);
  const Slice& m = local.mapped();
  LocalView v;
  v.data = local.as_f64().data();  // non-const: marks the section dirty
  v.c0 = m.range(0).first();
  v.x0 = m.range(1).first();
  v.y0 = m.range(2).first();
  v.z0 = m.range(3).first();
  v.sx = m.range(0).size();
  v.sy = v.sx * m.range(1).size();
  v.sz = v.sy * m.range(2).size();
  return v;
}

/// Uniform double in [0, 1) from a 64-bit hash.
double unit_double(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

template <typename F>
void for_assigned(DistArray& array, int rank, F&& f) {
  const Slice& s = array.distribution().assigned(rank);
  if (s.empty()) {
    return;
  }
  const LocalView v = view_of(array, rank);
  const auto& rc = s.range(0);
  const auto& rx = s.range(1);
  const auto& ry = s.range(2);
  const auto& rz = s.range(3);
  for (Index z = rz.first(); z <= rz.last(); ++z) {
    for (Index y = ry.first(); y <= ry.last(); ++y) {
      for (Index x = rx.first(); x <= rx.last(); ++x) {
        for (Index c = rc.first(); c <= rc.last(); ++c) {
          v.at(c, x, y, z) = f(c, x, y, z);
        }
      }
    }
  }
}

}  // namespace

std::vector<DistArray*> declare_arrays(drms::core::DrmsContext& drms,
                                       const drms::apps::AppSpec& spec) {
  std::vector<DistArray*> arrays;
  for (const auto& decl : spec.arrays) {
    const Slice box = spec.array_box(decl, kGrid);
    std::vector<Index> lo;
    std::vector<Index> hi;
    for (int k = 0; k < box.rank(); ++k) {
      lo.push_back(box.range(k).first());
      hi.push_back(box.range(k).last());
    }
    DistArray& a = drms.create_array(decl.name, lo, hi);
    drms.distribute(a, spec.array_distribution(decl, kGrid, drms.size()));
    arrays.push_back(&a);
  }
  return arrays;
}

void update_state(const std::vector<DistArray*>& arrays, int rank,
                  std::uint64_t seed, std::int64_t sop, Update kind,
                  bool initial) {
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    const auto salt = static_cast<std::uint64_t>(sop) * 64 + a;
    if (kind == Update::kEveryComponent) {
      const std::uint64_t key = mix(seed, salt);
      for_assigned(*arrays[a], rank, [&](Index c, Index x, Index y, Index z) {
        const auto pos = static_cast<std::uint64_t>(
            ((z * kGrid + y) * kGrid + x) * 8 + c);
        return unit_double(mix(key, pos));
      });
      continue;
    }
    // Solver-like: u and rhs move, the rest only get their initial fill.
    if (!initial && a > 1) {
      continue;
    }
    for_assigned(*arrays[a], rank, [&](Index c, Index x, Index y, Index z) {
      return solver_like_value(seed, sop, a, c, x, y, z);
    });
  }
}

double solver_like_value(std::uint64_t seed, std::int64_t sop,
                         std::size_t array, Index c, Index x, Index y,
                         Index z) {
  // A smooth field of the shape of apps' initial values, drifting by a
  // seeded per-SOP amount.
  const auto salt = static_cast<std::uint64_t>(sop) * 64 + array;
  const double drift =
      1e-6 * unit_double(mix(seed, salt)) * static_cast<double>(sop);
  return 0.1 * static_cast<double>(array + 1) +
         1e-3 * static_cast<double>(c + 1) + 1e-4 * static_cast<double>(x) +
         1e-7 * static_cast<double>(y) + 1e-10 * static_cast<double>(z) +
         drift * static_cast<double>(x + y + z + 1);
}

std::vector<std::uint32_t> canonical_crcs(drms::rt::TaskContext& ctx,
                                          const std::vector<DistArray*>& arrays) {
  const drms::core::ArrayStreamer streamer(nullptr, {});
  const drms::store::FileHandle sink(std::make_shared<DiscardFile>());
  std::vector<std::uint32_t> crcs;
  for (DistArray* a : arrays) {
    std::uint32_t crc = 0;
    streamer.write_section(ctx, *a, a->global_box(), sink, 0, ctx.size(),
                           &crc);
    crcs.push_back(crc);
  }
  return crcs;
}

}  // namespace perfbench
