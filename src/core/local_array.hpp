// Per-task storage for a mapped array section. Elements are laid out in
// column-major order over the mapped slice's own index space, so the
// canonical streaming chunks (whose mapped section IS the chunk) are
// already in stream order in memory. Storage is zero-initialized unless
// the caller overwrites all of it, and comes from the process-wide page
// pool (support/page_pool.hpp) from one 64 KiB unit up, from the system
// allocator below; copies are deep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/slice.hpp"
#include "support/page_pool.hpp"

namespace drms::core {

/// Dirty-region log for delta checkpoints. Mutation paths record the
/// global sub-slices they touched; when precise tracking is unavailable
/// (raw-span access) or the slice list overflows, the log degrades to a
/// conservative mark-all over the owner's mapped section. Consumers test
/// blocks with intersects() — a clean() log means the section is
/// provably unchanged since the last clear().
struct MutationLog {
  /// Bound on precise slices before degrading to mark-all: keeps the
  /// per-mutation cost O(1) amortized and the per-block dirty test cheap.
  static constexpr std::size_t kMaxSlices = 64;

  bool all = false;
  std::vector<Slice> slices;

  void mark_all() noexcept {
    all = true;
    slices.clear();
  }
  void mark(const Slice& s) {
    if (all || s.empty()) {
      return;
    }
    if (slices.size() >= kMaxSlices) {
      mark_all();
      return;
    }
    slices.push_back(s);
  }
  void clear() noexcept {
    all = false;
    slices.clear();
  }
  [[nodiscard]] bool clean() const noexcept { return !all && slices.empty(); }
  /// True when the marked regions overlap `s`. `all` intersects
  /// everything — callers clip against the owner's mapped section.
  [[nodiscard]] bool intersects(const Slice& s) const {
    if (all) {
      return true;
    }
    for (const Slice& m : slices) {
      if (!m.intersect(s).empty()) {
        return true;
      }
    }
    return false;
  }
};

class LocalArray {
 public:
  /// An empty local array (no mapped section).
  LocalArray() = default;
  /// Allocate storage for `mapped` with `elem_size`-byte elements, zeroed
  /// unless `init` is kUninitialized (for a caller that writes every byte
  /// before reading any).
  LocalArray(Slice mapped, std::size_t elem_size,
             support::PageBuffer::Init init =
                 support::PageBuffer::Init::kZeroed);

  [[nodiscard]] const Slice& mapped() const noexcept { return mapped_; }
  [[nodiscard]] std::size_t elem_size() const noexcept { return elem_size_; }
  [[nodiscard]] Index element_count() const noexcept {
    return mapped_.rank() == 0 ? 0 : mapped_.element_count();
  }
  [[nodiscard]] std::uint64_t byte_size() const noexcept {
    return static_cast<std::uint64_t>(data_.size());
  }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {data_.data(), data_.size()};
  }
  [[nodiscard]] std::span<std::byte> bytes() noexcept {
    if (log_ != nullptr) {
      log_->mark_all();
    }
    return {data_.data(), data_.size()};
  }

  /// Attach (or detach, with nullptr) a dirty log. The log outlives the
  /// attachment; mutation paths record into it: insert() marks its target
  /// slice, set_f64() marks the point, and the raw-span accessors
  /// (non-const bytes()/as_f64()) conservatively mark everything.
  void attach_mutation_log(MutationLog* log) noexcept { log_ = log; }
  [[nodiscard]] MutationLog* mutation_log() const noexcept { return log_; }

  /// Byte offset of a global multi-index, or nullopt when the point is not
  /// in the mapped section.
  [[nodiscard]] std::optional<std::uint64_t> offset_of(
      std::span<const Index> point) const;

  /// Copy the elements of sub-slice `s` (must be covered by mapped()) into
  /// `out` in column-major stream order. `out` must hold
  /// s.element_count() * elem_size() bytes.
  void extract(const Slice& s, std::span<std::byte> out) const;

  /// Inverse of extract: scatter stream-ordered bytes into sub-slice `s`.
  void insert(const Slice& s, std::span<const std::byte> in);

  /// Copy sub-slice `s` (covered by both mapped sections) from `src`
  /// straight into this array: src.extract(s) then insert(s) without the
  /// stream buffer, one memcpy per run that is contiguous on both sides.
  /// Marks the dirty log as insert() does.
  void copy_from(const LocalArray& src, const Slice& s);

  /// Typed element accessors (for solvers and tests; double arrays are the
  /// common case in the paper's CFD workloads).
  [[nodiscard]] double get_f64(std::span<const Index> point) const;
  void set_f64(std::span<const Index> point, double value);

  /// Direct typed view over the whole local storage (column-major over the
  /// mapped slice). Only valid when elem_size() == sizeof(double).
  [[nodiscard]] std::span<double> as_f64();
  [[nodiscard]] std::span<const double> as_f64() const;

 private:
  /// Per axis of sub-slice `s`, the byte offset in data_ of each of the
  /// axis's values; throws if `s` is not covered by mapped().
  [[nodiscard]] std::vector<std::vector<std::size_t>> axis_offsets(
      const Slice& s) const;

  Slice mapped_;
  std::size_t elem_size_ = 0;
  /// Optional dirty log (owned by the enclosing DistArray); null when
  /// delta tracking is off — the hooks then cost one branch.
  MutationLog* log_ = nullptr;
  /// Column-major strides in elements, per axis.
  std::vector<Index> stride_;
  support::PageBuffer data_;
};

}  // namespace drms::core
