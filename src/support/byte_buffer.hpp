// Growable byte buffer with a read cursor — the unit of exchange between
// the serialization layer, the task runtime mailboxes, and the PIOFS
// client. All multi-byte values are stored little-endian so checkpoint
// files are portable across hosts.
//
// Storage uses a default-initializing allocator so the bulk-data paths
// (section exchange, checkpoint reads) can grow the buffer WITHOUT
// zero-filling bytes that are about to be overwritten:
// append_uninitialized() hands out a writable span over freshly grown
// storage and the producer (LocalArray::extract, read_at_into) writes the
// payload straight into place — no temporary vector, no double copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace drms::support {

namespace detail {

/// std::allocator variant whose value-construction leaves trivial types
/// uninitialized (default-initialization), so vector::resize on bytes is
/// a pure size bump instead of a memset.
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace detail

class ByteBuffer {
 public:
  using Storage =
      std::vector<std::byte, detail::DefaultInitAllocator<std::byte>>;

  ByteBuffer() = default;
  explicit ByteBuffer(std::vector<std::byte> data)
      : data_(data.begin(), data.end()) {}
  /// Copies `bytes` (e.g. a sub-range of another buffer) into a fresh
  /// buffer with the cursor at 0.
  explicit ByteBuffer(std::span<const std::byte> bytes)
      : data_(bytes.begin(), bytes.end()) {}

  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }
  [[nodiscard]] const std::byte* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::byte* data() noexcept { return data_.data(); }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {data_.data(), data_.size()};
  }

  void clear() noexcept {
    data_.clear();
    cursor_ = 0;
  }
  void reserve(std::size_t n) { data_.reserve(n); }

  /// ---- writing -----------------------------------------------------------

  void append(std::span<const std::byte> bytes) {
    data_.insert(data_.end(), bytes.begin(), bytes.end());
  }
  void append_raw(const void* p, std::size_t n);

  /// Grow by `n` bytes WITHOUT initializing them and return a writable
  /// span over the new region. The caller must fill every byte before the
  /// buffer is read, sent or compared — this is the zero-copy entry point
  /// for producers that generate bytes in place (LocalArray::extract,
  /// StorageBackend read_at_into).
  [[nodiscard]] std::span<std::byte> append_uninitialized(std::size_t n) {
    const std::size_t old = data_.size();
    data_.resize(old + n);
    return {data_.data() + old, n};
  }

  /// Set the size without initializing grown bytes (same contract as
  /// append_uninitialized). Shrinking clamps the cursor.
  void resize_uninitialized(std::size_t n) {
    data_.resize(n);
    if (cursor_ > n) {
      cursor_ = n;
    }
  }

  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  void put_f64(double v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_string(std::string_view s);
  void put_bytes(std::span<const std::byte> bytes);  // length-prefixed

  /// ---- reading (sequential, from the cursor) ------------------------------

  [[nodiscard]] std::size_t cursor() const noexcept { return cursor_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - cursor_;
  }
  void rewind() noexcept { cursor_ = 0; }

  void read_raw(void* p, std::size_t n);
  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int64_t get_i64();
  [[nodiscard]] double get_f64();
  [[nodiscard]] bool get_bool() { return get_u8() != 0; }
  [[nodiscard]] std::string get_string();
  [[nodiscard]] std::vector<std::byte> get_bytes();  // length-prefixed

  friend bool operator==(const ByteBuffer& a, const ByteBuffer& b) {
    return a.data_ == b.data_;
  }

 private:
  /// Raises a ContractViolation describing the underflow (cursor, request
  /// and buffer size) — readers must never rely on caller discipline.
  [[noreturn]] void raise_underflow(const char* what, std::uint64_t wanted)
      const;
  /// Checks that `wanted` more bytes are readable from the cursor.
  void require_readable(const char* what, std::uint64_t wanted) const {
    if (wanted > data_.size() - cursor_) {
      raise_underflow(what, wanted);
    }
  }

  Storage data_;
  std::size_t cursor_ = 0;
};

}  // namespace drms::support
