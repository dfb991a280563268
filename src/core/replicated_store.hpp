// Registry of an application's REPLICATED variables — the portion of a
// task's data segment that is identical in every task of an SPMD program
// (control scalars, global parameters, reduction results). In the paper
// the whole raw data segment of one representative task is dumped; a
// portable C++ library cannot dump its own stack and heap, so DRMS
// applications register their replicated state here and the checkpoint
// engine serializes it (plus logically-sized padding standing in for the
// private/system portions — see AppSegmentModel).
//
// Each task owns one store instance referring to its own task-local
// copies of the variables. Registration order must be identical across
// tasks (SPMD discipline); records are name-tagged and CRC-protected, so
// mismatched restores fail loudly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/byte_buffer.hpp"

namespace drms::core {

class ReplicatedStore {
 public:
  /// Register scalar variables by reference. The pointee must outlive the
  /// store.
  void register_i64(const std::string& name, std::int64_t* var);
  void register_u64(const std::string& name, std::uint64_t* var);
  void register_f64(const std::string& name, double* var);
  void register_string(const std::string& name, std::string* var);
  /// Register a vector of doubles (size is saved and restored too).
  void register_f64_vector(const std::string& name,
                           std::vector<double>* var);
  /// Fully custom record: save/load callbacks over a ByteBuffer.
  void register_custom(const std::string& name,
                       std::function<void(support::ByteBuffer&)> save,
                       std::function<void(support::ByteBuffer&)> load);

  [[nodiscard]] std::size_t record_count() const noexcept {
    return records_.size();
  }

  /// Serialize every record, in registration order, with a CRC-32C
  /// trailer.
  void serialize(support::ByteBuffer& out) const;

  /// Restore every registered variable from a buffer produced by
  /// serialize(). Throws CorruptCheckpoint on CRC or name/type mismatch.
  void deserialize(support::ByteBuffer& in);

 private:
  struct Record {
    std::string name;
    std::function<void(support::ByteBuffer&)> save;
    std::function<void(support::ByteBuffer&)> load;
  };

  void add(const std::string& name,
           std::function<void(support::ByteBuffer&)> save,
           std::function<void(support::ByteBuffer&)> load);

  std::vector<Record> records_;
};

}  // namespace drms::core
