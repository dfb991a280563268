#include "core/replicated_store.hpp"

#include "support/crc32.hpp"
#include "support/error.hpp"

namespace drms::core {

namespace {

constexpr std::uint32_t kStoreMagic = 0x44524d53;  // "DRMS"

}  // namespace

void ReplicatedStore::add(const std::string& name,
                          std::function<void(support::ByteBuffer&)> save,
                          std::function<void(support::ByteBuffer&)> load) {
  DRMS_EXPECTS(!name.empty());
  for (const auto& r : records_) {
    DRMS_EXPECTS_MSG(r.name != name,
                     "replicated variable registered twice: " + name);
  }
  records_.push_back(Record{name, std::move(save), std::move(load)});
}

void ReplicatedStore::register_i64(const std::string& name,
                                   std::int64_t* var) {
  DRMS_EXPECTS(var != nullptr);
  add(
      name, [var](support::ByteBuffer& b) { b.put_i64(*var); },
      [var](support::ByteBuffer& b) { *var = b.get_i64(); });
}

void ReplicatedStore::register_u64(const std::string& name,
                                   std::uint64_t* var) {
  DRMS_EXPECTS(var != nullptr);
  add(
      name, [var](support::ByteBuffer& b) { b.put_u64(*var); },
      [var](support::ByteBuffer& b) { *var = b.get_u64(); });
}

void ReplicatedStore::register_f64(const std::string& name, double* var) {
  DRMS_EXPECTS(var != nullptr);
  add(
      name, [var](support::ByteBuffer& b) { b.put_f64(*var); },
      [var](support::ByteBuffer& b) { *var = b.get_f64(); });
}

void ReplicatedStore::register_string(const std::string& name,
                                      std::string* var) {
  DRMS_EXPECTS(var != nullptr);
  add(
      name, [var](support::ByteBuffer& b) { b.put_string(*var); },
      [var](support::ByteBuffer& b) { *var = b.get_string(); });
}

void ReplicatedStore::register_f64_vector(const std::string& name,
                                          std::vector<double>* var) {
  DRMS_EXPECTS(var != nullptr);
  add(
      name,
      [var](support::ByteBuffer& b) {
        b.put_u64(var->size());
        for (const double v : *var) {
          b.put_f64(v);
        }
      },
      [var](support::ByteBuffer& b) {
        var->resize(b.get_u64());
        for (double& v : *var) {
          v = b.get_f64();
        }
      });
}

void ReplicatedStore::register_custom(
    const std::string& name,
    std::function<void(support::ByteBuffer&)> save,
    std::function<void(support::ByteBuffer&)> load) {
  DRMS_EXPECTS(save != nullptr && load != nullptr);
  add(name, std::move(save), std::move(load));
}

void ReplicatedStore::serialize(support::ByteBuffer& out) const {
  support::ByteBuffer body;
  body.put_u32(kStoreMagic);
  body.put_u64(records_.size());
  for (const auto& r : records_) {
    body.put_string(r.name);
    support::ByteBuffer payload;
    r.save(payload);
    body.put_bytes(payload.bytes());
  }
  out.put_u64(body.size());
  out.put_u32(support::crc32c(body.bytes()));
  out.append(body.bytes());
}

void ReplicatedStore::deserialize(support::ByteBuffer& in) {
  const std::uint64_t body_size = in.get_u64();
  const std::uint32_t expected_crc = in.get_u32();
  if (in.remaining() < body_size) {
    throw support::CorruptCheckpoint(
        "replicated store: truncated segment payload");
  }
  support::ByteBuffer body(
      std::vector<std::byte>(in.data() + in.cursor(),
                             in.data() + in.cursor() + body_size));
  // Advance the outer cursor past the body we just copied.
  std::vector<std::byte> skip(static_cast<std::size_t>(body_size));
  in.read_raw(skip.data(), skip.size());

  if (support::crc32c(body.bytes()) != expected_crc) {
    throw support::CorruptCheckpoint("replicated store: CRC mismatch");
  }
  if (body.get_u32() != kStoreMagic) {
    throw support::CorruptCheckpoint("replicated store: bad magic");
  }
  const std::uint64_t n = body.get_u64();
  if (n != records_.size()) {
    throw support::CorruptCheckpoint(
        "replicated store: record count mismatch (checkpoint has " +
        std::to_string(n) + ", program registered " +
        std::to_string(records_.size()) + ")");
  }
  for (auto& r : records_) {
    const std::string name = body.get_string();
    if (name != r.name) {
      throw support::CorruptCheckpoint(
          "replicated store: record order mismatch: expected '" + r.name +
          "', found '" + name + "'");
    }
    const std::vector<std::byte> payload = body.get_bytes();
    support::ByteBuffer pb{std::vector<std::byte>(payload)};
    r.load(pb);
  }
}

}  // namespace drms::core
