// Unit tests for the support layer: byte buffers, serialization, CRC-32C,
// the page pool, deterministic RNG, statistics, units and the table
// printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "support/byte_buffer.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/page_pool.hpp"
#include "support/retry.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace {

using namespace drms::support;

TEST(ByteBuffer, ScalarRoundTrip) {
  ByteBuffer buf;
  buf.put_u8(0xab);
  buf.put_u32(0xdeadbeef);
  buf.put_u64(0x0123456789abcdefull);
  buf.put_i64(-42);
  buf.put_f64(3.14159);
  buf.put_bool(true);
  buf.put_bool(false);

  EXPECT_EQ(buf.get_u8(), 0xab);
  EXPECT_EQ(buf.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(buf.get_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(buf.get_i64(), -42);
  EXPECT_DOUBLE_EQ(buf.get_f64(), 3.14159);
  EXPECT_TRUE(buf.get_bool());
  EXPECT_FALSE(buf.get_bool());
  EXPECT_EQ(buf.remaining(), 0u);
}

TEST(ByteBuffer, StringAndBytesRoundTrip) {
  ByteBuffer buf;
  buf.put_string("hello drms");
  std::vector<std::byte> blob{std::byte{1}, std::byte{2}, std::byte{3}};
  buf.put_bytes(blob);
  buf.put_string("");

  EXPECT_EQ(buf.get_string(), "hello drms");
  EXPECT_EQ(buf.get_bytes(), blob);
  EXPECT_EQ(buf.get_string(), "");
}

TEST(ByteBuffer, ReadPastEndThrows) {
  ByteBuffer buf;
  buf.put_u32(1);
  (void)buf.get_u32();
  EXPECT_THROW((void)buf.get_u8(), ContractViolation);
}

TEST(ByteBuffer, RewindRereads) {
  ByteBuffer buf;
  buf.put_u64(99);
  EXPECT_EQ(buf.get_u64(), 99u);
  buf.rewind();
  EXPECT_EQ(buf.get_u64(), 99u);
}

TEST(ByteBuffer, UnderflowErrorCarriesCursorAndSizeContext) {
  ByteBuffer buf;
  buf.put_u32(7);
  (void)buf.get_u32();
  try {
    (void)buf.get_u64();
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("underflow"), std::string::npos);
    EXPECT_NE(what.find("8 bytes"), std::string::npos);   // wanted
    EXPECT_NE(what.find("cursor 4"), std::string::npos);  // position
    EXPECT_NE(what.find("size 4"), std::string::npos);    // buffer size
  }
}

TEST(ByteBuffer, LengthPrefixedUnderflowThrowsBeforePartialRead) {
  // A corrupt length prefix must raise the underflow error, not allocate
  // or partially read.
  ByteBuffer buf;
  buf.put_u64(1000);  // claims 1000 payload bytes; none follow
  const std::size_t cursor_before_payload = 8;
  EXPECT_THROW((void)buf.get_bytes(), ContractViolation);
  buf.rewind();
  EXPECT_THROW((void)buf.get_string(), ContractViolation);
  buf.rewind();
  (void)buf.get_u64();
  EXPECT_EQ(buf.cursor(), cursor_before_payload)
      << "failed read must not advance past the length prefix";
}

TEST(ByteBuffer, AppendUninitializedHandsOutWritableSpan) {
  ByteBuffer buf;
  buf.put_u32(0xaabbccdd);
  const std::span<std::byte> region = buf.append_uninitialized(3);
  ASSERT_EQ(region.size(), 3u);
  region[0] = std::byte{1};
  region[1] = std::byte{2};
  region[2] = std::byte{3};
  EXPECT_EQ(buf.size(), 7u);
  EXPECT_EQ(buf.get_u32(), 0xaabbccddu);
  std::byte tail[3];
  buf.read_raw(tail, 3);
  EXPECT_EQ(tail[0], std::byte{1});
  EXPECT_EQ(tail[1], std::byte{2});
  EXPECT_EQ(tail[2], std::byte{3});
  EXPECT_EQ(buf.remaining(), 0u);
}

TEST(ByteBuffer, ResizeUninitializedClampsCursorOnShrink) {
  ByteBuffer buf;
  buf.put_u64(1);
  buf.put_u64(2);
  (void)buf.get_u64();
  (void)buf.get_u64();
  EXPECT_EQ(buf.cursor(), 16u);
  buf.resize_uninitialized(4);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.cursor(), 4u);
  EXPECT_EQ(buf.remaining(), 0u);
}

TEST(ByteBuffer, SpanConstructorCopiesSubRange) {
  ByteBuffer src;
  src.put_u32(0x01020304);
  src.put_u32(0x05060708);
  ByteBuffer view(src.bytes().subspan(4, 4));
  EXPECT_EQ(view.size(), 4u);
  EXPECT_EQ(view.get_u32(), 0x05060708u);
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vector: CRC-32C of "123456789" is 0xE3069283.
  const char* digits = "123456789";
  Crc32c crc;
  crc.update_raw(digits, std::strlen(digits));
  EXPECT_EQ(crc.value(), 0xE3069283u);

  // 32 zero bytes -> 0x8A9136AA (iSCSI test vector).
  const std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32c, KnownVectorsOnEveryAvailableKernel) {
  // RFC 3720 test vectors, checked against EVERY dispatchable kernel —
  // a hardware path that disagrees with the portable one would corrupt
  // cross-host checkpoint verification silently.
  const char* digits = "123456789";
  std::vector<std::byte> digit_bytes(9);
  std::memcpy(digit_bytes.data(), digits, 9);
  const std::vector<std::byte> zeros(32, std::byte{0});
  const std::vector<std::byte> ones(32, std::byte{0xff});
  for (const auto kernel :
       {Crc32cKernel::kBytewise, Crc32cKernel::kSlicing16,
        Crc32cKernel::kHardware}) {
    if (!crc32c_kernel_available(kernel)) {
      continue;
    }
    EXPECT_EQ(crc32c(kernel, digit_bytes), 0xE3069283u)
        << to_string(kernel);
    EXPECT_EQ(crc32c(kernel, zeros), 0x8A9136AAu) << to_string(kernel);
    EXPECT_EQ(crc32c(kernel, ones), 0x62A8AB43u) << to_string(kernel);
    EXPECT_EQ(crc32c(kernel, {}), 0u) << to_string(kernel);
  }
}

TEST(Crc32c, ActiveKernelIsAvailableAndUsedByDefaultPath) {
  const Crc32cKernel active = crc32c_active_kernel();
  EXPECT_TRUE(crc32c_kernel_available(active));
  std::vector<std::byte> data(4097);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 31 + 5);
  }
  EXPECT_EQ(crc32c(data), crc32c(active, data));
}

TEST(Crc32c, KernelsAgreeOnRandomSizesAndAlignments) {
  // Identical values across kernels for arbitrary lengths and (crucially
  // for the hardware kernels' head/tail handling) arbitrary alignments.
  // Lengths reach 256 KiB, so the x86-64 kernel runs many of its
  // three-lane 12 KiB blocks plus a head and a tail; the fixed lengths
  // sit on and beside whole blocks.
  constexpr std::size_t kMaxLen = 256 * 1024;
  constexpr std::size_t kBlock = 3 * 4096;
  Rng rng(0xC3C3);
  std::vector<std::byte> pool(kMaxLen + 64);
  for (auto& x : pool) {
    x = static_cast<std::byte>(rng.uniform_int(0, 255));
  }
  std::vector<std::size_t> lengths{
      0, 7, 8, kBlock - 1, kBlock, kBlock + 1, 2 * kBlock, 2 * kBlock + 9,
      kMaxLen};
  for (int iter = 0; iter < 50; ++iter) {
    lengths.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kMaxLen))));
  }
  for (const std::size_t len : lengths) {
    const auto offset = static_cast<std::size_t>(rng.uniform_int(0, 63));
    const std::span<const std::byte> view =
        std::span(pool).subspan(offset, len);
    const std::uint32_t reference = crc32c(Crc32cKernel::kBytewise, view);
    for (const auto kernel :
         {Crc32cKernel::kSlicing16, Crc32cKernel::kHardware}) {
      if (!crc32c_kernel_available(kernel)) {
        continue;
      }
      EXPECT_EQ(crc32c(kernel, view), reference)
          << to_string(kernel) << " offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  std::vector<std::byte> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 7 + 1);
  }
  Crc32c inc;
  inc.update(std::span(data).subspan(0, 137));
  inc.update(std::span(data).subspan(137));
  EXPECT_EQ(inc.value(), crc32c(data));
}

TEST(Crc32c, CombineMatchesConcatenation) {
  Rng rng(31337);
  for (int iter = 0; iter < 20; ++iter) {
    const auto n1 = static_cast<std::size_t>(rng.uniform_int(0, 5000));
    const auto n2 = static_cast<std::size_t>(rng.uniform_int(0, 5000));
    std::vector<std::byte> a(n1);
    std::vector<std::byte> b(n2);
    for (auto& x : a) x = static_cast<std::byte>(rng.uniform_int(0, 255));
    for (auto& x : b) x = static_cast<std::byte>(rng.uniform_int(0, 255));
    std::vector<std::byte> ab = a;
    ab.insert(ab.end(), b.begin(), b.end());
    EXPECT_EQ(crc32c_combine(crc32c(a), crc32c(b), b.size()), crc32c(ab));
  }
}

TEST(Crc32c, CombineWithEmptyIsIdentity) {
  const std::vector<std::byte> a{std::byte{1}, std::byte{2}};
  EXPECT_EQ(crc32c_combine(crc32c(a), 0, 0), crc32c(a));
}

/// zlib's GF(2) 32x32 matrix method: an independent reference for
/// crc32c_combine's x^(2^k) table at any 64-bit length.
std::uint32_t gf2_matrix_times(const std::uint32_t* mat, std::uint32_t vec) {
  std::uint32_t sum = 0;
  while (vec != 0) {
    if (vec & 1u) {
      sum ^= *mat;
    }
    vec >>= 1;
    ++mat;
  }
  return sum;
}

void gf2_matrix_square(std::uint32_t* square, const std::uint32_t* mat) {
  for (int n = 0; n < 32; ++n) {
    square[n] = gf2_matrix_times(mat, mat[n]);
  }
}

std::uint32_t matrix_combine(std::uint32_t crc1, std::uint32_t crc2,
                             std::uint64_t len2) {
  if (len2 == 0) {
    return crc1;
  }
  std::uint32_t even[32];  // even-power-of-two zero operators
  std::uint32_t odd[32];   // odd-power-of-two zero operators
  odd[0] = 0x82f63b78u;    // one zero bit: the reflected polynomial
  std::uint32_t row = 1;
  for (int n = 1; n < 32; ++n) {
    odd[n] = row;
    row <<= 1;
  }
  gf2_matrix_square(even, odd);  // two zero bits
  gf2_matrix_square(odd, even);  // four zero bits
  do {
    gf2_matrix_square(even, odd);
    if (len2 & 1u) {
      crc1 = gf2_matrix_times(even, crc1);
    }
    len2 >>= 1;
    if (len2 == 0) {
      break;
    }
    gf2_matrix_square(odd, even);
    if (len2 & 1u) {
      crc1 = gf2_matrix_times(odd, crc1);
    }
    len2 >>= 1;
  } while (len2 != 0);
  return crc1 ^ crc2;
}

TEST(Crc32c, CombineMatchesMatrixReferenceAtAny64BitLength) {
  // Lengths no test can materialize: every bit of a 64-bit len2 must use
  // its own x^(2^k) entry. A table that wraps every 32 entries, as zlib's
  // does for CRC-32, agrees with the reference below 2^29 bytes only.
  Rng rng(0x5EED);
  std::vector<std::uint64_t> lengths{
      1,          4096,       (1ull << 29) - 1, 1ull << 29, (1ull << 29) + 1,
      1ull << 31, 1ull << 32, 1ull << 40,       1ull << 63, ~0ull};
  for (int k = 0; k < 8; ++k) {
    lengths.push_back((1ull << 32) +
                      static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20)));
  }
  for (int k = 0; k < 200; ++k) {
    lengths.push_back(rng.next_u64() >> rng.uniform_int(0, 63));
  }
  for (const std::uint64_t len2 : lengths) {
    const auto crc1 = static_cast<std::uint32_t>(rng.next_u64());
    const auto crc2 = static_cast<std::uint32_t>(rng.next_u64());
    EXPECT_EQ(crc32c_combine(crc1, crc2, len2),
              matrix_combine(crc1, crc2, len2))
        << "len2=" << len2;
  }
}

TEST(Crc32c, MultiWayCombineIsAssociative) {
  // Folding chunk CRCs left-to-right gives the stream CRC regardless of
  // how many chunks there are — the property parallel streaming relies on.
  std::vector<std::byte> all(10000);
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<std::byte>((i * 131) & 0xff);
  }
  for (const std::size_t parts : {1u, 3u, 7u, 100u}) {
    std::uint32_t combined = 0;
    const std::size_t chunk = all.size() / parts + 1;
    for (std::size_t off = 0; off < all.size(); off += chunk) {
      const std::size_t len = std::min(chunk, all.size() - off);
      const std::uint32_t c =
          crc32c(std::span(all).subspan(off, len));
      combined = crc32c_combine(combined, c, len);
    }
    EXPECT_EQ(combined, crc32c(all)) << parts << " parts";
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformIntInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, JitterCentersOnOne) {
  Rng rng(99);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.jitter(0.1);
  }
  EXPECT_NEAR(sum / kN, 1.0, 0.02);  // lognormal mean = exp(sigma^2/2) ~ 1.005
}

TEST(Rng, ZeroSigmaJitterIsExactlyOne) {
  Rng rng(99);
  EXPECT_EQ(rng.jitter(0.0), 1.0);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(5);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(RunningStats, MeanAndStddev) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(Units, Formatting) {
  EXPECT_EQ(format_bytes(12), "12 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KB");
  EXPECT_EQ(format_bytes(147 * kMiB), "147.0 MB");
  EXPECT_EQ(format_bytes(3 * kGiB), "3.00 GB");
  EXPECT_DOUBLE_EQ(to_mib(kMiB), 1.0);
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"App", "Size"});
  t.add_row({"BT", "147"});
  t.add_rule();
  t.add_row({"LU", "9"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("App | Size"), std::string::npos);
  EXPECT_NE(out.find("BT  |  147"), std::string::npos);
  EXPECT_NE(out.find("LU  |    9"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Contracts, ViolationCarriesLocation) {
  try {
    DRMS_EXPECTS_MSG(false, "custom context");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
    EXPECT_NE(what.find("custom context"), std::string::npos);
  }
}

TEST(Errors, TaskKilledIsNotAnError) {
  // Application catch(const Error&) blocks must not swallow kill requests.
  const bool convertible =
      std::is_convertible_v<drms::support::TaskKilled*,
                            drms::support::Error*>;
  EXPECT_FALSE(convertible);
}

TEST(Retry, DefaultPolicyKeepsTheExactLegacyBackoffSequence) {
  RetryPolicy policy;
  using std::chrono::microseconds;
  EXPECT_EQ(retry_backoff(policy, 1), microseconds(50));
  EXPECT_EQ(retry_backoff(policy, 2), microseconds(100));
  EXPECT_EQ(retry_backoff(policy, 3), microseconds(200));
}

TEST(Retry, RetriesTransientsUpToTheAttemptBudget) {
  RetryPolicy policy;
  policy.attempts = 3;
  policy.backoff_base = std::chrono::microseconds(1);
  int calls = 0;
  const int got = retry_io(
      [&calls] {
        if (++calls < 3) {
          throw TransientIoError("hiccup");
        }
        return 42;
      },
      policy);
  EXPECT_EQ(got, 42);
  EXPECT_EQ(calls, 3);

  calls = 0;
  EXPECT_THROW(retry_io(
                   [&calls]() -> int {
                     ++calls;
                     throw TransientIoError("always");
                   },
                   policy),
               TransientIoError);
  EXPECT_EQ(calls, 3);  // budget bounds the attempts
}

TEST(Retry, HugeAttemptIndicesSaturateInsteadOfOverflowing) {
  // A policy may set a huge attempt budget; the exponential step must
  // saturate, not shift past the int width into undefined behaviour.
  RetryPolicy policy;
  EXPECT_EQ(retry_backoff(policy, 40), retry_backoff(policy, 31));
  EXPECT_GT(retry_backoff(policy, 1000).count(), 0);
  EXPECT_GE(retry_backoff(policy, 1000), retry_backoff(policy, 3));
}

TEST(Retry, NonTransientErrorsPropagateImmediately) {
  int calls = 0;
  EXPECT_THROW(retry_io([&calls]() -> int {
                 ++calls;
                 throw IoError("hard failure");
               }),
               IoError);
  EXPECT_EQ(calls, 1);
}


constexpr std::size_t kUnit = PageBuffer::kUnit;
constexpr std::size_t kSlab = PageBuffer::kSlab;

/// The pool's size classes: one unit, one unit and a byte, a whole slab
/// of units, just above a slab (its own mapping), and a large buffer.
const std::vector<std::size_t>& pool_sizes() {
  static const std::vector<std::size_t> sizes{
      kUnit, kUnit + 1, 32 * kUnit, kSlab + 1, 10 * 1024 * 1024};
  return sizes;
}

/// True when every byte of `b` is `v` (memcmp against one unit of `v`, so
/// the sanitizer builds check ranges, not single bytes).
bool all_bytes_are(const PageBuffer& b, std::byte v) {
  const std::vector<std::byte> ref(std::min(b.size(), kUnit), v);
  for (std::size_t at = 0; at < b.size(); at += ref.size()) {
    const std::size_t n = std::min(ref.size(), b.size() - at);
    if (std::memcmp(b.data() + at, ref.data(), n) != 0) {
      return false;
    }
  }
  return true;
}

TEST(PagePool, EverySizeClassIsZeroedAlignedAndDisjoint) {
  std::vector<PageBuffer> live;
  for (const std::size_t size : pool_sizes()) {
    for (const auto init :
         {PageBuffer::Init::kZeroed, PageBuffer::Init::kUninitialized}) {
      PageBuffer b(size, init);
      ASSERT_EQ(b.size(), size);
      const auto addr = reinterpret_cast<std::uintptr_t>(b.data());
      EXPECT_EQ(addr % kUnit, 0u) << "pool buffers start on a unit";
      if (size > kSlab) {
        EXPECT_EQ(addr % kSlab, 0u) << "own mappings are slab-aligned";
      } else {
        EXPECT_EQ(addr / kSlab, (addr + size - 1) / kSlab)
            << "a slab-served buffer stays inside one slab";
      }
      if (init == PageBuffer::Init::kZeroed) {
        EXPECT_TRUE(all_bytes_are(b, std::byte{0})) << size;
      }
      std::memset(b.data(), static_cast<int>(live.size() + 1), size);
      live.push_back(std::move(b));
    }
  }
  // Each buffer still holds its own fill, so no two overlap.
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_TRUE(all_bytes_are(live[i], static_cast<std::byte>(i + 1))) << i;
    for (std::size_t j = i + 1; j < live.size(); ++j) {
      const std::byte* a = live[i].data();
      const std::byte* b = live[j].data();
      EXPECT_TRUE(a + live[i].size() <= b || b + live[j].size() <= a)
          << i << " overlaps " << j;
    }
  }
}

TEST(PagePool, ReleasingEveryBufferUnmapsEverySlab) {
  const PagePoolStats before = page_pool_stats();
  {
    std::vector<PageBuffer> live;
    std::size_t requested = 0;
    for (int round = 0; round < 3; ++round) {
      for (const std::size_t size : pool_sizes()) {
        live.emplace_back(size, PageBuffer::Init::kUninitialized);
        requested += size;
      }
    }
    const PagePoolStats during = page_pool_stats();
    EXPECT_GE(during.live_bytes - before.live_bytes, requested);
    EXPECT_GE(during.mapped_bytes - before.mapped_bytes,
              during.live_bytes - before.live_bytes);
    // Release every other buffer first: partly used slabs stay mapped.
    for (std::size_t i = 0; i < live.size(); i += 2) {
      live[i] = PageBuffer();
    }
    EXPECT_LT(page_pool_stats().live_bytes, during.live_bytes);
  }
  const PagePoolStats after = page_pool_stats();
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(after.mapped_bytes, before.mapped_bytes);
}

TEST(PagePool, RecycledUnitsAreClearedWhenZeroedIsAsked) {
  // A keeper unit holds the slab mapped while the filled run is released,
  // so the next buffers reuse units that held 0xA5.
  PageBuffer filled(8 * kUnit, PageBuffer::Init::kUninitialized);
  const PageBuffer keeper(kUnit, PageBuffer::Init::kZeroed);
  std::memset(filled.data(), 0xA5, filled.size());
  const std::byte* const recycled = filled.data();
  filled = PageBuffer();
  const PageBuffer again(8 * kUnit, PageBuffer::Init::kZeroed);
  EXPECT_EQ(again.data(), recycled) << "the lowest free run is reused";
  EXPECT_TRUE(all_bytes_are(again, std::byte{0}));
  const PageBuffer smaller(3 * kUnit + 5, PageBuffer::Init::kZeroed);
  EXPECT_TRUE(all_bytes_are(smaller, std::byte{0}));
}

TEST(PagePool, CopiesAreDeepAndMovesTransferOwnership) {
  PageBuffer a(kUnit + 7, PageBuffer::Init::kZeroed);
  std::memset(a.data(), 0x3C, a.size());
  PageBuffer copy = a;
  ASSERT_NE(copy.data(), a.data());
  std::memset(a.data(), 0x11, a.size());
  EXPECT_TRUE(all_bytes_are(copy, std::byte{0x3C}));
  const std::byte* const owned = copy.data();
  PageBuffer moved = std::move(copy);
  EXPECT_EQ(moved.data(), owned);
  EXPECT_EQ(copy.size(), 0u);  // NOLINT(bugprone-use-after-move)
  PageBuffer small(100, PageBuffer::Init::kZeroed);
  EXPECT_TRUE(all_bytes_are(small, std::byte{0}));
  small = moved;
  EXPECT_TRUE(all_bytes_are(small, std::byte{0x3C}));
}

TEST(PagePool, ConcurrentThreadsAllocateFillVerifyAndRelease) {
  const PagePoolStats before = page_pool_stats();
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &mismatches] {
      Rng rng(900 + static_cast<std::uint64_t>(t));
      std::vector<std::pair<PageBuffer, std::byte>> held;  // buffer, fill
      for (int i = 0; i < 150; ++i) {
        const auto size = static_cast<std::size_t>(rng.uniform_int(
            1, static_cast<std::int64_t>(kSlab + 2 * kUnit)));
        PageBuffer b(size, PageBuffer::Init::kZeroed);
        const auto fill = static_cast<std::byte>(t * 50 + i % 50 + 1);
        if (!all_bytes_are(b, std::byte{0})) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
        std::memset(b.data(), static_cast<int>(fill), size);
        held.emplace_back(std::move(b), fill);
        if (held.size() > 6) {
          // Release an older buffer after checking its fill survived.
          const std::size_t victim = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
          if (!all_bytes_are(held[victim].first, held[victim].second)) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(victim));
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  const PagePoolStats after = page_pool_stats();
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(after.mapped_bytes, before.mapped_bytes);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(PagePool, AsanPoisonsUnitsNotHandedOutAndTheSlack) {
  const PageBuffer keeper(kUnit, PageBuffer::Init::kZeroed);
  PageBuffer b(kUnit + 1, PageBuffer::Init::kZeroed);
  std::byte* const p = b.data();
  EXPECT_FALSE(__asan_address_is_poisoned(p));
  EXPECT_FALSE(__asan_address_is_poisoned(p + kUnit));
  EXPECT_TRUE(__asan_address_is_poisoned(p + kUnit + 1)) << "slack";
  EXPECT_TRUE(__asan_address_is_poisoned(p + 2 * kUnit - 1)) << "slack";
  EXPECT_TRUE(__asan_address_is_poisoned(p + 2 * kUnit)) << "free unit";
  b = PageBuffer();
  EXPECT_TRUE(__asan_address_is_poisoned(p)) << "released unit";
  const PageBuffer own(kSlab + 1, PageBuffer::Init::kZeroed);
  EXPECT_FALSE(__asan_address_is_poisoned(own.data() + kSlab));
  EXPECT_TRUE(__asan_address_is_poisoned(own.data() + kSlab + 1));
}
#endif

}  // namespace
