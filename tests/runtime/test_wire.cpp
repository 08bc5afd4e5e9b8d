// Wire encoding round trips: every field type survives write/read bitwise,
// torn or oversized messages fail loudly instead of yielding garbage, and the
// frame checksum is XXH64 of the bytes alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "runtime/wire.hpp"
#include "support/rng.hpp"

namespace {

using tt::Error;
using tt::Rng;
using tt::rt::WireReader;
using tt::rt::WireWriter;
using tt::tensor::DenseTensor;

TEST(Wire, ScalarFieldsRoundTripInCallOrder) {
  WireWriter w;
  w.u32(0xdeadbeefu);
  w.u64(std::numeric_limits<std::uint64_t>::max());
  w.i64(-1234567890123456789LL);
  w.f64(3.141592653589793);
  w.str("block scheduler");
  w.i32_list({-3, 0, 7});

  WireReader r(w.bytes());
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.i64(), -1234567890123456789LL);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(r.str(), "block scheduler");
  EXPECT_EQ(r.i32_list(), (std::vector<int>{-3, 0, 7}));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, DoublesTravelBitwiseIncludingSpecialValues) {
  // The scheduler's rank-parity invariant needs bit patterns, not values:
  // -0.0, denormals, and NaN payload bits must survive unchanged.
  const double values[] = {-0.0, std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::infinity(),
                           std::nan("0x5bad"), 1.0 + 1e-16};
  WireWriter w;
  for (double v : values) w.f64(v);
  WireReader r(w.bytes());
  for (double v : values) {
    const double got = r.f64();
    EXPECT_EQ(std::memcmp(&got, &v, sizeof v), 0);
  }
}

TEST(Wire, TensorRoundTripsBitwise) {
  Rng rng(7);
  for (const auto& shape :
       {std::vector<tt::index_t>{3, 4, 2}, {1}, {5, 1, 1, 2}}) {
    const DenseTensor t = DenseTensor::random(shape, rng);
    WireWriter w;
    w.tensor(t);
    WireReader r(w.bytes());
    const DenseTensor back = r.tensor();
    ASSERT_EQ(back.shape(), t.shape());
    EXPECT_EQ(std::memcmp(back.data(), t.data(),
                          static_cast<std::size_t>(t.size()) * sizeof(double)),
              0);
    EXPECT_TRUE(r.done());
  }
}

TEST(Wire, ScalarTensorRoundTrips) {
  WireWriter w;
  w.tensor(DenseTensor::scalar(-2.5));
  WireReader r(w.bytes());
  const DenseTensor back = r.tensor();
  EXPECT_EQ(back.order(), 0);
  EXPECT_EQ(back[0], -2.5);
}

// Plain scalar XXH64 (seed 0): words assembled byte by byte in little-endian
// order, one lane at a time, no memcpy — an independent statement of the
// function wire_checksum must compute.
std::uint64_t reference_checksum(const std::byte* p, std::size_t n) {
  constexpr std::uint64_t P1 = 0x9E3779B185EBCA87ull, P2 = 0xC2B2AE3D27D4EB4Full,
                          P3 = 0x165667B19E3779F9ull, P4 = 0x85EBCA77C2B2AE63ull,
                          P5 = 0x27D4EB2F165667C5ull;
  auto rotl = [](std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); };
  auto word = [&](std::size_t at, int width) {
    std::uint64_t v = 0;
    for (int k = width - 1; k >= 0; --k)
      v = (v << 8) | std::to_integer<std::uint64_t>(p[at + static_cast<std::size_t>(k)]);
    return v;
  };
  auto step = [&](std::uint64_t acc, std::uint64_t w) {
    return rotl(acc + w * P2, 31) * P1;
  };
  std::size_t i = 0;
  std::uint64_t h = P5;
  if (n >= 32) {
    std::uint64_t lane[4] = {P1 + P2, P2, 0, 0 - P1};
    for (; i + 32 <= n; i += 32)
      for (int l = 0; l < 4; ++l)
        lane[l] = step(lane[l], word(i + 8 * static_cast<std::size_t>(l), 8));
    h = rotl(lane[0], 1) + rotl(lane[1], 7) + rotl(lane[2], 12) + rotl(lane[3], 18);
    for (std::uint64_t v : lane) h = (h ^ step(0, v)) * P1 + P4;
  }
  h += n;
  for (; i + 8 <= n; i += 8) h = rotl(h ^ step(0, word(i, 8)), 27) * P1 + P4;
  if (i + 4 <= n) {
    h = rotl(h ^ (word(i, 4) * P1), 23) * P2 + P3;
    i += 4;
  }
  for (; i < n; ++i) h = rotl(h ^ (word(i, 1) * P5), 11) * P1;
  h = (h ^ (h >> 33)) * P2;
  h = (h ^ (h >> 29)) * P3;
  return h ^ (h >> 32);
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> buf(n);
  for (auto& b : buf)
    b = static_cast<std::byte>(static_cast<unsigned char>(rng.integer(0, 255)));
  return buf;
}

TEST(Wire, ChecksumIsAPureFunctionOfTheBytesAtAnyAlignment) {
  // The frame checksum must depend on the byte sequence only — never on the
  // buffer's alignment. Compare against the scalar reference at offsets 0,
  // 1 and 7 (the ubsan leg flags any word load through a misaligned
  // pointer) and at every length 0..129, which covers the empty input, each
  // tail shape and one to four full 32-byte stripes.
  const std::vector<std::byte> buf = random_bytes(129 + 7, 41);
  for (std::size_t offset : {0, 1, 7})
    for (std::size_t n = 0; n <= 129; ++n)
      ASSERT_EQ(tt::rt::wire_checksum(buf.data() + offset, n),
                reference_checksum(buf.data() + offset, n))
          << "offset " << offset << ", length " << n;
  // Same bytes at a different address: same value.
  std::vector<std::byte> moved(buf.begin() + 1, buf.begin() + 65);
  EXPECT_EQ(tt::rt::wire_checksum(moved.data(), moved.size()),
            tt::rt::wire_checksum(buf.data() + 1, 64));
  // Published XXH64 (seed 0) vectors: "" and "abc".
  EXPECT_EQ(tt::rt::wire_checksum(buf.data(), 0), 0xEF46DB3751D8E999ull);
  const std::byte abc[] = {std::byte{'a'}, std::byte{'b'}, std::byte{'c'}};
  EXPECT_EQ(tt::rt::wire_checksum(abc, 3), 0x44BC2CF5AD770999ull);
}

TEST(Wire, ChecksumChangesOnEveryBitFlipLaneSwapAndZeroExtension) {
  std::vector<std::byte> buf = random_bytes(129, 43);
  const std::uint64_t base = tt::rt::wire_checksum(buf.data(), buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i)
    for (int bit = 0; bit < 8; ++bit) {
      buf[i] ^= std::byte{1} << bit;
      EXPECT_NE(tt::rt::wire_checksum(buf.data(), buf.size()), base)
          << "bit " << bit << " of byte " << i;
      buf[i] ^= std::byte{1} << bit;
    }

  // Words 0 and 1 of a stripe feed different lanes; so do word 2 of the
  // first stripe and word 7 of the second.
  for (auto [x, y] : {std::pair<std::size_t, std::size_t>{0, 1}, {2, 7}}) {
    std::vector<std::byte> swapped = buf;
    std::swap_ranges(swapped.begin() + static_cast<std::ptrdiff_t>(8 * x),
                     swapped.begin() + static_cast<std::ptrdiff_t>(8 * x + 8),
                     swapped.begin() + static_cast<std::ptrdiff_t>(8 * y));
    ASSERT_NE(swapped, buf);
    EXPECT_NE(tt::rt::wire_checksum(swapped.data(), swapped.size()), base)
        << "words " << x << " and " << y << " swapped";
  }

  // Appending zero bytes changes the length, which is folded in.
  std::vector<std::byte> longer = buf;
  for (int extra = 1; extra <= 40; ++extra) {
    longer.push_back(std::byte{0});
    EXPECT_NE(tt::rt::wire_checksum(longer.data(), longer.size()), base)
        << extra << " zero bytes appended";
  }
}

TEST(Wire, TruncatedMessageThrowsOnEveryFieldType) {
  WireWriter w;
  w.u64(42);
  std::vector<std::byte> torn(w.bytes().begin(), w.bytes().end() - 3);
  WireReader r(torn);
  EXPECT_THROW(r.u64(), Error);

  // A string whose length prefix promises more bytes than the buffer holds.
  WireWriter ws;
  ws.str("abcdefgh");
  std::vector<std::byte> torn_str(ws.bytes().begin(), ws.bytes().end() - 4);
  WireReader rs(torn_str);
  EXPECT_THROW(rs.str(), Error);

  // A tensor whose payload was cut mid-block.
  Rng rng(8);
  WireWriter wt;
  wt.tensor(DenseTensor::random({4, 4}, rng));
  std::vector<std::byte> torn_t(wt.bytes().begin(), wt.bytes().end() - 8);
  WireReader rt(torn_t);
  EXPECT_THROW(rt.tensor(), Error);
}

TEST(Wire, OversizedLengthPrefixIsRejectedNotAllocated) {
  // A corrupted length prefix must throw, not attempt a huge allocation.
  WireWriter w;
  w.u64(std::numeric_limits<std::uint64_t>::max());  // bogus string length
  WireReader r(w.bytes());
  EXPECT_THROW(r.str(), Error);
}

TEST(Wire, LengthPrefixBeyondTheMessageIsRejectedBeforeAllocating) {
  // Prefixes under the 1 GiB field cap that promise more bytes than the
  // message holds: each must throw on the claim itself, before the reader
  // allocates (and zero-fills) the claimed size.
  WireWriter ws;
  ws.u64(std::uint64_t{1} << 29);  // 512 MiB string in an 8-byte message
  WireReader rs(ws.bytes());
  try {
    (void)rs.str();
    FAIL() << "oversized string claim was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("claims"), std::string::npos) << e.what();
  }

  WireWriter wl;
  wl.u64(std::uint64_t{1} << 27);  // 512 MiB of int32s
  WireReader rl(wl.bytes());
  EXPECT_THROW((void)rl.i32_list(), Error);

  WireWriter wt;
  wt.u64(2);
  wt.i64(std::int64_t{1} << 13);
  wt.i64(std::int64_t{1} << 13);  // 2^26 doubles = 512 MiB
  WireReader rt(wt.bytes());
  EXPECT_THROW((void)rt.tensor(), Error);
}

TEST(Wire, TensorWithOverflowingDimProductIsRejected) {
  // A corrupt shape whose element count overflows 64 bits (64 dims of 2^40)
  // must throw cleanly before DenseTensor multiplies the dims or allocates.
  WireWriter w;
  w.u64(64);
  for (int i = 0; i < 64; ++i) w.i64(std::int64_t{1} << 40);
  WireReader r(w.bytes());
  EXPECT_THROW(r.tensor(), Error);

  // Non-overflowing product just past the payload cap (2^27 + 2^15 doubles
  // against the 2^27-element = 1 GiB limit): same clean rejection.
  WireWriter w2;
  w2.u64(2);
  w2.i64(std::int64_t{1} << 15);
  w2.i64((std::int64_t{1} << 12) + 1);
  WireReader r2(w2.bytes());
  EXPECT_THROW(r2.tensor(), Error);
}

TEST(Wire, ListLengthOverflowIsRejected) {
  // n * sizeof(uint32) wraps to a small value for n >= 2^62; the guard must
  // reject the length itself, not the wrapped product.
  WireWriter w;
  w.u64(std::uint64_t{1} << 62);
  WireReader r(w.bytes());
  EXPECT_THROW(r.i32_list(), Error);
}

TEST(Wire, TensorWithNegativeDimIsRejected) {
  WireWriter w;
  w.i64(2);   // order
  w.i64(-3);  // dims
  w.i64(4);
  WireReader r(w.bytes());
  EXPECT_THROW(r.tensor(), Error);
}

TEST(Wire, EmptyMessageIsDoneImmediately) {
  const std::vector<std::byte> empty;
  WireReader r(empty);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u32(), Error);
}

}  // namespace
