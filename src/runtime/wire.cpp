#include "runtime/wire.hpp"

#include <cstring>

#include "runtime/fault.hpp"

namespace tt::rt {

namespace {

// Upper bound on any single variable-length field (1 GiB of payload). Guards
// the reader against allocating absurd sizes out of a corrupt length prefix.
constexpr std::uint64_t kMaxFieldBytes = std::uint64_t{1} << 30;

// XXH64 primes.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

constexpr std::uint64_t rotl(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

// One lane step: bijective in both the lane state and the word.
constexpr std::uint64_t lane_round(std::uint64_t acc, std::uint64_t word) {
  return rotl(acc + word * kP2, 31) * kP1;
}

constexpr std::uint64_t merge(std::uint64_t h, std::uint64_t lane) {
  return (h ^ lane_round(0, lane)) * kP1 + kP4;
}

// Native loads through memcpy: alignment-free, and the wire is little-endian
// on every host this runtime targets (see file header of wire.hpp).
std::uint64_t load64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t load32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Bytes a variable-length field claims, checked against both the field cap
// and what the message still holds — before the caller allocates anything.
void check_claim(std::uint64_t claimed_bytes, std::size_t remaining, const char* what) {
  TT_CHECK(claimed_bytes <= kMaxFieldBytes,
           "wire " << what << " of " << claimed_bytes << " bytes exceeds limit");
  TT_CHECK(claimed_bytes <= remaining, "wire message truncated: " << what << " claims "
                                                                 << claimed_bytes
                                                                 << " bytes, "
                                                                 << remaining
                                                                 << " remain");
}

}  // namespace

std::uint64_t wire_checksum(const std::byte* p, std::size_t n) {
  const std::byte* const end = p + n;
  std::uint64_t h;
  if (n >= 32) {
    std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    for (const std::byte* const last = end - 32; p <= last; p += 32) {
      v1 = lane_round(v1, load64(p));
      v2 = lane_round(v2, load64(p + 8));
      v3 = lane_round(v3, load64(p + 16));
      v4 = lane_round(v4, load64(p + 24));
    }
    h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
    h = merge(merge(merge(merge(h, v1), v2), v3), v4);
  } else {
    h = kP5;
  }
  h += static_cast<std::uint64_t>(n);
  for (; end - p >= 8; p += 8) h = rotl(h ^ lane_round(0, load64(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    h = rotl(h ^ (std::uint64_t{load32(p)} * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p)
    h = rotl(h ^ (std::to_integer<std::uint64_t>(*p) * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

std::vector<std::byte> WireWriter::take() {
  if (FaultInjector::instance().should_fire("wire.truncate"))
    buf_.resize(buf_.size() / 2);
  return std::move(buf_);
}

void WireWriter::raw(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  buf_.insert(buf_.end(), b, b + n);
}

void WireWriter::str(const std::string& s) {
  u64(s.size());
  raw(s.data(), s.size());
}

void WireWriter::i32_list(const std::vector<int>& v) {
  u64(v.size());
  for (int x : v) u32(static_cast<std::uint32_t>(x));
}

std::size_t WireWriter::tensor_bytes(const tensor::DenseTensor& t) {
  return 8 + 8 * static_cast<std::size_t>(t.order()) +
         static_cast<std::size_t>(t.size()) * sizeof(double);
}

void WireWriter::tensor(const tensor::DenseTensor& t) {
  u64(static_cast<std::uint64_t>(t.order()));
  for (int m = 0; m < t.order(); ++m) i64(t.dim(m));
  raw(t.data(), static_cast<std::size_t>(t.size()) * sizeof(double));
}

void WireReader::raw(void* p, std::size_t n) {
  TT_CHECK(pos_ + n <= buf_.size(),
           "wire message truncated: need " << n << " bytes at offset " << pos_
                                           << " of " << buf_.size());
  if (n == 0) return;  // an empty tensor's data() may be null
  std::memcpy(p, buf_.data() + pos_, n);
  pos_ += n;
}

std::uint32_t WireReader::u32() {
  std::uint32_t v;
  raw(&v, sizeof v);
  return v;
}

std::uint64_t WireReader::u64() {
  std::uint64_t v;
  raw(&v, sizeof v);
  return v;
}

std::int64_t WireReader::i64() {
  std::int64_t v;
  raw(&v, sizeof v);
  return v;
}

double WireReader::f64() {
  double v;
  raw(&v, sizeof v);
  return v;
}

std::string WireReader::str() {
  const std::uint64_t n = u64();
  check_claim(n, remaining(), "string");
  std::string s(static_cast<std::size_t>(n), '\0');
  raw(s.data(), s.size());
  return s;
}

std::vector<int> WireReader::i32_list() {
  const std::uint64_t n = u64();
  // Divide, don't multiply: n * sizeof(uint32) wraps for n >= 2^62.
  TT_CHECK(n <= kMaxFieldBytes / sizeof(std::uint32_t),
           "wire list length " << n << " exceeds limit");
  check_claim(n * sizeof(std::uint32_t), remaining(), "list");
  std::vector<int> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<int>(u32());
  return v;
}

tensor::DenseTensor WireReader::tensor() {
  const std::uint64_t order = u64();
  TT_CHECK(order <= 64, "wire tensor order " << order << " exceeds limit");
  // Bound the element count with overflow-safe math *before* constructing
  // the DenseTensor: its constructor multiplies the dims unchecked (signed
  // overflow UB for a corrupt shape) and allocates the product.
  constexpr std::uint64_t kMaxElems = kMaxFieldBytes / sizeof(double);
  std::vector<index_t> shape(static_cast<std::size_t>(order));
  std::uint64_t elems = 1;
  for (auto& d : shape) {
    d = i64();
    TT_CHECK(d >= 0, "wire tensor has negative dimension " << d);
    if (d == 0) {
      elems = 0;
    } else if (elems != 0) {
      TT_CHECK(static_cast<std::uint64_t>(d) <= kMaxElems / elems,
               "wire tensor payload exceeds limit");
      elems *= static_cast<std::uint64_t>(d);
    }
  }
  check_claim(elems * sizeof(double), remaining(), "tensor payload");
  tensor::DenseTensor t(std::move(shape));
  raw(t.data(), static_cast<std::size_t>(elems) * sizeof(double));
  return t;
}

}  // namespace tt::rt
