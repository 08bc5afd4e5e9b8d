// Byte-level message encoding for the distributed scheduler's transport.
//
// Fixed-width little-endian fields appended/consumed in call order; doubles
// travel as raw IEEE-754 bit patterns (memcpy, never text) so a value read
// on the far side is bitwise identical to the value written — the rank-parity
// invariant of the scheduler depends on this. The reader bounds-checks every
// access and throws tt::Error on truncated or oversized fields; a
// variable-length field's length prefix is checked against the bytes actually
// left in the message *before* anything is allocated, so a torn or mutated
// frame surfaces as a clean error, never as garbage data or a huge
// allocation. Writers that know their message size up front reserve() it, so
// a payload is built in one buffer and never regrown.
//
// wire_checksum is the frame checksum (runtime/transport.hpp) and the
// checkpoint snapshot checksum (dmrg/checkpoint.hpp): an XXH64-style hash
// over four independent 64-bit lanes, so it runs at memory speed rather than
// one byte per multiply.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/types.hpp"
#include "tensor/dense.hpp"

namespace tt::rt {

/// 64-bit checksum of a byte range: XXH64 with seed 0. Four lanes each
/// consume one 8-byte little-endian word per 32-byte stripe (loaded with
/// memcpy, so the value never depends on the buffer's alignment) through a
/// multiply-rotate round; the differently seeded lanes fold in a fixed,
/// non-symmetric order, then the length and the tail bytes, then a final
/// avalanche. Any single-bit change, any swap of words between lanes and any
/// change of length changes the value. Used as the frame payload checksum (a
/// corrupt frame must surface as a clean error, not garbage tensors) and as
/// the snapshot checksum in dmrg::CheckpointManager. Not cryptographic — it
/// detects accidental corruption, not an adversary.
std::uint64_t wire_checksum(const std::byte* p, std::size_t n);

/// Append-only message builder.
class WireWriter {
 public:
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(const std::string& s);
  void i32_list(const std::vector<int>& v);

  /// shape as i64 list, then the payload as raw doubles.
  void tensor(const tensor::DenseTensor& t);

  /// Encoded sizes of the variable-length fields, for reserve().
  static std::size_t str_bytes(const std::string& s) { return 8 + s.size(); }
  static std::size_t tensor_bytes(const tensor::DenseTensor& t);

  /// Reserve room for `n` more bytes, so a writer that sizes its message up
  /// front serializes it without regrowing and re-copying the buffer.
  void reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }

  const std::vector<std::byte>& bytes() const { return buf_; }

  /// Surrender the built payload. Fault point `wire.truncate` (evaluated with
  /// no rank/side context) drops the trailing half here, so the far side sees
  /// a frame that *arrives* intact but fails to parse.
  std::vector<std::byte> take();

  std::size_t size() const { return buf_.size(); }

 private:
  void raw(const void* p, std::size_t n);

  std::vector<std::byte> buf_;
};

/// Sequential bounds-checked reader over one received message.
class WireReader {
 public:
  explicit WireReader(const std::vector<std::byte>& buf) : buf_(buf) {}

  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();
  std::vector<int> i32_list();
  tensor::DenseTensor tensor();

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool done() const { return pos_ == buf_.size(); }

 private:
  void raw(void* p, std::size_t n);

  const std::vector<std::byte>& buf_;
  std::size_t pos_ = 0;
};

}  // namespace tt::rt
