// Payload codecs of the distributed block scheduler's task and result frames
// (runtime/scheduler.hpp). The root encodes one task per worker per
// contraction; the worker parses it, executes the bins and encodes one result.
// Both encoders size their payload from block shapes before writing it
// (WireWriter::reserve), so a frame is serialized into one buffer of exactly
// its final size. Both parsers treat the payload as untrusted: every count
// that sizes an allocation is bounded by the bytes left in the frame, and any
// malformed payload throws tt::Error (tests/runtime/test_wire_fuzz.cpp).
//
// Task payload: spec str, worker threads u32, collect_ops u32,
//   kill_before_result u32, fail_task u32, timeout f64,
//   |A table| u64 + tensors, |B table| u64 + tensors,
//   |bins| u64 + per bin (global id u64, |pairs| u64, pairs as 2×u32).
// Result payload: busy seconds f64, |bins| u64 + per bin (global id u64,
//   flops f64, permuted words f64, |ops| u64 + 4×f64 per op, result tensor),
//   then the worker's decode + encode seconds f64.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/wire.hpp"
#include "symm/block_ops.hpp"
#include "tensor/einsum.hpp"

namespace tt::rt {

/// Root-side content of one task frame. Tables point at the operand blocks
/// this worker needs; bins reference them by table index.
struct TaskFrame {
  std::string spec;
  int threads = 1;
  bool collect_ops = false;
  bool kill_before_result = false;
  bool fail_task = false;
  double timeout_seconds = 0.0;
  std::vector<const tensor::DenseTensor*> table_a, table_b;
  struct Bin {
    std::uint64_t id = 0;  ///< global bin id, root's order
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;  ///< (A, B) table indices
  };
  std::vector<Bin> bins;
};

std::vector<std::byte> encode_task(const TaskFrame& task);

/// Worker-side view of one parsed task: operand block tables plus bins
/// referencing them. Tensor storage is owned here; bins point into it. The
/// two fault flags are decided by the *root* (fault points
/// worker.kill_before_result / worker.fail_task) and shipped in the frame, so
/// their nth/count counters are exact in both spawn modes — a fork()ed
/// worker's own injector copy would count per-process.
struct WorkerTask {
  tensor::EinsumLowering lowering;  // the shipped spec, lowered once per task
  int threads = 1;
  bool collect_ops = false;
  bool kill_before_result = false;
  bool fail_task = false;
  double timeout_seconds = 0.0;
  std::vector<tensor::DenseTensor> table_a, table_b;
  std::vector<std::uint64_t> bin_index;  // global bin ids, root's order
  std::vector<symm::OutputBin> bins;     // keys unused (wire ships no keys)
};

WorkerTask parse_task(const std::vector<std::byte>& payload);

/// Result payload for the bins of `task` (done[i] is bin task.bin_index[i]).
/// `decode_seconds` is the worker's task-parse time; the worker's own encode
/// time is added to it and shipped as the trailing codec field.
std::vector<std::byte> encode_result(const WorkerTask& task, double busy_seconds,
                                     const std::vector<symm::BinExecution>& done,
                                     double decode_seconds);

/// One parsed result frame.
struct WorkerReply {
  double busy_seconds = 0.0;
  double codec_seconds = 0.0;           ///< worker decode + encode wall
  std::vector<symm::BinExecution> bins;  ///< in the order of `expect`
};

/// Parse a result frame whose bins must be exactly `expect`, in order.
WorkerReply parse_result(const std::vector<std::byte>& payload,
                         const std::vector<std::size_t>& expect);

}  // namespace tt::rt
