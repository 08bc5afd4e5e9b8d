// Einstein-summation contraction of two tensors (dense and sparse kernels).
//
// This is the contraction interface of the Cyclops stand-in: a spec string
// like "akb,bscd->aksc" names each mode with one character; labels shared by
// both inputs and absent from the output are summed. Execution follows CTF:
// permute operands into matrix layout, GEMM (or an SpGEMM-style kernel for
// sparse operands), permute the result back.
//
// The dense path is split in two. lower_einsum() runs once per spec: it
// classifies the modes and decides, per operand, whether it reaches the GEMM
// as-is, as a transpose flag (gemm_raw transa/transb, absorbed for free by
// the backends), or through a permuted copy. einsum_accumulate() then runs
// C += op(A)·op(B) for any number of operand pairs of that spec — the block
// executor (symm/block_ops.hpp) lowers once per contraction and accumulates
// every block pair of an output block straight into it. Permuted copies go
// into per-thread scratch, so einsum_accumulate() allocates nothing once warm
// (operands above 2 MB excepted). The public einsum() is lower + accumulate
// over the same code.
//
// Restrictions (checked): no repeated label within one operand (no traces) and
// no label present in both inputs *and* the output (no batch/Hadamard modes).
// DMRG needs neither.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/dense.hpp"
#include "tensor/sparse.hpp"

namespace tt::tensor {

/// Parsed einsum specification.
struct EinsumSpec {
  std::string a, b, c;

  /// Parse "ab,bc->ac"; throws tt::Error on malformed specs.
  static EinsumSpec parse(const std::string& spec);
};

/// Execution metadata, consumed by the runtime cost model.
struct EinsumStats {
  double flops = 0.0;           ///< 2·(scalar multiplies)
  double permuted_words = 0.0;  ///< elements moved by layout permutations
  /// Operands whose permutation was a pure matrix transpose and lowered to a
  /// gemm_raw trans flag instead of a materialized copy (dense path); such
  /// operands do not contribute to permuted_words.
  int lowered_transposes = 0;
  index_t m = 0, n = 0, k = 0;  ///< matricized GEMM dimensions (dense path)
};

/// How one dense operand reaches the GEMM.
enum class OperandRoute : std::uint8_t {
  kAsIs,       ///< stored as op(X) already
  kTranspose,  ///< stored as op(X)ᵀ: a gemm_raw trans flag, no copy
  kPermute,    ///< needs a permuted copy (per-thread scratch)
};

/// Shape-independent lowering of a spec onto one GEMM. Mode positions refer
/// to the operands' modes; op(A) is [free_a, con_a] and op(B) [con_b, free_b]
/// in row-major order, and the GEMM writes C as [free_a, free_b].
struct EinsumLowering {
  std::vector<int> free_a, con_a;  ///< mode positions within A
  std::vector<int> con_b, free_b;  ///< mode positions within B (con_b pairs con_a)
  std::vector<int> perm_a;         ///< [free_a, con_a]: A's permutation to op(A)
  std::vector<int> perm_b;         ///< [con_b, free_b]: B's permutation to op(B)
  std::vector<int> perm_c;         ///< GEMM order [free_a, free_b] → spec output order
  OperandRoute route_a = OperandRoute::kAsIs;
  OperandRoute route_b = OperandRoute::kAsIs;
  bool c_identity = true;          ///< spec output order is the GEMM order
};

/// Validate `spec` and lower it (depends on the labels only, not on shapes).
EinsumLowering lower_einsum(const EinsumSpec& spec);
EinsumLowering lower_einsum(const std::string& spec);

/// Shape of the GEMM output [free(A) dims, free(B) dims] for operands of
/// shapes `sa` and `sb` (orders as the lowering expects; unchecked).
std::vector<index_t> gemm_output_shape(const EinsumLowering& low,
                                       const std::vector<index_t>& sa,
                                       const std::vector<index_t>& sb);

/// c += op(A)·op(B) in place, with `c` shaped as gemm_output_shape() gives for
/// a and b — the spec's output layout when low.c_identity. One gemm_raw with beta = 1;
/// operands routed kPermute are copied into per-thread scratch first. Shapes
/// are checked against the lowering. `stats` receives this call's flops,
/// permuted words, lowered transposes and GEMM dims (flops and words add up).
void einsum_accumulate(const EinsumLowering& low, const DenseTensor& a,
                       const DenseTensor& b, DenseTensor& c,
                       EinsumStats* stats = nullptr);

/// Dense × dense → dense.
DenseTensor einsum(const std::string& spec, const DenseTensor& a,
                   const DenseTensor& b, EinsumStats* stats = nullptr);

/// Sparse × sparse → sparse. If `out_mask` is non-null, only locations present
/// in the mask are accumulated (the paper's precomputed output sparsity, which
/// Cyclops uses to bound memory during sparse contraction).
SparseTensor einsum_ss(const std::string& spec, const SparseTensor& a,
                       const SparseTensor& b, EinsumStats* stats = nullptr,
                       const SparseTensor* out_mask = nullptr);

/// Sparse × dense → dense.
DenseTensor einsum_sd(const std::string& spec, const SparseTensor& a,
                      const DenseTensor& b, EinsumStats* stats = nullptr);

/// Dense × sparse → dense.
DenseTensor einsum_ds(const std::string& spec, const DenseTensor& a,
                      const SparseTensor& b, EinsumStats* stats = nullptr);

}  // namespace tt::tensor
