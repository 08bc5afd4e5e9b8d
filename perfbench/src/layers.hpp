// Engine decorator that attributes every contraction and SVD of a DMRG solve
// to the layer that issued it.
//
// The sweep only talks to its ContractionEngine through contract() and svd(),
// and tags each operand with a Role. The Role pair is enough to tell the
// three engine-level layers apart without touching the library:
//
//   matvec — any kIntermediate operand: the Davidson H·x network and the
//            two-site theta formation.
//   env    — only kOperator operands: environment extension.
//   svd    — every svd() call: the truncation split.
//
// Each call is timed with steady_clock and charged the flop delta of the
// inner engine's cost tracker, which counts flops deterministically.
#pragma once

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "dmrg/engine.hpp"

namespace perfbench {

enum class Layer { kMatvec = 0, kEnv = 1, kSvd = 2 };
constexpr int kNumLayers = 3;

/// Stable metric prefix of a layer ("matvec", "env", "svd").
const char* layer_name(Layer l);

/// The contraction layer of an operand pair (see file comment).
Layer classify(tt::dmrg::Role a, tt::dmrg::Role b);

/// Accumulated cost of one layer.
struct LayerTotals {
  double seconds = 0.0;
  long calls = 0;
  double flops = 0.0;
};

/// Forwards contract()/svd() to an owned inner engine and accumulates
/// LayerTotals per layer. Configure threads and the scheduler on the inner
/// engine before wrapping it.
class TimedEngine final : public tt::dmrg::ContractionEngine {
 public:
  explicit TimedEngine(std::unique_ptr<tt::dmrg::ContractionEngine> inner);

  tt::dmrg::EngineKind kind() const override { return inner_->kind(); }

  tt::symm::BlockTensor contract(
      const tt::symm::BlockTensor& a, tt::dmrg::Role role_a,
      const tt::symm::BlockTensor& b, tt::dmrg::Role role_b,
      const std::vector<std::pair<int, int>>& pairs) override;

  tt::symm::BlockSvd svd(const tt::symm::BlockTensor& a,
                         const std::vector<int>& row_modes,
                         const tt::symm::TruncParams& trunc) override;

  const LayerTotals& totals(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }
  void reset() { totals_ = {}; }

 private:
  std::unique_ptr<tt::dmrg::ContractionEngine> inner_;
  std::array<LayerTotals, kNumLayers> totals_{};
};

}  // namespace perfbench
