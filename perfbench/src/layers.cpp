#include "layers.hpp"

#include <chrono>

namespace perfbench {

using tt::dmrg::Role;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kMatvec: return "matvec";
    case Layer::kEnv: return "env";
    case Layer::kSvd: return "svd";
  }
  return "?";
}

Layer classify(Role a, Role b) {
  return (a == Role::kIntermediate || b == Role::kIntermediate) ? Layer::kMatvec
                                                                : Layer::kEnv;
}

TimedEngine::TimedEngine(std::unique_ptr<tt::dmrg::ContractionEngine> inner)
    : ContractionEngine(inner->cluster(), inner->params()),
      inner_(std::move(inner)) {}

tt::symm::BlockTensor TimedEngine::contract(
    const tt::symm::BlockTensor& a, Role role_a, const tt::symm::BlockTensor& b,
    Role role_b, const std::vector<std::pair<int, int>>& pairs) {
  LayerTotals& t = totals_[static_cast<std::size_t>(classify(role_a, role_b))];
  const double flops0 = inner_->tracker().flops();
  const double t0 = now_seconds();
  tt::symm::BlockTensor c = inner_->contract(a, role_a, b, role_b, pairs);
  t.seconds += now_seconds() - t0;
  t.flops += inner_->tracker().flops() - flops0;
  ++t.calls;
  return c;
}

tt::symm::BlockSvd TimedEngine::svd(const tt::symm::BlockTensor& a,
                                    const std::vector<int>& row_modes,
                                    const tt::symm::TruncParams& trunc) {
  LayerTotals& t = totals_[static_cast<std::size_t>(Layer::kSvd)];
  const double flops0 = inner_->tracker().flops();
  const double t0 = now_seconds();
  tt::symm::BlockSvd f = inner_->svd(a, row_modes, trunc);
  t.seconds += now_seconds() - t0;
  t.flops += inner_->tracker().flops() - flops0;
  ++t.calls;
  return f;
}

}  // namespace perfbench
