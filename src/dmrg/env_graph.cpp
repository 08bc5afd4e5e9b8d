#include "dmrg/env_graph.hpp"

#include "dmrg/environment.hpp"
#include "runtime/trace.hpp"
#include "support/error.hpp"

namespace tt::dmrg {

using symm::BlockTensor;

EnvGraph::EnvGraph(ContractionEngine& eng, const mps::Mps& psi, const mps::Mpo& h,
                   ContractionEngine* builder)
    : eng_(eng), psi_(psi), h_(h), n_(psi.size()) {
  TT_CHECK(n_ == h.size(), "MPS/MPO size mismatch");
  left_.resize(static_cast<std::size_t>(n_) + 1);
  right_.resize(static_cast<std::size_t>(n_) + 1);
  left_[0].t = left_boundary(psi.sites()->qn_rank());
  left_[0].state = NodeState::kValid;
  right_[static_cast<std::size_t>(n_)].t = right_boundary(psi.total_qn());
  right_[static_cast<std::size_t>(n_)].state = NodeState::kValid;
  ContractionEngine& build_eng = builder ? *builder : eng_;
  for (int j = n_ - 1; j >= 1; --j) {
    right_[static_cast<std::size_t>(j)].t =
        extend_right(build_eng, right_[static_cast<std::size_t>(j) + 1].t,
                     psi.site(j), h.site(j));
    right_[static_cast<std::size_t>(j)].state = NodeState::kValid;
  }
  for (int j = 0; j + 1 < n_; ++j) {
    left_[static_cast<std::size_t>(j) + 1].t =
        extend_left(build_eng, left_[static_cast<std::size_t>(j)].t, psi.site(j),
                    h.site(j));
    left_[static_cast<std::size_t>(j) + 1].state = NodeState::kValid;
  }
}

const BlockTensor& EnvGraph::left(int j) { return demand(true, j); }
const BlockTensor& EnvGraph::right(int j) { return demand(false, j); }

const BlockTensor& EnvGraph::demand(bool is_left, int j) {
  TT_CHECK(j >= 0 && j <= n_,
           "env " << j << " out of range (" << (is_left ? "left" : "right") << ")");
  std::vector<Node>& nodes = chain(is_left);
  // Walk toward the boundary until a valid ancestor; the boundary node is
  // always valid, so the walk terminates.
  int k = j;
  while (nodes[static_cast<std::size_t>(k)].state != NodeState::kValid) {
    k += is_left ? -1 : 1;
    TT_CHECK(k >= 0 && k <= n_, "environment boundary node was invalidated");
  }
  // Recompute the invalid suffix of the chain, ancestor first.
  if (is_left) {
    for (int i = k + 1; i <= j; ++i) produce(true, i);
  } else {
    for (int i = k - 1; i >= j; --i) produce(false, i);
  }
  return nodes[static_cast<std::size_t>(j)].t;
}

void EnvGraph::produce(bool is_left, int j) {
  TT_TRACE_SPAN("env.extend", rt::TraceCat::kEnv);
  std::vector<Node>& nodes = chain(is_left);
  Node& node = nodes[static_cast<std::size_t>(j)];
  if (is_left) {
    // left(j) = left(j-1) extended over site j-1.
    node.t = extend_left(eng_, nodes[static_cast<std::size_t>(j) - 1].t,
                         psi_.site(j - 1), h_.site(j - 1));
  } else {
    // right(j) = right(j+1) extended over site j.
    node.t = extend_right(eng_, nodes[static_cast<std::size_t>(j) + 1].t,
                          psi_.site(j), h_.site(j));
  }
  node.state = NodeState::kValid;
}

void EnvGraph::site_changed(int j) {
  TT_CHECK(j >= 0 && j < n_, "site " << j << " out of range");
  for (int k = j + 1; k <= n_; ++k)
    left_[static_cast<std::size_t>(k)].state = NodeState::kInvalid;
  for (int k = 0; k <= j; ++k)
    right_[static_cast<std::size_t>(k)].state = NodeState::kInvalid;
}

void EnvGraph::invalidate_all() {
  for (int k = 1; k <= n_; ++k)
    left_[static_cast<std::size_t>(k)].state = NodeState::kInvalid;
  for (int k = 0; k < n_; ++k)
    right_[static_cast<std::size_t>(k)].state = NodeState::kInvalid;
}

EnvGraph::NodeState EnvGraph::left_state(int j) const {
  TT_CHECK(j >= 0 && j <= n_, "left env " << j << " out of range");
  return left_[static_cast<std::size_t>(j)].state;
}

EnvGraph::NodeState EnvGraph::right_state(int j) const {
  TT_CHECK(j >= 0 && j <= n_, "right env " << j << " out of range");
  return right_[static_cast<std::size_t>(j)].state;
}

}  // namespace tt::dmrg
