// The environment dependency graph.
//
// Every left/right environment of a site is an explicit node:
//
//   left(0) → left(1) → ... → left(N)        left(j) covers sites < j,
//   right(N) → right(N-1) → ... → right(0)   right(j) covers sites >= j,
//
// with a dependency edge from each node to its neighbour toward the chain
// interior (left(j+1) depends on left(j) and site j; right(j) depends on
// right(j+1) and site j). Nodes carry a validity state; mutating a site
// through site_changed(j) invalidates exactly the nodes whose cone contains
// j (left(k) for k > j, right(k) for k <= j). Accessors are *demands*: an
// invalid node is recomputed on the spot from its nearest valid ancestor
// through the main engine, so consumers never see a stale environment and
// never issue hand-ordered update calls.
#pragma once

#include <vector>

#include "dmrg/engine.hpp"
#include "mps/mpo.hpp"
#include "mps/mps.hpp"

namespace tt::dmrg {

/// Dependency-graph environment cache for a full sweep over psi/h.
class EnvGraph {
 public:
  enum class NodeState {
    kInvalid,  ///< cone contains a changed site; recomputed on demand
    kValid,    ///< tensor matches the current state of psi
  };

  /// Builds every interior node eagerly (the classic stack construction).
  /// When `builder` is non-null it executes this initial, amortized
  /// construction while `eng` remains the engine for all later production —
  /// the benches use a fast reference builder so a measured step reflects
  /// only the target engine.
  EnvGraph(ContractionEngine& eng, const mps::Mps& psi, const mps::Mpo& h,
           ContractionEngine* builder = nullptr);

  EnvGraph(const EnvGraph&) = delete;
  EnvGraph& operator=(const EnvGraph&) = delete;

  /// Environment of everything left of site j (contains sites 0..j-1).
  /// Demands production: invalid ancestors are recomputed through the engine.
  const symm::BlockTensor& left(int j);
  /// Environment of everything right of site j (contains sites j..N-1).
  const symm::BlockTensor& right(int j);

  /// Site j's tensor changed: invalidate every node whose cone contains j.
  void site_changed(int j);

  /// Invalidate every interior node (e.g. after re-canonicalizing psi).
  void invalidate_all();

  NodeState left_state(int j) const;
  NodeState right_state(int j) const;

  int size() const { return n_; }

 private:
  struct Node {
    symm::BlockTensor t;
    NodeState state = NodeState::kInvalid;
  };

  const symm::BlockTensor& demand(bool is_left, int j);
  void produce(bool is_left, int j);  // one edge, main engine
  std::vector<Node>& chain(bool is_left) { return is_left ? left_ : right_; }

  ContractionEngine& eng_;
  const mps::Mps& psi_;
  const mps::Mpo& h_;
  int n_ = 0;
  std::vector<Node> left_;   // left_[j] covers sites < j
  std::vector<Node> right_;  // right_[j] covers sites >= j
};

}  // namespace tt::dmrg
