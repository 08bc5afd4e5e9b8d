#include "dmrg/environment.hpp"

namespace tt::dmrg {

using symm::BlockTensor;
using symm::Dir;
using symm::Index;
using symm::QN;

BlockTensor left_boundary(int qn_rank) {
  const QN zero = QN::zero(qn_rank);
  BlockTensor e({Index::single(zero, 1, Dir::In), Index::single(zero, 1, Dir::Out),
                 Index::single(zero, 1, Dir::Out)},
                zero);
  e.block({0, 0, 0})[0] = 1.0;
  return e;
}

BlockTensor right_boundary(const QN& total) {
  const QN zero = QN::zero(total.rank());
  BlockTensor e({Index::single(total, 1, Dir::Out), Index::single(zero, 1, Dir::In),
                 Index::single(total, 1, Dir::In)},
                zero);
  e.block({0, 0, 0})[0] = 1.0;
  return e;
}

BlockTensor extend_left(ContractionEngine& eng, const BlockTensor& left,
                        const BlockTensor& psi_j, const BlockTensor& w_j) {
  // L(bra,mpo,ket) · ψ†(l,s,r) over bra  → (mpo, ket, s_bra, r_bra)
  BlockTensor t1 =
      eng.contract(left, Role::kOperator, psi_j.dagger(), Role::kOperator, {{0, 0}});
  // · W(k,s,s',k') over (mpo,k),(s_bra,s) → (ket, r_bra, s', k')
  BlockTensor t2 =
      eng.contract(t1, Role::kOperator, w_j, Role::kOperator, {{0, 0}, {2, 1}});
  t1 = BlockTensor();  // consumed: release before the last step allocates
  // · ψ(l,s,r) over (ket,l),(s',s)        → (r_bra, k', r_ket)
  return eng.contract(t2, Role::kOperator, psi_j, Role::kOperator, {{0, 0}, {2, 1}});
}

BlockTensor extend_right(ContractionEngine& eng, const BlockTensor& right,
                         const BlockTensor& psi_j, const BlockTensor& w_j) {
  // ψ†(l,s,r) · R(bra,mpo,ket) over (r,bra) → (l_bra, s_bra, mpo, ket)
  BlockTensor t1 =
      eng.contract(psi_j.dagger(), Role::kOperator, right, Role::kOperator, {{2, 0}});
  // · W(k,s,s',k') over (mpo,k'),(s_bra,s)  → (l_bra, ket, k, s')
  BlockTensor t2 =
      eng.contract(t1, Role::kOperator, w_j, Role::kOperator, {{2, 3}, {1, 1}});
  t1 = BlockTensor();  // consumed: release before the last step allocates
  // · ψ(l,s,r) over (ket,r),(s',s)          → (l_bra, k, l_ket)
  return eng.contract(t2, Role::kOperator, psi_j, Role::kOperator, {{1, 2}, {3, 1}});
}

BlockTensor apply_two_site(ContractionEngine& eng, const BlockTensor& left,
                           const BlockTensor& w1, const BlockTensor& w2,
                           const BlockTensor& right, const BlockTensor& x) {
  // L(bra,mpo,ket) · x(l,s1,s2,r) over (ket,l) → (bra, mpo, s1, s2, r)
  BlockTensor t1 =
      eng.contract(left, Role::kOperator, x, Role::kIntermediate, {{2, 0}});
  // · W1(k,s,s',k') over (mpo,k),(s1,s')       → (bra, s2, r, s1', k')
  BlockTensor t2 =
      eng.contract(t1, Role::kIntermediate, w1, Role::kOperator, {{1, 0}, {2, 2}});
  t1 = BlockTensor();  // consumed: at most two intermediates are ever alive
  // · W2 over (k',k),(s2,s')                   → (bra, r, s1', s2', k'')
  BlockTensor t3 =
      eng.contract(t2, Role::kIntermediate, w2, Role::kOperator, {{4, 0}, {1, 2}});
  t2 = BlockTensor();  // consumed
  // · R(bra,mpo,ket) over (r,ket),(k'',mpo)    → (bra, s1', s2', r_bra)
  return eng.contract(t3, Role::kIntermediate, right, Role::kOperator,
                      {{1, 2}, {4, 1}});
}

}  // namespace tt::dmrg
