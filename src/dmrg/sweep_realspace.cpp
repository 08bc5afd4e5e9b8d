// Real-space parallel sweep (SweepMode::kRealSpace), à la Stoudenmire–White.
//
// The chain splits into R contiguous regions that optimize concurrently, each
// against *frozen* boundary environments, then the R−1 boundary bonds are
// reconciled serially. The exact gauge decomposition behind it: with ψ in
// right-canonical (B) gauge and an A-gauge QR walk from the left recording the
// cumulative bond factor T_b at each region boundary bond b (so that
// A_0…A_b·T_b = M_0…M_b telescopes exactly),
//
//   ψ = [A_0…A_{a_r−1}] · (T_{b_{r−1}} · M_{a_r} … M_{b_r}) · [M_{b_r+1}…]
//
// for every region r = [a_r, b_r]. The bracketed exteriors are orthonormal
// (A from the left, B from the right), so each region's piece — the middle
// factor — is a well-posed local DMRG problem between the frozen environments
// Lfrz[r] (built over the A sites) and Rfrz[r] (the B-gauge right
// environment). Workers run a full local two-site L2R+R2L pass; the updated
// pieces are glued back with the pseudo-inverses T_b⁺ (exact for unmodified
// pieces, since M_0…M_b·T_b⁺·T_b = A_0…A_b·T_b·T_b⁺·T_b = M_0…M_b), and a
// serial pass re-optimizes each boundary bond to heal the seams.
//
// Determinism: regions are data-independent during the parallel phase (frozen
// inputs, disjoint outputs, one engine per region), every in-region op runs
// in a fixed serial order (workers execute inside the pool, so nested
// parallelism is inline), and the per-region trackers are merged in region
// order — results are bitwise reproducible at any TT_THREADS.
#include <algorithm>
#include <utility>
#include <vector>

#include "dmrg/dmrg.hpp"
#include "dmrg/environment.hpp"
#include "linalg/svd.hpp"
#include "runtime/trace.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace tt::dmrg {

namespace {

using symm::BlockTensor;

/// Pseudo-inverse of a cumulative boundary bond factor T (order-2, flux 0,
/// legs (bond In, orig Out)): per admissible block, V·S⁺·Uᵀ with a relative
/// singular-value cutoff. Result legs (orig In, bond Out) so that
/// piece_r · T⁺ · piece_{r+1} contracts naturally.
BlockTensor pinv_bond_factor(const BlockTensor& t) {
  TT_CHECK(t.order() == 2, "bond factor must be order 2");
  BlockTensor out({t.index(1).reversed(), t.index(0).reversed()}, t.flux());
  for (const auto& [key, blk] : t.blocks()) {
    const index_t m = blk.dim(0), n = blk.dim(1);
    linalg::Matrix a(m, n);
    for (index_t i = 0; i < m; ++i)
      for (index_t j = 0; j < n; ++j) a(i, j) = blk.at({i, j});
    const linalg::SvdResult f = linalg::svd(a);
    const real_t smax = f.s.empty() ? 0.0 : f.s[0];
    const real_t cut = 1e-12 * smax;
    tensor::DenseTensor p({n, m});
    for (std::size_t k = 0; k < f.s.size(); ++k) {
      if (f.s[k] <= cut) continue;
      const real_t inv = 1.0 / f.s[k];
      for (index_t i = 0; i < n; ++i)
        for (index_t j = 0; j < m; ++j)
          p.at({i, j}) += f.vt(static_cast<index_t>(k), i) * inv *
                          f.u(j, static_cast<index_t>(k));
    }
    out.accumulate({key[1], key[0]}, std::move(p));
  }
  return out;
}

struct RegionResult {
  std::vector<BlockTensor> tensors;
  real_t max_trunc = 0.0;
};

/// One region's local L2R+R2L two-site pass between frozen environments.
/// Serial and deterministic; `a` is the region's first global site (labels).
RegionResult run_region(ContractionEngine& eng, std::vector<BlockTensor> piece,
                        const BlockTensor& lfrz, const BlockTensor& rfrz,
                        const mps::Mpo& h, int a, const SweepParams& params) {
  const int len = static_cast<int>(piece.size());
  auto w = [&](int i) -> const BlockTensor& { return h.site(a + i); };

  // Local right-canonicalization: the piece's center moves to local site 0.
  // Pure gauge — the region's product (and thus ψ) is unchanged.
  for (int i = len - 1; i >= 1; --i) {
    auto f = symm::block_lq(piece[static_cast<std::size_t>(i)], {0});
    piece[static_cast<std::size_t>(i)] = std::move(f.q);
    piece[static_cast<std::size_t>(i) - 1] =
        symm::contract(piece[static_cast<std::size_t>(i) - 1], f.l, {{2, 0}});
  }

  // Local environment stacks seeded by the frozen exteriors.
  std::vector<BlockTensor> lenv(static_cast<std::size_t>(len) + 1);
  std::vector<BlockTensor> renv(static_cast<std::size_t>(len) + 1);
  lenv[0] = lfrz;
  renv[static_cast<std::size_t>(len)] = rfrz;
  for (int i = len - 1; i >= 2; --i)
    renv[static_cast<std::size_t>(i)] =
        extend_right(eng, renv[static_cast<std::size_t>(i) + 1],
                     piece[static_cast<std::size_t>(i)], w(i));

  RegionResult res;
  auto bond = [&](int i, bool sweep_right) {
    BlockTensor theta =
        eng.contract(piece[static_cast<std::size_t>(i)], Role::kIntermediate,
                     piece[static_cast<std::size_t>(i) + 1], Role::kIntermediate,
                     {{2, 0}});
    detail::BondUpdate u = detail::solve_bond(
        eng, std::move(theta), lenv[static_cast<std::size_t>(i)], w(i), w(i + 1),
        renv[static_cast<std::size_t>(i) + 2], params, sweep_right, a + i);
    piece[static_cast<std::size_t>(i)] = std::move(u.a);
    piece[static_cast<std::size_t>(i) + 1] = std::move(u.b);
    res.max_trunc = std::max(res.max_trunc, u.trunc_err);
  };
  for (int i = 0; i + 1 < len; ++i) {
    bond(i, /*sweep_right=*/true);
    if (i + 2 < len)
      lenv[static_cast<std::size_t>(i) + 1] =
          extend_left(eng, lenv[static_cast<std::size_t>(i)],
                      piece[static_cast<std::size_t>(i)], w(i));
  }
  for (int i = len - 2; i >= 0; --i) {
    bond(i, /*sweep_right=*/false);
    if (i >= 1)
      renv[static_cast<std::size_t>(i) + 1] =
          extend_right(eng, renv[static_cast<std::size_t>(i) + 2],
                       piece[static_cast<std::size_t>(i) + 1], w(i + 1));
  }
  res.tensors = std::move(piece);
  return res;
}

}  // namespace

SweepRecord Dmrg::sweep_realspace(const SweepParams& params) {
  TT_TRACE_SPAN("dmrg.sweep_realspace", rt::TraceCat::kSweep);
  Timer timer;
  const rt::CostTracker start = engine_->tracker();
  const auto regions = partition_regions(psi_.size(), params.regions);
  const int R = static_cast<int>(regions.size());

  // Global B gauge: center at site 0, every other site right-orthonormal.
  envs_->invalidate_all();
  psi_.canonicalize(0);
  psi_.normalize();

  // Frozen right environments at the region right edges (one chain rebuild).
  std::vector<BlockTensor> rfrz(static_cast<std::size_t>(R));
  for (int r = R - 1; r >= 0; --r)
    rfrz[static_cast<std::size_t>(r)] = envs_->right(regions[static_cast<std::size_t>(r)].second + 1);

  // A-gauge QR walk up to the last region's start: records the cumulative
  // bond factor T at each boundary bond and the frozen A-side left
  // environments at each region start. Gauge ops are uncharged (as in
  // canonicalize); environment extensions are charged to the main engine.
  std::vector<BlockTensor> tfac(static_cast<std::size_t>(R) - 1);
  std::vector<BlockTensor> lfrz(static_cast<std::size_t>(R));
  BlockTensor e = left_boundary(psi_.sites()->qn_rank());
  lfrz[0] = e;
  {
    BlockTensor t;  // cumulative R factor
    int next_r = 1;
    const int stop = regions[static_cast<std::size_t>(R) - 1].first;
    for (int j = 0; j < stop; ++j) {
      BlockTensor cur =
          j == 0 ? psi_.site(0) : symm::contract(t, psi_.site(j), {{1, 0}});
      auto f = symm::block_qr(cur, {0, 1});
      t = std::move(f.r);
      e = extend_left(*engine_, e, f.q, h_.site(j));
      if (next_r < R && regions[static_cast<std::size_t>(next_r)].first == j + 1) {
        tfac[static_cast<std::size_t>(next_r) - 1] = t;
        lfrz[static_cast<std::size_t>(next_r)] = e;
        ++next_r;
      }
    }
  }

  // Local pieces: region tensors in B gauge, with the cumulative factor
  // absorbed into each region's first tensor (the exact decomposition above).
  std::vector<std::vector<BlockTensor>> pieces(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) {
    for (int j = regions[static_cast<std::size_t>(r)].first;
         j <= regions[static_cast<std::size_t>(r)].second; ++j)
      pieces[static_cast<std::size_t>(r)].push_back(psi_.site(j));
    if (r > 0)
      pieces[static_cast<std::size_t>(r)][0] = symm::contract(
          tfac[static_cast<std::size_t>(r) - 1], pieces[static_cast<std::size_t>(r)][0], {{1, 0}});
  }

  // Parallel phase: one engine per region (trackers merge in region order
  // below — deterministic at any thread count). The rank scheduler, when
  // attached, stays with the serial boundary pass only: region workers are
  // concurrent and the scheduler's collectives are single-caller.
  std::vector<std::unique_ptr<ContractionEngine>> engines(static_cast<std::size_t>(R));
  for (auto& p : engines)
    p = make_engine(engine_->kind(), engine_->cluster(), engine_->params());
  std::vector<RegionResult> results(static_cast<std::size_t>(R));
  support::parallel_for(R, [&](index_t r) {
    TT_TRACE_SPAN("dmrg.region", rt::TraceCat::kSweep);
    const std::size_t s = static_cast<std::size_t>(r);
    results[s] = run_region(*engines[s], std::move(pieces[s]), lfrz[s], rfrz[s],
                            h_, regions[s].first, params);
  });
  for (const auto& p : engines) engine_->tracker().merge(p->tracker());

  // Write back and glue the boundaries with the factor pseudo-inverses.
  real_t max_trunc = 0.0;
  for (int r = 0; r < R; ++r) {
    const std::size_t s = static_cast<std::size_t>(r);
    max_trunc = std::max(max_trunc, results[s].max_trunc);
    for (int i = 0; i < static_cast<int>(results[s].tensors.size()); ++i)
      psi_.set_site(regions[s].first + i,
                    std::move(results[s].tensors[static_cast<std::size_t>(i)]));
  }
  for (int r = 0; r + 1 < R; ++r) {
    const int b = regions[static_cast<std::size_t>(r)].second;
    psi_.set_site(b, symm::contract(psi_.site(b),
                                    pinv_bond_factor(tfac[static_cast<std::size_t>(r)]),
                                    {{2, 0}}));
  }

  // Serial boundary reconciliation: re-optimize each seam bond with fresh
  // global environments (the Stoudenmire–White stitch step).
  SweepParams serial = params;
  serial.mode = SweepMode::kSerial;
  serial.regions = 1;
  for (int r = 0; r + 1 < R; ++r) {
    const int b = regions[static_cast<std::size_t>(r)].second;
    envs_->invalidate_all();
    psi_.canonicalize(b);
    psi_.normalize();
    optimize_bond(b, serial, /*sweep_right=*/true);
    max_trunc = std::max(max_trunc, trunc_err_);
  }

  envs_->invalidate_all();
  psi_.canonicalize(0);
  psi_.normalize();
  energy_ = energy_expectation();
  trunc_err_ = max_trunc;

  SweepRecord rec;
  rec.sweep = ++sweep_count_;
  rec.energy = energy_;
  rec.max_bond_dim = psi_.max_bond_dim();
  rec.truncation_error = max_trunc;
  rec.wall_seconds = timer.seconds();
  rec.costs = engine_->tracker().diff(start);
  rec.mode = SweepMode::kRealSpace;
  rec.regions = R;
  rec.boundary_bonds = R - 1;
  records_.push_back(rec);
  return rec;
}

}  // namespace tt::dmrg
