// The benchmark's workloads: problem, thread/rank shape, sweep schedule and
// stopping rule, and the reference energy each run is checked against.
// README.md gives the reason for each one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mps/mpo.hpp"
#include "mps/mps.hpp"

namespace perfbench {

enum class Model { kJ1J2, kHubbard };

struct Workload {
  std::string name;
  Model model = Model::kJ1J2;
  int threads = 1;  ///< executor threads per rank (TT_THREADS)
  int ranks = 1;    ///< scheduler ranks; > 1 shards contractions over forks
  /// Timed solves per benchmark run: as many as the run's time budget
  /// affords, so that the run-level median rests on more than one solve.
  int timed_solves = 1;

  std::vector<tt::index_t> ramp;  ///< bond dimension of each warm-up sweep
  tt::index_t final_m = 0;        ///< bond dimension after the ramp

  /// Stopping rule. converge_tol > 0: stop after the first sweep at final_m
  /// whose |ΔE| to the previous sweep is below it, failing after max_sweeps.
  /// converge_tol == 0: run exactly max_sweeps sweeps.
  double converge_tol = 0.0;
  int max_sweeps = 0;

  /// The final energy must lie within kEnergyTol of this.
  double reference_energy = 0.0;
};

/// Gate on the final energy: the spins workloads' stopping tolerance, also
/// applied to the fixed-schedule electrons energy.
constexpr double kEnergyTol = 1e-6;

/// The workload of that name; throws tt::Error for an unknown one.
const Workload& find_workload(const std::string& name);

/// Every workload, in a fixed order.
const std::vector<Workload>& all_workloads();

/// Hamiltonian and initial state. The seed picks which of the two spin-flip
/// related product states starts the solve: both lead to the same ground
/// state along spin-flipped, equally expensive paths.
struct Problem {
  tt::mps::Mps psi;
  tt::mps::Mpo h;
};
Problem build_problem(const Workload& w, std::uint64_t seed);

}  // namespace perfbench
