#include "workloads.hpp"

#include "models/electron.hpp"
#include "models/heisenberg.hpp"
#include "models/hubbard.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "support/error.hpp"

namespace perfbench {

namespace {

// J1–J2 Heisenberg 6×4 square cylinder at J2/J1 = 0.5, Sz = 0.
constexpr int kSpinLx = 6, kSpinLy = 4;
constexpr double kJ2 = 0.5;
// Triangular Hubbard 4×3 cylinder, t = 1, U = 8.5, half filling.
constexpr int kHubLx = 4, kHubLy = 3;
constexpr double kU = 8.5;

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;

  Workload spins;
  spins.name = "spins-m512";
  spins.model = Model::kJ1J2;
  spins.threads = 2;
  spins.timed_solves = 2;
  spins.ramp = {16, 32, 64, 128, 256};
  spins.final_m = 512;
  spins.converge_tol = 1e-6;
  spins.max_sweeps = 12;
  spins.reference_energy = -12.4399614925819;
  out.push_back(spins);

  Workload electrons;
  electrons.name = "electrons-m128";
  electrons.model = Model::kHubbard;
  electrons.threads = 1;
  electrons.timed_solves = 2;
  electrons.ramp = {16, 32, 64};
  electrons.final_m = 128;
  electrons.converge_tol = 0.0;
  electrons.max_sweeps = 12;
  electrons.reference_energy = -5.44812569443544;
  out.push_back(electrons);

  Workload ranks = spins;
  ranks.name = "spins-m256-ranks2";
  ranks.threads = 1;
  ranks.ranks = 2;
  ranks.timed_solves = 1;
  ranks.ramp = {16, 32, 64, 128};
  ranks.final_m = 256;
  ranks.reference_energy = -12.4399612477759;
  out.push_back(ranks);

  return out;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = make_workloads();
  return workloads;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : all_workloads())
    if (w.name == name) return w;
  TT_FAIL("unknown workload '" << name << "'");
}

Problem build_problem(const Workload& w, std::uint64_t seed) {
  const int flip = static_cast<int>(seed % 2);
  if (w.model == Model::kJ1J2) {
    const auto lat = tt::models::square_cylinder(kSpinLx, kSpinLy, /*diagonals=*/true);
    auto sites = tt::models::spin_half_sites(lat.num_sites);
    std::vector<int> neel;
    for (int x = 0; x < kSpinLx; ++x)
      for (int y = 0; y < kSpinLy; ++y) neel.push_back((x + y + flip) % 2);
    return {tt::mps::Mps::product_state(sites, neel),
            tt::models::heisenberg_mpo(sites, lat, 1.0, kJ2)};
  }
  const auto lat = tt::models::triangular_cylinder(kHubLx, kHubLy);
  auto sites = tt::models::electron_sites(lat.num_sites);
  // Half filling with N↑ = N↓: alternate |↑⟩ (1) and |↓⟩ (2).
  std::vector<int> filling;
  for (int i = 0; i < lat.num_sites; ++i)
    filling.push_back((i + flip) % 2 == 0 ? 1 : 2);
  return {tt::mps::Mps::product_state(sites, filling),
          tt::models::hubbard_mpo(sites, lat, 1.0, kU)};
}

}  // namespace perfbench
