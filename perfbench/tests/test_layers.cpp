// Unit test of the engine decorator: Role -> layer classification, and that
// wrapping an engine changes no result while attributing every call.
//
//   ./tt_perfbench_test_layers     (exit code 0 = pass)
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "dmrg/dmrg.hpp"
#include "layers.hpp"
#include "models/heisenberg.hpp"
#include "models/lattice.hpp"
#include "models/spin_half.hpp"
#include "runtime/machine.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

using perfbench::Layer;
using tt::dmrg::Role;

void test_classification() {
  expect(perfbench::classify(Role::kOperator, Role::kOperator) == Layer::kEnv,
         "operator x operator is environment extension");
  expect(perfbench::classify(Role::kOperator, Role::kIntermediate) == Layer::kMatvec,
         "operator x intermediate is the matvec");
  expect(perfbench::classify(Role::kIntermediate, Role::kOperator) == Layer::kMatvec,
         "intermediate x operator is the matvec");
  expect(perfbench::classify(Role::kIntermediate, Role::kIntermediate) ==
             Layer::kMatvec,
         "intermediate x intermediate (theta formation) is the matvec");
}

constexpr int kSites = 12;

// Heisenberg chain of kSites sites from a Néel state, solved through `engine`.
tt::dmrg::Dmrg make_solver(std::unique_ptr<tt::dmrg::ContractionEngine> engine) {
  const auto lat = tt::models::chain(kSites);
  auto sites = tt::models::spin_half_sites(kSites);
  std::vector<int> neel;
  for (int i = 0; i < kSites; ++i) neel.push_back(i % 2);
  return tt::dmrg::Dmrg(tt::mps::Mps::product_state(sites, neel),
                        tt::models::heisenberg_mpo(sites, lat, 1.0), std::move(engine));
}

std::unique_ptr<tt::dmrg::ContractionEngine> serial_list_engine() {
  auto e = tt::dmrg::make_engine(tt::dmrg::EngineKind::kList,
                                 tt::rt::Cluster{tt::rt::localhost(), 1, 1});
  e->set_num_threads(1);
  return e;
}

tt::dmrg::SweepParams sweep_params() {
  tt::dmrg::SweepParams p;
  p.max_m = 16;
  return p;
}

void test_decorator_is_transparent_and_attributes_calls() {
  constexpr int kSweeps = 2;
  tt::dmrg::Dmrg plain = make_solver(serial_list_engine());
  std::vector<double> want;
  for (int s = 0; s < kSweeps; ++s) want.push_back(plain.sweep(sweep_params()).energy);

  auto timed = std::make_unique<perfbench::TimedEngine>(serial_list_engine());
  perfbench::TimedEngine& eng = *timed;
  tt::dmrg::Dmrg solver = make_solver(std::move(timed));
  double sweep_wall = 0.0;
  for (int s = 0; s < kSweeps; ++s) {
    const tt::dmrg::SweepRecord rec = solver.sweep(sweep_params());
    expect(rec.energy == want[static_cast<std::size_t>(s)],
           "wrapped engine reproduces the plain engine's energy bitwise");
    sweep_wall += rec.wall_seconds;
  }

  const long bonds = kSweeps * 2L * (kSites - 1);
  const perfbench::LayerTotals& mv = eng.totals(Layer::kMatvec);
  const perfbench::LayerTotals& env = eng.totals(Layer::kEnv);
  const perfbench::LayerTotals& svd = eng.totals(Layer::kSvd);
  expect(svd.calls == bonds, "one truncation SVD per bond");
  // One environment extension (three operator-only contractions) per bond.
  expect(env.calls == 3 * bonds, "three env contractions per bond");
  // Theta formation once per bond, then four contractions per H·x.
  expect(mv.calls > bonds && (mv.calls - bonds) % 4 == 0,
         "theta formation plus four contractions per Davidson matvec");
  expect(mv.flops > 0.0 && env.flops > 0.0, "contraction layers carry flop counts");
  expect(mv.seconds > 0.0 && env.seconds > 0.0 && svd.seconds > 0.0,
         "every layer is timed");
  expect(mv.seconds + env.seconds + svd.seconds <= sweep_wall,
         "engine time fits inside the sweeps");
  eng.reset();
  expect(eng.totals(Layer::kMatvec).calls == 0 && eng.totals(Layer::kSvd).seconds == 0.0,
         "reset clears the totals");
}

}  // namespace

int main() {
  test_classification();
  test_decorator_is_transparent_and_attributes_calls();
  if (failures == 0) std::printf("perfbench layer tests passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
