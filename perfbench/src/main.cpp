// Benchmark program: one process runs one workload's set-up and, optionally,
// its ground-state solve, and prints one JSON record on stdout. run.py starts
// it with a pinned thread environment and aggregates the records.
//
//   tt_perfbench describe --workload NAME
//   tt_perfbench setup    --workload NAME --seed N
//   tt_perfbench solve    --workload NAME --seed N [--local] [--ceilings]
//                         [--trace PATH]
//
// setup builds the solver kSetupRepeats times and prints every set-up time.
// --local runs the workload's problem without scheduler ranks, on as many
// threads as the workload has threads × ranks (the reference side of the
// rank-parity check). --ceilings measures linalg::gemm at 512³ and
// linalg::svd at 128² before the solve. --trace records the solve with the
// library's span tracer and writes Chrome trace JSON to PATH.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "dmrg/dmrg.hpp"
#include "layers.hpp"
#include "linalg/gemm.hpp"
#include "linalg/svd.hpp"
#include "runtime/machine.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Layer;
using perfbench::Workload;

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 0;
  bool local = false;
  bool ceilings = false;
  std::string trace_path;
};

// Set-ups per `setup` process. The first pays the process's one-time costs;
// the rest show the set-up work itself.
constexpr int kSetupRepeats = 5;

Args parse_args(int argc, char** argv) {
  TT_CHECK(argc >= 2, "usage: tt_perfbench describe|setup|solve --workload NAME ...");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      TT_CHECK(i + 1 < argc, "option " << flag << " needs a value");
      return argv[++i];
    };
    if (flag == "--workload")
      a.workload = value();
    else if (flag == "--seed")
      a.seed = std::stoull(value());
    else if (flag == "--local")
      a.local = true;
    else if (flag == "--ceilings")
      a.ceilings = true;
    else if (flag == "--trace")
      a.trace_path = value();
    else
      TT_FAIL("unknown flag '" << flag << "'");
  }
  TT_CHECK(!a.workload.empty(), "--workload is required");
  return a;
}

/// Minimal JSON object writer: flat keys, numbers, strings, number arrays.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& integer(const std::string& key, long long v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v[i]);
      if (i) s += ',';
      s += buf;
    }
    return raw(key, s + "]");
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  JsonObject& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + v;
    return *this;
  }
  std::string body_;
};

double cpu_seconds(int who) {
  rusage u{};
  getrusage(who, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  TT_CHECK(!v.empty(), "median of nothing");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Same-run ceilings at the process's thread count: GEMM rate at 512³ and
/// builtin SVD time at 128², each the median of a few seeded repetitions.
void measure_ceilings(std::uint64_t seed, JsonObject& out) {
  tt::Rng rng(seed);
  const tt::index_t n = 512;
  const tt::linalg::Matrix a = tt::linalg::Matrix::random(n, n, rng);
  const tt::linalg::Matrix b = tt::linalg::Matrix::random(n, n, rng);
  tt::linalg::Matrix c(n, n);
  std::vector<double> gflops;
  for (int rep = 0; rep < 11; ++rep) {  // the first warms caches and threads
    tt::Timer t;
    tt::linalg::gemm(false, false, 1.0, a, b, 0.0, c);
    if (rep > 0) gflops.push_back(tt::linalg::gemm_flops(n, n, n) / t.seconds() / 1e9);
  }
  const tt::linalg::Matrix s = tt::linalg::Matrix::random(128, 128, rng);
  std::vector<double> svd_ms;
  for (int rep = 0; rep < 5; ++rep) {
    tt::Timer t;
    const tt::linalg::SvdResult r = tt::linalg::svd(s);
    svd_ms.push_back(1e3 * t.seconds());
    TT_CHECK(!r.s.empty(), "empty SVD");
  }
  out.num("gemm_peak_gflops", median(gflops)).num("svd128_ms", median(svd_ms));
}

/// Fails unless the caller pinned the thread environment to `threads`.
void check_thread_env(const Workload& w, int threads) {
  const char* tt_threads = std::getenv("TT_THREADS");
  const char* omp = std::getenv("OMP_NUM_THREADS");
  const std::string want = std::to_string(threads);
  TT_CHECK(tt_threads != nullptr && want == tt_threads && omp != nullptr && want == omp,
           "workload " << w.name << " needs TT_THREADS=OMP_NUM_THREADS=" << want
                       << " in its environment (run it through run.py)");
}

/// A solver ready for its first sweep. Members are destroyed in reverse
/// order, so the solver goes before the scheduler its engine points to.
struct Setup {
  std::unique_ptr<tt::rt::Scheduler> scheduler;
  perfbench::TimedEngine* engine = nullptr;  // owned by solver
  std::unique_ptr<tt::dmrg::Dmrg> solver;
  double seconds = 0.0;
};

/// Set-up: rank spawn, lattice, MPO, initial MPS, engine, environments.
Setup set_up(const Workload& w, std::uint64_t seed, int threads, int ranks) {
  tt::Timer timer;
  Setup s;
  if (ranks > 1) {
    tt::rt::SchedulerOptions so;
    so.num_ranks = ranks;
    so.mode = tt::rt::SpawnMode::kProcess;
    so.worker_threads = threads;
    so.root_threads = threads;
    s.scheduler = std::make_unique<tt::rt::Scheduler>(so);  // forks first
  }
  perfbench::Problem problem = perfbench::build_problem(w, seed);
  auto inner = tt::dmrg::make_engine(tt::dmrg::EngineKind::kList,
                                     tt::rt::Cluster{tt::rt::localhost(), 1, 1});
  inner->set_num_threads(threads);
  inner->set_scheduler(s.scheduler.get());
  auto timed = std::make_unique<perfbench::TimedEngine>(std::move(inner));
  s.engine = timed.get();
  s.solver = std::make_unique<tt::dmrg::Dmrg>(std::move(problem.psi), std::move(problem.h),
                                              std::move(timed));
  s.seconds = timer.seconds();
  return s;
}

int run(const Args& args) {
  const Workload& w = perfbench::find_workload(args.workload);
  JsonObject out;
  out.str("workload", w.name);

  if (args.command == "describe") {
    out.integer("threads", w.threads)
        .integer("ranks", w.ranks)
        .integer("timed_solves", w.timed_solves)
        .integer("max_sweeps", w.max_sweeps)
        .num("reference_energy", w.reference_energy)
        .num("energy_tol", perfbench::kEnergyTol);
    std::cout << out.text() << std::endl;
    return 0;
  }
  TT_CHECK(args.command == "setup" || args.command == "solve",
           "unknown command '" << args.command << "'");
  const int threads = args.local ? w.threads * w.ranks : w.threads;
  const int ranks = args.local ? 1 : w.ranks;
  check_thread_env(w, threads);
  out.integer("seed", static_cast<long long>(args.seed))
      .integer("threads", threads)
      .integer("ranks", ranks);

  if (args.command == "setup") {
    std::vector<double> samples;
    for (int i = 0; i < kSetupRepeats; ++i)
      samples.push_back(set_up(w, args.seed, threads, ranks).seconds);
    out.nums("setup_samples", samples);
    std::cout << out.text() << std::endl;
    return 0;
  }
  Setup setup = set_up(w, args.seed, threads, ranks);
  out.num("setup_s", setup.seconds);
  perfbench::TimedEngine& engine = *setup.engine;
  tt::dmrg::Dmrg& solver = *setup.solver;
  tt::rt::Scheduler* scheduler = setup.scheduler.get();

  if (args.ceilings) measure_ceilings(args.seed, out);

  // --- solve ----------------------------------------------------------------
  engine.reset();
  if (scheduler) scheduler->reset_accumulated();
  const bool traced = !args.trace_path.empty();
  if (traced) {
    tt::rt::TraceOptions topts;
    topts.buffer_capacity = std::size_t{1} << 23;
    tt::rt::Trace::instance().start(topts);
  }
  std::vector<double> energies, walls, ms;
  bool converged = false;
  const double cpu0 = cpu_seconds(RUSAGE_SELF);
  tt::Timer solve_timer;
  for (int k = 0; k < w.max_sweeps; ++k) {
    tt::dmrg::SweepParams p;
    p.max_m = k < static_cast<int>(w.ramp.size()) ? w.ramp[static_cast<std::size_t>(k)]
                                                  : w.final_m;
    const tt::dmrg::SweepRecord rec = solver.sweep(p);
    energies.push_back(rec.energy);
    walls.push_back(rec.wall_seconds);
    ms.push_back(static_cast<double>(p.max_m));
    if (w.converge_tol > 0.0 && p.max_m == w.final_m && energies.size() >= 2 &&
        std::abs(energies.back() - energies[energies.size() - 2]) < w.converge_tol) {
      converged = true;
      break;
    }
  }
  if (w.converge_tol == 0.0) converged = true;  // fixed schedule
  const double solve_s = solve_timer.seconds();
  const double self_cpu = cpu_seconds(RUSAGE_SELF) - cpu0;
  if (traced) {
    tt::rt::Trace& trace = tt::rt::Trace::instance();
    trace.stop();
    out.integer("trace_events", static_cast<long long>(trace.events_recorded()))
        .integer("trace_dropped", static_cast<long long>(trace.events_dropped()));
    trace.write_chrome_json(args.trace_path);
  }

  double worker_cpu = 0.0;
  if (scheduler) {
    const tt::rt::DistStats& d = scheduler->accumulated();
    const tt::rt::SchedulerStats& st = scheduler->stats();
    out.integer("sched_contractions", d.contractions)
        .num("sched_bytes", d.total_bytes())
        .num("sched_comm_s", d.comm_seconds)
        .num("sched_critical_busy_s", d.critical_busy_seconds)
        .num("sched_imbalance_s", d.imbalance_seconds)
        .integer("sched_faults", st.faults_detected + st.retries + st.respawns);
    scheduler->shutdown();  // reaps the workers, so their CPU time is counted
    worker_cpu = cpu_seconds(RUSAGE_CHILDREN);
  }

  out.boolean("converged", converged)
      .integer("sweeps", static_cast<long long>(energies.size()))
      .num("energy", solver.last_energy())
      .num("solve_s", solve_s)
      .num("cpu_s", self_cpu + worker_cpu)
      .num("peak_rss_mb", peak_rss_mb())
      .nums("energies", energies)
      .nums("sweep_walls", walls)
      .nums("sweep_m", ms);
  for (Layer l : {Layer::kMatvec, Layer::kEnv, Layer::kSvd}) {
    const perfbench::LayerTotals& t = engine.totals(l);
    const std::string name = std::string("engine_") + perfbench::layer_name(l);
    out.num(name + "_s", t.seconds)
        .integer(name + "_calls", t.calls)
        .num(name + "_flops", t.flops);
  }
  std::cout << out.text() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "tt_perfbench: " << e.what() << "\n";
    return 2;
  }
}
