#include "runtime/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "runtime/fault.hpp"
#include "runtime/task_frames.hpp"
#include "runtime/trace.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "tensor/dense.hpp"

namespace tt::rt {

namespace {

// Protocol frame tags. One task frame per contraction per worker, answered by
// exactly one result (or error) frame — the protocol stays frame-aligned even
// across worker-side errors.
constexpr std::uint32_t kTagTask = 1;
constexpr std::uint32_t kTagResult = 2;
constexpr std::uint32_t kTagShutdown = 3;
constexpr std::uint32_t kTagError = 4;
// A fork()ed worker answers the shutdown frame with its recorded trace spans
// (rt::Trace buffers) so rank timelines merge into the root's export. Thread
// workers share the root's tracer and never ship.
constexpr std::uint32_t kTagTrace = 5;

// Workers idle between contractions; a crashed root surfaces as EOF, not a
// timeout, so the idle wait can be far more generous than the per-operation
// kDefaultTimeoutSeconds.
constexpr double kWorkerIdleTimeout = 3600.0;

// A channel's transport counters before one frame, so the frame's share of
// each can be charged to DistStats once the call has completed.
struct TransportMarks {
  explicit TransportMarks(const Channel& ch)
      : bytes_sent(ch.bytes_sent()),
        bytes_received(ch.bytes_received()),
        comm(ch.send_seconds() + ch.recv_seconds()),
        checksum(ch.checksum_seconds()),
        syscall(ch.syscall_seconds()),
        wait(ch.wait_seconds()) {}

  void charge(const Channel& ch, DistStats& d) const {
    d.comm_seconds += ch.send_seconds() + ch.recv_seconds() - comm;
    d.checksum_seconds += ch.checksum_seconds() - checksum;
    d.syscall_seconds += ch.syscall_seconds() - syscall;
    d.wait_seconds += ch.wait_seconds() - wait;
  }

  double bytes_sent, bytes_received, comm, checksum, syscall, wait;
};

// Executes one parsed task and serializes the reply payload.
std::vector<std::byte> run_task(const WorkerTask& task, double decode_seconds) {
  TT_TRACE_SPAN("sched.worker_task", TraceCat::kContract);
  std::vector<symm::BinExecution> done(task.bins.size());
  Timer busy;
  support::parallel_for(
      static_cast<index_t>(task.bins.size()),
      [&](index_t i) {
        done[static_cast<std::size_t>(i)] =
            symm::execute_bin(task.bins[static_cast<std::size_t>(i)], task.lowering,
                              task.collect_ops);
      },
      task.threads);
  return encode_result(task, busy.seconds(), done, decode_seconds);
}

// Worker service loop: one task in, one result (or error) out, until the
// shutdown frame or the root disappears.
void worker_loop(int rank, Channel& ch) {
  for (;;) {
    Frame f;
    try {
      f = ch.recv_frame(kWorkerIdleTimeout);
    } catch (const Error&) {
      return;  // root gone (EOF) or wedged; nothing left to serve
    }
    if (f.tag == kTagShutdown) {
      // Ship recorded spans home before exiting so this rank's timeline joins
      // the root's export. Only fork()ed workers own a private tracer; thread
      // workers already share the root's buffers.
      Trace& trace = Trace::instance();
      if (trace.enabled() && trace.is_forked_child()) {
        try {
          ch.send_frame(kTagTrace, trace.serialize_and_clear(), 2.0);
        } catch (const Error&) {
          // Root gone or not collecting; the spans die with this process.
        }
      }
      return;
    }
    if (f.tag != kTagTask) return;  // protocol violation: stop serving
    double timeout = kDefaultTimeoutSeconds;
    try {
      const Timer decode;
      const WorkerTask task = [&] {
        TT_TRACE_SPAN("sched.decode", TraceCat::kScheduler);
        return parse_task(f.payload);
      }();
      const double decode_seconds = decode.seconds();
      timeout = task.timeout_seconds;
      if (task.fail_task)
        TT_FAIL("fault injection: worker " << rank << " ordered to fail its task");
      std::vector<std::byte> reply = run_task(task, decode_seconds);
      if (task.kill_before_result) {
        // Die after the work, before the result — the root observes EOF where
        // it expected a result frame, exactly like a real mid-contraction
        // crash. In process mode the child then _exit()s; in thread mode the
        // closed channel is the same root-side observable.
        ch.close();
        return;
      }
      ch.send_frame(kTagResult, reply, task.timeout_seconds);
    } catch (const Error& e) {
      // Keep the frame protocol aligned: the root gets an error frame where
      // it expected a result, and throws on its side.
      try {
        WireWriter w;
        w.str(e.what());
        ch.send_frame(kTagError, w.take(), timeout);
      } catch (const Error&) {
        return;  // cannot even report: root will see EOF on our exit
      }
    }
  }
}

}  // namespace

double DistStats::total_bytes() const {
  double sum = 0.0;
  for (const Rank& r : ranks) sum += r.bytes_sent + r.bytes_received;
  return sum;
}

double DistStats::total_flops() const {
  double sum = 0.0;
  for (const Rank& r : ranks) sum += r.flops;
  return sum;
}

void DistStats::charge(CostTracker& t) const {
  t.add_time(Category::kGemm, critical_busy_seconds);
  t.add_time(Category::kComm, comm_seconds);
  t.add_time(Category::kImbalance, imbalance_seconds);
  t.add_time(Category::kRecovery, recovery_seconds);
  t.add_words(exchange_words);
  for (const Rank& r : ranks) t.add_flops(r.flops);  // fixed rank order
  t.add_supersteps(static_cast<double>(contractions));
}

void DistStats::merge(const DistStats& other) {
  if (ranks.size() < other.ranks.size()) ranks.resize(other.ranks.size());
  for (std::size_t i = 0; i < other.ranks.size(); ++i) {
    ranks[i].bins += other.ranks[i].bins;
    ranks[i].flops += other.ranks[i].flops;
    ranks[i].busy_seconds += other.ranks[i].busy_seconds;
    ranks[i].bytes_sent += other.ranks[i].bytes_sent;
    ranks[i].bytes_received += other.ranks[i].bytes_received;
    ranks[i].codec_seconds += other.ranks[i].codec_seconds;
  }
  contractions += other.contractions;
  comm_seconds += other.comm_seconds;
  checksum_seconds += other.checksum_seconds;
  syscall_seconds += other.syscall_seconds;
  wait_seconds += other.wait_seconds;
  encode_seconds += other.encode_seconds;
  decode_seconds += other.decode_seconds;
  exchange_words += other.exchange_words;
  critical_busy_seconds += other.critical_busy_seconds;
  imbalance_seconds += other.imbalance_seconds;
  recovery_seconds += other.recovery_seconds;
  replicated_operand = other.replicated_operand;
}

Scheduler::Scheduler(const SchedulerOptions& opts) : opts_(opts) {
  TT_CHECK(opts_.num_ranks >= 1,
           "scheduler needs at least one rank, got " << opts_.num_ranks);
  live_.assign(static_cast<std::size_t>(opts_.num_ranks), 1);
  respawn_attempts_.assign(static_cast<std::size_t>(opts_.num_ranks), 0);
  if (opts_.num_ranks > 1)
    group_ = std::make_unique<WorkerGroup>(opts_.num_ranks, opts_.mode, worker_loop);
}

Scheduler::~Scheduler() {
  try {
    shutdown();
  } catch (...) {
    // Destructor must not throw; WorkerGroup teardown hard-kills leftovers.
  }
}

void Scheduler::kill_rank(int rank) {
  TT_CHECK(group_ != nullptr, "kill_rank on a single-rank scheduler");
  group_->kill(rank);
}

int Scheduler::live_workers() const {
  int n = 0;
  for (int r = 1; r < opts_.num_ranks; ++r)
    if (live_[static_cast<std::size_t>(r)]) ++n;
  return n;
}

void Scheduler::heal(const std::vector<int>& dead_ranks, DistStats& d) {
  if (dead_ranks.empty() || group_ == nullptr) return;
  TT_TRACE_SPAN("sched.heal", TraceCat::kRecovery);
  Timer rec;
  for (int r : dead_ranks) {
    if (!live_[static_cast<std::size_t>(r)]) continue;  // duplicate report
    live_[static_cast<std::size_t>(r)] = 0;
    bool revived = false;
    while (respawn_attempts_[static_cast<std::size_t>(r)] < opts_.retry.max_attempts &&
           rec.seconds() <= opts_.retry.deadline_seconds) {
      const int attempt = ++respawn_attempts_[static_cast<std::size_t>(r)];
      const double delay =
          opts_.retry.base_delay_seconds *
          static_cast<double>(1u << static_cast<unsigned>(std::min(attempt - 1, 20)));
      if (delay > 0.0)
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      try {
        group_->respawn(r);
        ++stats_.respawns;
        live_[static_cast<std::size_t>(r)] = 1;
        revived = true;
        break;
      } catch (const Error&) {
        // Spawn itself failed (fd/process pressure); back off and retry
        // while the rank still has attempts and the deadline allows.
      }
    }
    if (!revived) {
      // Out of attempts (or budget): reap whatever is left of the worker and
      // fold its share into the survivors from the next contraction on.
      group_->retire(r);
      ++stats_.ranks_lost;
    }
  }
  if (live_workers() == 0 && opts_.num_ranks > 1) stats_.degraded = true;
  d.recovery_seconds += rec.seconds();
}

void Scheduler::shutdown() {
  if (group_ == nullptr) return;
  for (int r = 1; r < opts_.num_ranks; ++r) {
    try {
      if (group_->channel(r).open())
        group_->channel(r).send_frame(kTagShutdown, {}, 1.0);
    } catch (const Error&) {
      // Dead workers are reaped by join() below.
    }
  }
  // Fork()ed workers answer the shutdown frame with their trace buffers;
  // absorb them so the export holds every rank's timeline. A worker that died
  // or predates tracing simply times out / EOFs — ignore it.
  if (Trace::instance().enabled() && opts_.mode == SpawnMode::kProcess) {
    for (int r = 1; r < opts_.num_ranks; ++r) {
      try {
        if (!group_->channel(r).open()) continue;
        const Frame f = group_->channel(r).recv_frame(2.0);
        if (f.tag == kTagTrace) Trace::instance().absorb(f.payload, r);
      } catch (const Error&) {
      }
    }
  }
  group_->join(/*timeout_seconds=*/5.0);
  group_.reset();
}

symm::BlockTensor Scheduler::contract(const symm::BlockTensor& a,
                                      const symm::BlockTensor& b,
                                      const std::vector<std::pair<int, int>>& pairs,
                                      symm::ContractStats* stats) {
  TT_CHECK(!broken_,
           "scheduler is broken after a failed exchange; construct a new one");
  TT_TRACE_SPAN("sched.contract", TraceCat::kScheduler);
  const symm::ContractPlan plan = symm::make_contract_plan(a, b, pairs);
  symm::BlockTensor c(plan.out_indices, plan.out_flux);
  const std::vector<symm::OutputBin> bins = symm::enumerate_bins(a, b, pairs, plan);
  const bool collect_ops = stats != nullptr;
  const bool healing = opts_.retry.max_attempts > 0;
  FaultInjector& inj = FaultInjector::instance();

  // --- placement -------------------------------------------------------------
  // Bins are partitioned over the *live* ranks only: slot 0 is the root,
  // slot s >= 1 maps to the s-th surviving worker. With every worker retired
  // this degenerates to a serial root-only partition — the graceful-
  // degradation endpoint. Placement affects only *where* a bin runs, never
  // the global bin order, so results and ContractStats stay bitwise identical
  // no matter which ranks are alive.
  std::vector<int> slot_rank{0};
  for (int r = 1; r < opts_.num_ranks; ++r)
    if (live_[static_cast<std::size_t>(r)]) slot_rank.push_back(r);
  const int S = static_cast<int>(slot_rank.size());

  std::vector<double> weights(bins.size());
  for (std::size_t i = 0; i < bins.size(); ++i) weights[i] = bins[i].est_flops;
  const Partition part = partition_bins(weights, S);
  const int replicated = choose_replicated(static_cast<double>(a.num_elements()),
                                           static_cast<double>(b.num_elements()));

  std::vector<std::vector<std::size_t>> slot_bins(static_cast<std::size_t>(S));
  for (std::size_t g = 0; g < bins.size(); ++g)
    slot_bins[static_cast<std::size_t>(part.rank_of[g])].push_back(g);

  DistStats d;
  d.ranks.resize(static_cast<std::size_t>(opts_.num_ranks));
  d.contractions = 1;
  d.replicated_operand = replicated;

  // Failure capture: a failed slot's bins are re-executed on the root; a
  // *dead* rank (EOF, timeout, desync, corrupt frame) is additionally healed
  // afterwards. A worker that merely answered with an error frame is alive
  // and frame-aligned — redistribute only, no respawn.
  std::vector<char> slot_failed(static_cast<std::size_t>(S), 0);
  std::vector<int> dead_ranks;
  auto record_failure = [&](int slot, int rank, bool dead) {
    ++stats_.faults_detected;
    slot_failed[static_cast<std::size_t>(slot)] = 1;
    if (dead) dead_ranks.push_back(rank);
  };

  // --- ship operand slices + bin lists to the workers ------------------------
  if (group_) {
    TT_TRACE_SPAN("sched.ship", TraceCat::kScheduler);
    for (int s = 1; s < S; ++s) {
      const int r = slot_rank[static_cast<std::size_t>(s)];
      Channel& ch = group_->channel(r);
      const TransportMarks marks(ch);

      const Timer encode;
      std::vector<std::byte> payload;
      double operand_words = 0.0;
      {
        TT_TRACE_SPAN("sched.encode", TraceCat::kScheduler);
        // Block tables: the replicated operand ships whole (in key order);
        // the distributed operand ships only blocks this rank's bins
        // reference, in first-touch (bin, pair) order — deterministic either
        // way.
        TaskFrame task;
        // tt-lint: allow(ordered-iteration) lookup-only interning index: never iterated; shipped table order is first-touch insertion order, which is deterministic
        std::unordered_map<const tensor::DenseTensor*, std::uint32_t> index_a, index_b;
        auto intern = [](std::vector<const tensor::DenseTensor*>& table, auto& index,
                         const tensor::DenseTensor* blk) {
          auto [it, fresh] =
              index.try_emplace(blk, static_cast<std::uint32_t>(table.size()));
          if (fresh) table.push_back(blk);
          return it->second;
        };
        if (replicated == 0)
          for (const auto& kv : a.blocks()) intern(task.table_a, index_a, &kv.second);
        else
          for (const auto& kv : b.blocks()) intern(task.table_b, index_b, &kv.second);

        task.bins.reserve(slot_bins[static_cast<std::size_t>(s)].size());
        for (std::size_t g : slot_bins[static_cast<std::size_t>(s)]) {
          TaskFrame::Bin& wb = task.bins.emplace_back();
          wb.id = g;
          wb.pairs.reserve(bins[g].pairs.size());
          for (const symm::BinPair& pw : bins[g].pairs)
            wb.pairs.emplace_back(intern(task.table_a, index_a, pw.ablk),
                                  intern(task.table_b, index_b, pw.bblk));
        }
        for (const tensor::DenseTensor* t : task.table_a)
          operand_words += static_cast<double>(t->size());
        for (const tensor::DenseTensor* t : task.table_b)
          operand_words += static_cast<double>(t->size());

        task.spec = plan.spec;
        task.threads = opts_.worker_threads;
        task.collect_ops = collect_ops;
        // Root-decided worker faults travel inside the task frame (see
        // WorkerTask) so their counters are exact in both spawn modes.
        task.kill_before_result =
            inj.should_fire("worker.kill_before_result", r, FaultSide::kWorker);
        task.fail_task = inj.should_fire("worker.fail_task", r, FaultSide::kWorker);
        task.timeout_seconds = opts_.timeout_seconds;
        payload = encode_task(task);
      }
      d.encode_seconds += encode.seconds();

      try {
        ch.send_frame(kTagTask, payload, opts_.timeout_seconds);
      } catch (const Error&) {
        if (!healing) {
          broken_ = true;
          throw;
        }
        record_failure(s, r, /*dead=*/true);
        continue;
      }
      d.exchange_words += operand_words;
      d.ranks[static_cast<std::size_t>(r)].bytes_sent =
          ch.bytes_sent() - marks.bytes_sent;
      marks.charge(ch, d);
    }
  }

  // --- execute the root's own share while the workers run theirs -------------
  std::vector<symm::BinExecution> done(bins.size());
  {
    TT_TRACE_SPAN("sched.root_bins", TraceCat::kContract);
    const std::vector<std::size_t>& mine = slot_bins[0];
    Timer busy;
    support::parallel_for(
        static_cast<index_t>(mine.size()),
        [&](index_t i) {
          const std::size_t g = mine[static_cast<std::size_t>(i)];
          done[g] = symm::execute_bin(bins[g], plan.lowering, collect_ops);
        },
        opts_.root_threads);
    d.ranks[0].busy_seconds = busy.seconds();
    d.ranks[0].bins = static_cast<int>(mine.size());
    for (std::size_t g : mine) d.ranks[0].flops += done[g].flops;
  }

  // --- gather worker results in fixed slot order -----------------------------
  if (group_) {
    TT_TRACE_SPAN("sched.gather", TraceCat::kScheduler);
    for (int s = 1; s < S; ++s) {
      if (slot_failed[static_cast<std::size_t>(s)]) continue;
      const int r = slot_rank[static_cast<std::size_t>(s)];
      Channel& ch = group_->channel(r);
      const TransportMarks marks(ch);
      DistStats::Rank& rr = d.ranks[static_cast<std::size_t>(r)];
      Frame f;
      try {
        f = ch.recv_frame(opts_.timeout_seconds);
      } catch (const Error&) {
        // EOF (dead), timeout (wedged), or checksum mismatch (corrupt): the
        // rank's protocol state is unknown — retire/respawn it in heal().
        if (!healing) {
          broken_ = true;
          throw;
        }
        record_failure(s, r, /*dead=*/true);
        continue;
      }
      rr.bytes_received = ch.bytes_received() - marks.bytes_received;
      marks.charge(ch, d);

      if (f.tag == kTagError) {
        // The report itself may be damaged (e.g. wire.truncate hitting the
        // worker's error-frame build); an unreadable message must not escape
        // the healing path.
        std::string msg = "(unreadable error frame)";
        try {
          WireReader er(f.payload);
          msg = er.str();
        } catch (const Error&) {
        }
        if (!healing) {
          broken_ = true;
          TT_FAIL("scheduler rank " << r << " failed: " << msg);
        }
        record_failure(s, r, /*dead=*/false);
        continue;
      }

      try {
        TT_CHECK(f.tag == kTagResult,
                 "scheduler rank " << r << " sent unexpected frame tag " << f.tag);
        const std::vector<std::size_t>& expect = slot_bins[static_cast<std::size_t>(s)];
        const Timer decode;
        WorkerReply reply = [&] {
          TT_TRACE_SPAN("sched.decode", TraceCat::kScheduler);
          return parse_result(f.payload, expect);
        }();
        d.decode_seconds += decode.seconds();
        rr.busy_seconds = reply.busy_seconds;
        rr.codec_seconds = reply.codec_seconds;
        rr.bins = static_cast<int>(expect.size());
        for (std::size_t i = 0; i < expect.size(); ++i) {
          symm::BinExecution& bin = done[expect[i]];
          bin = std::move(reply.bins[i]);
          rr.flops += bin.flops;
          d.exchange_words += static_cast<double>(bin.result.size());
        }
      } catch (const Error&) {
        // Unparseable or desynchronized reply. Any partially-parsed bins are
        // recomputed below (deterministically, so still bitwise identical);
        // the rank itself is in unknown protocol state — heal it.
        if (!healing) {
          broken_ = true;
          throw;
        }
        rr.bins = 0;
        rr.flops = 0.0;
        rr.busy_seconds = 0.0;
        rr.codec_seconds = 0.0;
        record_failure(s, r, /*dead=*/true);
        continue;
      }
    }
  }

  // --- makeup: re-execute failed slots' bins on the root ---------------------
  {
    std::vector<std::size_t> makeup;
    for (int s = 1; s < S; ++s)
      if (slot_failed[static_cast<std::size_t>(s)]) {
        makeup.insert(makeup.end(), slot_bins[static_cast<std::size_t>(s)].begin(),
                      slot_bins[static_cast<std::size_t>(s)].end());
        ++stats_.retries;
      }
    if (!makeup.empty()) {
      TT_TRACE_SPAN("sched.makeup", TraceCat::kRecovery);
      Timer rec;
      support::parallel_for(
          static_cast<index_t>(makeup.size()),
          [&](index_t i) {
            const std::size_t g = makeup[static_cast<std::size_t>(i)];
            done[g] = symm::execute_bin(bins[g], plan.lowering, collect_ops);
          },
          opts_.root_threads);
      d.recovery_seconds += rec.seconds();
      d.ranks[0].bins += static_cast<int>(makeup.size());
      for (std::size_t g : makeup) d.ranks[0].flops += done[g].flops;
    }
  }

  // --- deterministic assembly + reduction in global bin order ----------------
  for (std::size_t g = 0; g < bins.size(); ++g)
    c.accumulate(bins[g].out_key, std::move(done[g].result));
  if (stats) {
    stats->num_bins += static_cast<int>(bins.size());
    for (symm::BinExecution& bin : done) {
      stats->total_flops += bin.flops;
      stats->permuted_words += bin.permuted_words;
      stats->block_ops.insert(stats->block_ops.end(), bin.ops.begin(),
                              bin.ops.end());
    }
  }

  // --- measured cost bookkeeping ---------------------------------------------
  double max_busy = 0.0;
  for (const DistStats::Rank& r : d.ranks)
    max_busy = std::max(max_busy, r.busy_seconds);
  d.critical_busy_seconds = max_busy;
  // Idle tails over the ranks that *participated* — retired ranks are no
  // longer part of the machine and must not read as permanent imbalance.
  for (int s = 0; s < S; ++s)
    d.imbalance_seconds +=
        max_busy - d.ranks[static_cast<std::size_t>(slot_rank[static_cast<std::size_t>(s)])]
                       .busy_seconds;

  // --- respawn dead ranks (bounded attempts + backoff) -----------------------
  heal(dead_ranks, d);
  if (!dead_ranks.empty())
    TT_TRACE_COUNTER("live_workers", static_cast<double>(live_workers()));

  last_ = d;
  accumulated_.merge(d);
  return c;
}

}  // namespace tt::rt
