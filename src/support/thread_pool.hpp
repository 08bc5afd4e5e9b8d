// Shared work-stealing thread pool: the library's one executor.
//
// The pool executes index-space loops: parallel_for(n, body) splits [0, n)
// into one contiguous range per participating thread; each participant drains
// its own range through an atomic cursor and, when done, steals iterations
// from the most-loaded victim's range. Iterations therefore run exactly once
// with dynamic placement — callers must not depend on which thread runs which
// index, only that disjoint indices may run concurrently.
//
// Every parallel loop in the library runs here: block-contraction bins,
// block-SVD groups, scheduler worker tasks, real-space regions and the packed
// GEMM's tile loop.
// Everything else is a plain serial loop. The thread count is therefore the
// one setting that governs the cores (the TT_THREADS knob):
//   1. set_num_threads(n) override, when set (tests/benches),
//   2. the TT_THREADS environment variable (>= 1), read once,
//   3. std::thread::hardware_concurrency().
//
// Nested loops run inline: a parallel_for issued from inside a region (e.g. a
// GEMM inside a contraction bin) executes serially on the calling thread, so
// the machine is never oversubscribed.
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/types.hpp"

namespace tt::support {

/// True while the calling thread executes inside a pool parallel region
/// (worker or participating caller). Used to suppress nested parallelism.
bool in_parallel_region();

/// Must be the first tt call in a freshly fork()ed child process. The child
/// inherits pool objects whose worker threads do not exist on its side of the
/// fork (joining or scheduling onto them would hang). This call abandons every
/// inherited pool (deliberately leaked — their destructors would join ghost
/// threads); fresh pools are created on demand by the next parallel_for.
void notify_fork_child();

/// A pool of background worker threads executing stealable index loops.
/// One loop runs at a time per pool; concurrent callers are serialized.
class ThreadPool {
 public:
  /// Spawns `workers` background threads (callers contribute one more).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Run body(i) exactly once for every i in [0, n), on up to `max_threads`
  /// threads including the caller. Blocks until every iteration finished.
  /// The first exception thrown by `body` is rethrown here (remaining
  /// iterations are abandoned). Nested calls from inside a region run inline.
  void parallel_for(index_t n, int max_threads,
                    const std::function<void(index_t)>& body);

 private:
  struct Loop;

  void worker_main();
  static void run_participant(Loop& loop, int slot);

  std::vector<std::thread> threads_;
  std::mutex run_mutex_;               // serializes whole loops
  std::mutex mutex_;                   // guards current_/pending_/stop_
  std::condition_variable work_cv_;    // wakes workers
  std::shared_ptr<Loop> current_;      // loop being joined by workers
  int pending_ = 0;                    // worker slots still unclaimed
  bool stop_ = false;
};

/// Executor thread count from the override / TT_THREADS / hardware (>= 1).
int num_threads();

/// Override the thread count for this process (n >= 1); n <= 0 restores the
/// TT_THREADS / hardware default. Takes effect on the next parallel_for.
void set_num_threads(int n);

/// Run body(i) for i in [0, n) on the shared global pool. `threads` caps the
/// participant count; 0 means the num_threads() setting. Serial (inline) when
/// the resolved count is 1, n <= 1, or the caller is already inside a region.
void parallel_for(index_t n, const std::function<void(index_t)>& body,
                  int threads = 0);

}  // namespace tt::support
