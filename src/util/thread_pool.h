// A small thread pool for batch-parallel analysis.
//
// The pool owns `size()` persistent worker threads.  for_each_index(count,
// fn) hands out the indices [0, count) in fixed chunks of
// max(1, count / (8 * size())) consecutive indices: each worker claims
// the next chunk from one shared atomic cursor, runs it, and claims
// again until the cursor passes `count`.  A claim is one atomic add, so a
// batch of many tiny tasks (a CNF verdict each) pays no lock per task;
// with about eight chunks per worker, one slow chunk still leaves the
// others to the rest of the pool.  There is no work stealing: a claimed
// chunk runs on its claimer.  The call blocks until every worker is done
// with the job.  When a task throws, its worker stops, the other workers
// finish the chunk they hold and claim no more, and the call rethrows the
// first exception once; the pool stays usable for the next job.
//
// Determinism contract: fn(worker, index) receives a stable index, so
// callers that write results into a pre-sized slot `out[index]` get
// output that is byte-identical for any thread count — only the
// execution interleaving varies.  Worker-local scratch state (e.g., a
// CnfAnalyzer) can be keyed on `worker`, which is always in
// [0, size()).
//
// A pool constructed with one thread spawns no threads at all:
// for_each_index degenerates to a plain serial loop on the calling
// thread, giving exactly the single-threaded behavior and stack traces.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ct::util {

class ThreadPool {
 public:
  /// num_threads == 0 selects hardware_threads().
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker lanes (>= 1).  fn's `worker` argument is < size().
  unsigned size() const { return num_workers_; }

  /// std::thread::hardware_concurrency with a floor of 1.
  static unsigned hardware_threads();
  /// The worker count for a requested one: 0 = hardware_threads(), and
  /// a larger request is capped at hardware_threads(), since more
  /// workers than cores would only oversubscribe them.
  static unsigned workers_for(unsigned requested);

  /// Runs fn(worker, index) for every index in [0, count); blocks until
  /// all tasks completed.  Not reentrant: at most one for_each_index may
  /// be active per pool at a time.
  void for_each_index(std::size_t count,
                      const std::function<void(unsigned worker, std::size_t index)>& fn);

 private:
  void worker_loop(unsigned id);
  /// Claims and runs chunks of the current job until none is left or a
  /// task has thrown.
  void run_chunks(unsigned id, const std::function<void(unsigned, std::size_t)>& job,
                  std::size_t count, std::size_t chunk);

  unsigned num_workers_ = 1;
  std::vector<std::thread> threads_;

  // The current job's claims, reset under mutex_ before a job starts.
  std::atomic<std::size_t> cursor_{0};
  std::atomic<bool> failed_{false};

  // Job state, guarded by mutex_.
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  const std::function<void(unsigned, std::size_t)>* job_ = nullptr;
  std::size_t count_ = 0;
  std::size_t chunk_ = 1;
  std::uint64_t epoch_ = 0;  // job generation
  unsigned busy_ = 0;        // workers not yet done with the current job
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace ct::util
