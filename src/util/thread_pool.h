// A small work-stealing thread pool for batch-parallel analysis.
//
// The pool owns `size()` persistent worker threads, each with its own
// task deque.  for_each_index(count, fn) scatters indices [0, count)
// round-robin across the worker deques; a worker drains its own deque
// from the front and, when empty, steals from the back of a sibling's
// deque, so one pathologically slow item (a hard CNF) does not idle the
// rest of the pool.  The call blocks until every index has run and
// rethrows the first exception any task threw.
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

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
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
  struct WorkQueue {
    std::mutex mutex;
    std::deque<std::size_t> tasks;
    std::uint64_t epoch = 0;  // job generation the queued tasks belong to
  };

  void worker_loop(unsigned id);
  bool next_task(unsigned id, std::uint64_t epoch, std::size_t& index);

  unsigned num_workers_ = 1;
  std::vector<std::unique_ptr<WorkQueue>> queues_;
  std::vector<std::thread> threads_;

  // Job state, guarded by mutex_.
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  const std::function<void(unsigned, std::size_t)>* job_ = nullptr;
  std::size_t remaining_ = 0;
  std::uint64_t epoch_ = 0;
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace ct::util
