#include "util/thread_pool.h"

#include <algorithm>

namespace ct::util {

unsigned ThreadPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned ThreadPool::workers_for(unsigned requested) {
  const unsigned hardware = hardware_threads();
  return requested == 0 ? hardware : std::min(requested, hardware);
}

ThreadPool::ThreadPool(unsigned num_threads) {
  num_workers_ = num_threads == 0 ? hardware_threads() : num_threads;
  if (num_workers_ == 1) return;  // serial mode: no threads
  threads_.reserve(num_workers_);
  for (unsigned i = 0; i < num_workers_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::for_each_index(
    std::size_t count, const std::function<void(unsigned, std::size_t)>& fn) {
  if (count == 0) return;
  if (num_workers_ == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }

  std::unique_lock<std::mutex> lock(mutex_);
  job_ = &fn;
  count_ = count;
  chunk_ = std::max<std::size_t>(1, count / (std::size_t{8} * num_workers_));
  cursor_ = 0;
  failed_ = false;
  first_error_ = nullptr;
  busy_ = num_workers_;
  ++epoch_;
  work_ready_.notify_all();
  // Every worker takes part in every job, so none can still be inside
  // this one when the next begins.
  job_done_.wait(lock, [this] { return busy_ == 0; });
  job_ = nullptr;
  if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadPool::run_chunks(unsigned id, const std::function<void(unsigned, std::size_t)>& job,
                            std::size_t count, std::size_t chunk) {
  while (!failed_) {
    const std::size_t begin = cursor_.fetch_add(chunk);
    if (begin >= count) return;
    const std::size_t end = std::min(count, begin + chunk);
    try {
      for (std::size_t i = begin; i < end; ++i) job(id, i);
    } catch (...) {
      failed_ = true;
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
      return;
    }
  }
}

void ThreadPool::worker_loop(unsigned id) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(unsigned, std::size_t)>* job = nullptr;
    std::size_t count = 0;
    std::size_t chunk = 1;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
      count = count_;
      chunk = chunk_;
    }
    run_chunks(id, *job, count, chunk);
    const std::lock_guard<std::mutex> lock(mutex_);
    if (--busy_ == 0) job_done_.notify_all();
  }
}

}  // namespace ct::util
