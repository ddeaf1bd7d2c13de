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
  if (num_workers_ == 1) return;  // serial mode: no threads, no queues
  queues_.reserve(num_workers_);
  for (unsigned i = 0; i < num_workers_; ++i) {
    queues_.push_back(std::make_unique<WorkQueue>());
  }
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

  // Scatter indices round-robin, tagged with the upcoming epoch so a
  // straggler still scanning for the previous job cannot pick them up
  // before it has observed the new job pointer.  Worker k drains its own
  // deque front to back, so with equal task costs each worker touches a
  // contiguous stride and steals only when it runs dry.
  const std::uint64_t next_epoch = epoch_ + 1;
  for (unsigned w = 0; w < num_workers_; ++w) {
    const std::lock_guard<std::mutex> lock(queues_[w]->mutex);
    queues_[w]->epoch = next_epoch;
    for (std::size_t i = w; i < count; i += num_workers_) {
      queues_[w]->tasks.push_back(i);
    }
  }

  std::unique_lock<std::mutex> lock(mutex_);
  job_ = &fn;
  remaining_ = count;
  first_error_ = nullptr;
  epoch_ = next_epoch;
  work_ready_.notify_all();
  job_done_.wait(lock, [this] { return remaining_ == 0; });
  job_ = nullptr;
  if (first_error_) std::rethrow_exception(first_error_);
}

bool ThreadPool::next_task(unsigned id, std::uint64_t epoch, std::size_t& index) {
  {
    auto& own = *queues_[id];
    const std::lock_guard<std::mutex> lock(own.mutex);
    if (own.epoch == epoch && !own.tasks.empty()) {
      index = own.tasks.front();
      own.tasks.pop_front();
      return true;
    }
  }
  // Steal from the back of a sibling: the back of a round-robin stride
  // is the work its owner would reach last, minimizing contention.
  for (unsigned step = 1; step < num_workers_; ++step) {
    auto& victim = *queues_[(id + step) % num_workers_];
    const std::lock_guard<std::mutex> lock(victim.mutex);
    if (victim.epoch == epoch && !victim.tasks.empty()) {
      index = victim.tasks.back();
      victim.tasks.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(unsigned id) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(unsigned, std::size_t)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    if (job == nullptr) continue;

    std::size_t index = 0;
    while (next_task(id, seen_epoch, index)) {
      std::exception_ptr error;
      try {
        (*job)(id, index);
      } catch (...) {
        error = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error && !first_error_) first_error_ = error;
      if (--remaining_ == 0) job_done_.notify_all();
    }
  }
}

}  // namespace ct::util
