#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ppa::util {

ThreadPool::ThreadPool(std::size_t worker_count) {
  if (worker_count <= 1) return;  // inline mode
  jobs_.resize(worker_count);
  job_ready_.assign(worker_count, false);
  workers_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& thread : workers_) thread.join();
}

void ThreadPool::worker_main(std::size_t worker_index) {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || job_ready_[worker_index]; });
      if (stopping_ && !job_ready_[worker_index]) return;
      job = jobs_[worker_index];
      job_ready_[worker_index] = false;
    }
    try {
      if (job.begin < job.end) (*job.body)(job.begin, job.end);
    } catch (...) {
      const std::lock_guard lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      const std::lock_guard lock(mutex_);
      PPA_ASSERT(pending_ > 0, "pool bookkeeping underflow");
      --pending_;
      if (pending_ == 0) done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t total, const std::function<void(std::size_t, std::size_t)>& body) {
  if (total == 0) return;
  if (workers_.empty()) {
    body(0, total);
    return;
  }

  const std::size_t lanes = workers_.size() + 1;  // workers + the caller
  const std::size_t chunk = (total + lanes - 1) / lanes;
  std::size_t caller_begin = 0;
  std::size_t caller_end = 0;
  {
    const std::lock_guard lock(mutex_);
    PPA_REQUIRE(pending_ == 0, "ThreadPool::parallel_for is not reentrant");
    first_error_ = nullptr;
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const std::size_t begin = std::min(cursor, total);
      const std::size_t end = std::min(begin + chunk, total);
      jobs_[i] = Job{&body, begin, end};
      job_ready_[i] = true;
      ++pending_;
      cursor = end;
    }
    caller_begin = std::min(cursor, total);
    caller_end = total;
  }
  wake_.notify_all();

  std::exception_ptr caller_error;
  try {
    if (caller_begin < caller_end) body(caller_begin, caller_end);
  } catch (...) {
    caller_error = std::current_exception();
  }
  {
    std::unique_lock lock(mutex_);
    done_.wait(lock, [&] { return pending_ == 0; });
    if (!caller_error) caller_error = first_error_;
  }
  if (caller_error) std::rethrow_exception(caller_error);
}

}  // namespace ppa::util
