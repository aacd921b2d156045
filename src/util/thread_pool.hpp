// Fixed-size thread pool with a blocking parallel_for.
//
// The simulator's one host-parallel level: mcp::all_pairs splits its
// destination groups into contiguous chunks, one machine per chunk, so
// results are deterministic regardless of thread count (each index writes
// only its own slot). A pool size of 0 or 1 degrades to a plain sequential
// loop with no thread machinery at all.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ppa::util {

/// Reusable worker pool. Threads are started once and parked between calls;
/// parallel_for blocks until every chunk completed. Exceptions thrown by the
/// body are captured and rethrown on the calling thread (first one wins).
class ThreadPool {
 public:
  /// `worker_count` == 0 or 1 means: run everything inline on the caller.
  explicit ThreadPool(std::size_t worker_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept { return workers_.size(); }

  /// Applies `body(begin, end)` over [0, total) split into contiguous
  /// chunks, one chunk per worker (plus the caller's share). Blocks until
  /// done.
  void parallel_for(std::size_t total,
                    const std::function<void(std::size_t begin, std::size_t end)>& body);

 private:
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void worker_main(std::size_t worker_index);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::vector<Job> jobs_;         // one slot per worker
  std::vector<bool> job_ready_;   // guarded by mutex_
  std::size_t pending_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

}  // namespace ppa::util
