#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/check.hpp"

namespace ppa::util {
namespace {

TEST(ThreadPool, InlineModeRunsOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 0u);
  std::vector<int> data(100, 0);
  pool.parallel_for(data.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) data[i] = 1;
  });
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0), 100);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(10007);
  pool.parallel_for(counts.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) counts[i]++;
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ZeroWorkIsNoop) {
  ThreadPool pool(3);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SmallWorkFewerItemsThanWorkers) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> counts(3);
  pool.parallel_for(counts.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) counts[i]++;
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ResultIndependentOfWorkerCount) {
  const auto run = [](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<std::uint64_t> out(5000);
    pool.parallel_for(out.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) out[i] = i * i + 7;
    });
    return out;
  };
  const auto a = run(1);
  const auto b = run(2);
  const auto c = run(5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t begin, std::size_t) {
                          if (begin == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> touched{0};
  pool.parallel_for(10, [&](std::size_t begin, std::size_t end) {
    touched += static_cast<int>(end - begin);
  });
  EXPECT_EQ(touched.load(), 10);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(2);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(100, [&](std::size_t begin, std::size_t end) {
      total += static_cast<long>(end - begin);
    });
  }
  EXPECT_EQ(total.load(), 5000);
}

}  // namespace
}  // namespace ppa::util
