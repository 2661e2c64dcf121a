// Unit tests for the worker pool and the deterministic chunking helpers
// that underpin the parallel training engine.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/util/parallel.hpp"

namespace cmarkov {
namespace {

TEST(ResolveNumThreadsTest, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(resolve_num_threads(0), 1u);
  EXPECT_EQ(resolve_num_threads(1), 1u);
  EXPECT_EQ(resolve_num_threads(7), 7u);
}

TEST(ResolveNumThreadsTest, RejectsCountsAboveTheLimit) {
  // Checked before any thread starts: a pool or parallel_for asked for
  // too many workers throws without spawning one.
  EXPECT_EQ(resolve_num_threads(kMaxThreads), kMaxThreads);
  EXPECT_THROW(resolve_num_threads(kMaxThreads + 1), std::invalid_argument);
  EXPECT_THROW(WorkerPool(kMaxThreads + 1), std::invalid_argument);
  EXPECT_THROW(parallel_for(kMaxThreads + 1, 4, [](std::size_t) {}),
               std::invalid_argument);
}

TEST(WorkerPoolTest, ExecutesEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 5u}) {
    WorkerPool pool(threads);
    std::vector<std::atomic<int>> hits(100);
    pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                   << " threads";
    }
  }
}

TEST(WorkerPoolTest, EmptyRangeIsNoOp) {
  WorkerPool pool(4);
  bool called = false;
  pool.run(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(WorkerPoolTest, MoreThreadsThanItems) {
  WorkerPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, ReusableAcrossRuns) {
  WorkerPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.run(10, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 200);
}

TEST(WorkerPoolTest, LowestIndexExceptionWins) {
  WorkerPool pool(4);
  for (int round = 0; round < 5; ++round) {
    try {
      pool.run(50, [&](std::size_t i) {
        if (i % 10 == 3) {
          throw std::runtime_error("item " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "item 3");
    }
    // The pool stays usable after a throwing run.
    std::atomic<int> count{0};
    pool.run(7, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 7);
  }
}

TEST(WorkerPoolTest, SingleThreadRunsInline) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const auto caller = std::this_thread::get_id();
  pool.run(4, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelForTest, CoversRangeAtAnyThreadCount) {
  for (std::size_t threads : {1u, 2u, 6u}) {
    std::vector<std::atomic<int>> hits(37);
    parallel_for(threads, hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(4, 10,
                   [](std::size_t i) {
                     if (i == 2) throw std::invalid_argument("boom");
                   }),
      std::invalid_argument);
}

TEST(ChunkingTest, GeometryCoversEveryItemOnce) {
  for (std::size_t count : {0u, 1u, 63u, 64u, 65u, 200u}) {
    const std::size_t chunks = chunk_count(count, 64);
    std::vector<int> seen(count, 0);
    for (std::size_t c = 0; c < chunks; ++c) {
      const ChunkRange range = chunk_range(count, 64, c);
      EXPECT_LE(range.begin, range.end);
      EXPECT_LE(range.end, count);
      for (std::size_t i = range.begin; i < range.end; ++i) seen[i] += 1;
    }
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(seen[i], 1) << "count " << count << " item " << i;
    }
  }
  EXPECT_EQ(chunk_count(0, 64), 0u);
  EXPECT_EQ(chunk_count(64, 64), 1u);
  EXPECT_EQ(chunk_count(65, 64), 2u);
}

TEST(ChunkingTest, GeometryIndependentOfThreadCount) {
  // The determinism argument: chunk boundaries are a pure function of
  // (count, chunk_size). Summing per-chunk partials in chunk order gives
  // the same floating-point result no matter how many workers computed
  // the partials.
  const std::size_t count = 1000;
  std::vector<double> values(count);
  for (std::size_t i = 0; i < count; ++i) {
    values[i] = 1.0 / static_cast<double>(i + 1);
  }
  auto chunked_sum = [&](std::size_t threads) {
    const std::size_t chunks = chunk_count(count, 64);
    std::vector<double> partial(chunks, 0.0);
    parallel_for(threads, chunks, [&](std::size_t c) {
      const ChunkRange range = chunk_range(count, 64, c);
      double sum = 0.0;
      for (std::size_t i = range.begin; i < range.end; ++i) sum += values[i];
      partial[c] = sum;
    });
    double total = 0.0;
    for (double p : partial) total += p;
    return total;
  };
  const double reference = chunked_sum(1);
  EXPECT_EQ(chunked_sum(2), reference);
  EXPECT_EQ(chunked_sum(8), reference);
}

}  // namespace
}  // namespace cmarkov
