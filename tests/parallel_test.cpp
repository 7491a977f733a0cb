// Unit tests for the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace wck {
namespace {

TEST(ThreadPoolTest, SubmitReturnsResults) {
  ThreadPool pool(2);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw InvalidArgumentError("boom"); });
  EXPECT_THROW((void)f.get(), InvalidArgumentError);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstError) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t i) {
                                   if (i == 37) throw CorruptDataError("bad rank");
                                 }),
               CorruptDataError);
}

TEST(ThreadPoolTest, ParallelForCoversRangeNotAMultipleOfItsChunks) {
  // 17 indices on 4 workers plan 16 chunks of ceil(17/16) = 2, so only
  // the first 9 hold work and the rest must be skipped, not run twice.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(17);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForHonoursNonZeroBegin) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(20);
  pool.parallel_for(10, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), i < 10 ? 0 : 1) << i;
}

TEST(ThreadPoolTest, ParallelForGathersPerIndexResults) {
  // The simulated-rank pattern of bench/ext_weak_scaling: every index
  // writes only its own slot, and the caller reads them after the join.
  ThreadPool pool(2);
  std::vector<std::size_t> out(8);
  pool.parallel_for(0, out.size(), [&](std::size_t r) { out[r] = r * r; });
  for (std::size_t r = 0; r < out.size(); ++r) EXPECT_EQ(out[r], r * r);
}

TEST(ThreadPoolTest, ParallelForWithinPoolWidthRunsIndicesConcurrently) {
  // With no more indices than workers each index is its own task, so
  // all of them run at once: the WCKP block fan-out relies on this to
  // give every strip a worker. Each index waits (bounded) for the rest
  // to arrive; run one after another, none of them would see all four.
  ThreadPool pool(4);
  std::atomic<std::size_t> arrived{0};
  std::atomic<std::size_t> met{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    arrived.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < 4 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (arrived.load() == 4) met.fetch_add(1);
  });
  EXPECT_EQ(met.load(), 4u);
}

TEST(ThreadPoolTest, ParallelForFinishesOtherTasksBeforeRethrowing) {
  // 8 indices on 2 workers are 8 one-index tasks. The failing one must
  // not cut the join short: the others still reference the caller's
  // frame, so all of them have finished by the time the error arrives.
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.parallel_for(0, 8,
                                 [&](std::size_t i) {
                                   if (i == 0) throw CorruptDataError("bad block");
                                   finished.fetch_add(1);
                                 }),
               CorruptDataError);
  EXPECT_EQ(finished.load(), 7);
}

TEST(ThreadPoolTest, PoolStaysUsableAfterParallelForThrows) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(0, 9, [](std::size_t) { throw FormatError("bad"); }),
               FormatError);
  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ManyTasksComplete) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 500; ++i) {
    futs.push_back(pool.submit([&done] { done.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(done.load(), 500);
}

}  // namespace
}  // namespace wck
