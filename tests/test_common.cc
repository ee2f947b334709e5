/**
 * @file
 * Tests for the shared infrastructure: thread pool and table printer.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/table.h"
#include "common/thread_pool.h"

namespace scdcnn {
namespace {

TEST(ThreadPool, RunsAllJobs)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 10; ++i)
            pool.submit([&counter] { counter.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(counter.load(), (round + 1) * 10);
    }
}

TEST(ThreadPool, WaitWithNoJobsReturnsImmediately)
{
    ThreadPool pool(2);
    pool.wait();
    SUCCEED();
}

TEST(ThreadPool, DrainWaitsForAllSubmittedJobs)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int i = 0; i < 50; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(counter.load(), 50);
    // The pool survives a drain and keeps accepting work.
    pool.submit([&counter] { counter.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(counter.load(), 51);
}

TEST(ThreadPool, DrainOnIdlePoolReturnsImmediately)
{
    ThreadPool pool(2);
    pool.drain();
    SUCCEED();
}

TEST(ThreadPool, DrainFromInsideAWorkerJobIsNestingSafe)
{
    // A job on a 1-thread pool submits sub-jobs and drains its own
    // pool: drain() must execute the queued sub-jobs inline (no other
    // worker exists) and must not wait on the enclosing job itself.
    ThreadPool pool(1);
    std::atomic<int> sub_done{0};
    std::atomic<bool> outer_done{false};
    pool.submit([&] {
        for (int i = 0; i < 3; ++i)
            pool.submit([&sub_done] { sub_done.fetch_add(1); });
        pool.drain();
        EXPECT_EQ(sub_done.load(), 3);
        outer_done.store(true);
    });
    pool.wait();
    EXPECT_TRUE(outer_done.load());
    EXPECT_EQ(sub_done.load(), 3);
}

TEST(ThreadPool, ConcurrentDrainsFromTwoWorkerJobsDoNotDeadlock)
{
    // Both workers enter drain() while each other's enclosing job is
    // still in flight; the idle condition must discount every
    // drainer-held job, not just the caller's own.
    ThreadPool pool(2);
    std::atomic<int> started{0};
    std::atomic<int> done{0};
    for (int j = 0; j < 2; ++j) {
        pool.submit([&] {
            started.fetch_add(1);
            while (started.load() < 2)
                std::this_thread::yield();
            pool.drain();
            done.fetch_add(1);
        });
    }
    pool.wait();
    EXPECT_EQ(done.load(), 2);
}

TEST(ParallelFor, CoversExactRange)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(0, hits.size(),
                [&hits](size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop)
{
    bool touched = false;
    parallelFor(5, 5, [&touched](size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ParallelFor, SmallRangeRunsInline)
{
    std::vector<int> hits(3, 0);
    parallelFor(0, 3, [&hits](size_t i) { hits[i] += 1; });
    EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelForChunks, ChunksTileTheRangeOnEveryPoolWidth)
{
    for (size_t width : {2, 3, 4}) {
        ThreadPool pool(width);
        for (size_t n : {2, 5, 31, 32, 33, 1000}) {
            const size_t begin = 7;
            std::mutex m;
            std::vector<std::pair<size_t, size_t>> chunks;
            parallelForChunks(pool, begin, begin + n,
                              [&](size_t lo, size_t hi) {
                                  std::lock_guard<std::mutex> lk(m);
                                  chunks.emplace_back(lo, hi);
                              });
            std::sort(chunks.begin(), chunks.end());
            ASSERT_FALSE(chunks.empty());
            EXPECT_LE(chunks.size(), width * 8) << width << " " << n;
            size_t at = begin;
            for (const auto &[lo, hi] : chunks) {
                EXPECT_EQ(lo, at) << width << " " << n;
                EXPECT_LT(lo, hi);
                at = hi;
            }
            EXPECT_EQ(at, begin + n) << width << " " << n;
        }
    }
}

TEST(ParallelForChunks, StalledWorkerLeavesTheRestToOthers)
{
    // The first chunk stalls until three quarters of the range has run
    // elsewhere, as a worker on a CPU shared with another tenant would.
    // With one fixed half per worker the other worker could only ever
    // run a half; with chunks claimed as workers free up, it takes
    // every chunk but the stalled one.
    ThreadPool pool(2);
    const size_t n = 64;
    std::atomic<size_t> done{0};
    std::atomic<bool> timed_out{false};
    parallelForChunks(pool, 0, n, [&](size_t lo, size_t hi) {
        if (lo == 0) {
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (done.load() < 3 * n / 4) {
                if (std::chrono::steady_clock::now() > deadline) {
                    timed_out = true;
                    break;
                }
                std::this_thread::yield();
            }
        }
        done.fetch_add(hi - lo);
    });
    EXPECT_FALSE(timed_out.load());
    EXPECT_EQ(done.load(), n);
}

TEST(TextTable, AlignsColumnsAndPrintsTitle)
{
    TextTable t("Table X");
    t.header({"a", "bbbb"});
    t.row({"xx", "y"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("Table X"), std::string::npos);
    EXPECT_NE(out.find("a  | bbbb"), std::string::npos);
    EXPECT_NE(out.find("xx | y"), std::string::npos);
}

TEST(TextTable, NumFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(3.14159, 4), "3.1416");
    EXPECT_EQ(TextTable::num(static_cast<long long>(42)), "42");
    EXPECT_EQ(TextTable::num(-1.5, 1), "-1.5");
}

TEST(TextTable, SeparatorRowsRender)
{
    TextTable t;
    t.header({"h"});
    t.row({"1"});
    t.separator();
    t.row({"2"});
    std::ostringstream os;
    t.print(os);
    // Header rule + separator + trailing rule + top rule = 4 dashes rows.
    std::string out = os.str();
    size_t dashes = 0;
    size_t pos = 0;
    while ((pos = out.find("---", pos)) != std::string::npos) {
        ++dashes;
        pos = out.find('\n', pos);
    }
    EXPECT_EQ(dashes, 4u);
}

} // namespace
} // namespace scdcnn
