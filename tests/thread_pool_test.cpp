// Unit tests for the simcore worker pool: coverage of the index range,
// deterministic sharding, exception propagation, nested-call safety, and
// the serial (0-worker) fallback.

#include "simcore/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "simcore/error.hpp"

namespace sci {
namespace {

TEST(ThreadPoolTest, EmptyRangeDoesNotInvokeTask) {
    thread_pool pool(4);
    std::atomic<int> calls{0};
    pool.parallel_for(0, 0, [&](unsigned, std::size_t, std::size_t) { ++calls; });
    pool.parallel_for(7, 7, [&](unsigned, std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, RangeSmallerThanWorkerCountCoversEachIndexOnce) {
    thread_pool pool(8);
    std::vector<std::atomic<int>> hits(3);
    pool.parallel_for(0, 3, [&](unsigned, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, LargeRangeCoversEachIndexOnce) {
    thread_pool pool(4);
    constexpr std::size_t n = 10007;  // prime: uneven shards
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(0, n, [&](unsigned, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ShardHelperPartitionsContiguously) {
    constexpr unsigned count = 5;
    std::size_t expect_begin = 3;
    std::size_t covered = 0;
    for (unsigned i = 0; i < count; ++i) {
        const auto [lo, hi] = thread_pool::shard(3, 45, i, count);
        EXPECT_EQ(lo, expect_begin);  // contiguous, in shard order
        EXPECT_LE(lo, hi);
        covered += hi - lo;
        expect_begin = hi;
    }
    EXPECT_EQ(expect_begin, 45u);
    EXPECT_EQ(covered, 42u);
    // shard boundaries depend only on (range, count) — never on workers
    const auto again = thread_pool::shard(3, 45, 2, count);
    EXPECT_EQ(again, thread_pool::shard(3, 45, 2, count));
}

TEST(ThreadPoolTest, WorkerExceptionPropagatesToCaller) {
    thread_pool pool(4);
    EXPECT_THROW(
        pool.parallel_for(0, 100,
                          [](unsigned, std::size_t begin, std::size_t) {
                              if (begin == 0) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // the pool stays usable after a failed job
    std::atomic<std::size_t> done{0};
    pool.parallel_for(0, 100, [&](unsigned, std::size_t begin, std::size_t end) {
        done += end - begin;
    });
    EXPECT_EQ(done.load(), 100u);
}

TEST(ThreadPoolTest, LowestWorkerExceptionWinsWhenAllThrow) {
    thread_pool pool(4);
    try {
        pool.parallel_for(0, 4, [](unsigned worker, std::size_t, std::size_t) {
            throw std::runtime_error("worker-" + std::to_string(worker));
        });
        FAIL() << "expected runtime_error";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "worker-0");
    }
}

TEST(ThreadPoolTest, NestedParallelForSerializesInsteadOfDeadlocking) {
    thread_pool pool(2);
    std::atomic<std::size_t> inner_total{0};
    pool.parallel_for(0, 2, [&](unsigned, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            pool.parallel_for(0, 10,
                              [&](unsigned, std::size_t b, std::size_t e) {
                                  inner_total += e - b;
                              });
        }
    });
    EXPECT_EQ(inner_total.load(), 20u);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInlineOnCaller) {
    thread_pool pool(0);
    EXPECT_EQ(pool.worker_count(), 0u);
    const std::thread::id caller = std::this_thread::get_id();
    std::size_t covered = 0;
    pool.parallel_for(5, 25, [&](unsigned worker, std::size_t begin, std::size_t end) {
        EXPECT_EQ(worker, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        covered += end - begin;
    });
    EXPECT_EQ(covered, 20u);
}

TEST(ThreadPoolTest, ConcurrentExternalCallersAreSerialized) {
    thread_pool pool(2);
    std::atomic<std::size_t> total{0};
    std::vector<std::thread> callers;
    for (int c = 0; c < 4; ++c) {
        callers.emplace_back([&] {
            for (int round = 0; round < 8; ++round) {
                pool.parallel_for(
                    0, 100, [&](unsigned, std::size_t begin, std::size_t end) {
                        total += end - begin;
                    });
            }
        });
    }
    for (std::thread& th : callers) th.join();
    EXPECT_EQ(total.load(), 4u * 8u * 100u);
}

TEST(ThreadPoolTest, EnvThreadsParsesSciThreads) {
    ::setenv("SCI_THREADS", "6", 1);
    EXPECT_EQ(thread_pool::env_threads(), 6u);
    ::setenv("SCI_THREADS", "0", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::setenv("SCI_THREADS", "", 1);
    EXPECT_EQ(thread_pool::env_threads(), 0u);
    ::unsetenv("SCI_THREADS");
    EXPECT_EQ(thread_pool::env_threads(), 0u);
}

TEST(ThreadPoolTest, EnvThreadsRejectsMalformedValues) {
    // a typo must not silently run serial ("abc") or on a prefix ("2x")
    for (const char* bad : {"abc", "2x", "-1", " 2", "1.5"}) {
        ::setenv("SCI_THREADS", bad, 1);
        try {
            (void)thread_pool::env_threads();
            ADD_FAILURE() << "SCI_THREADS='" << bad << "' was accepted";
        } catch (const error& e) {
            EXPECT_NE(std::string(e.what()).find("SCI_THREADS"),
                      std::string::npos)
                << e.what();
        }
    }
    ::unsetenv("SCI_THREADS");
}

TEST(ThreadPoolTest, ShardRejectsInvalidArguments) {
    EXPECT_THROW(thread_pool::shard(0, 10, 0, 0), precondition_error);
    EXPECT_THROW(thread_pool::shard(0, 10, 3, 3), precondition_error);
}

}  // namespace
}  // namespace sci
