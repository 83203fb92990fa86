#pragma once

// Fixed-size worker pool with a deterministic parallel_for.
//
// The scrape pipeline (core/engine.cpp) needs to fan pure per-index work
// across cores without ever changing the simulation's output: callers
// shard their work by a *fixed* shard count and merge shard results in
// shard order, so the floating-point grouping is identical at any worker
// count (see shard()).  The pool itself only decides which thread runs
// which contiguous index range; it never reorders or splits a range.
//
// Semantics:
//   - thread_pool(0) keeps no workers; parallel_for runs inline on the
//     caller (the serial fallback — identical arithmetic, zero threads).
//   - parallel_for blocks until every index is processed.  An exception
//     thrown by a task is captured and rethrown on the caller; when
//     several workers throw, the lowest worker index wins (deterministic).
//   - A parallel_for issued from inside a pool task (nested use) is
//     serialized inline on that worker — never dispatched — so tasks can
//     call library code that itself parallelizes without deadlocking.
//   - Concurrent parallel_for calls from distinct external threads are
//     serialized against each other; the pool runs one job at a time.
//
// Coarse-grained tasks (run_tasks) layer a second scheduling level on the
// same workers: independent heavyweight tasks (e.g. whole simulation
// regions) are claimed dynamically from a shared counter by every worker
// *and* the calling thread.  Each task runs under the nested-use flag, so
// any parallel_for a task issues internally serializes inline — region
// parallelism composes with intra-region sharding instead of deadlocking
// or oversubscribing.  A single task runs on the caller with the pool left
// idle, so its internal stages can still fan out across the workers.
//
// Worker count resolution: callers usually take an explicit count or fall
// back to env_threads() (the SCI_THREADS environment variable, default 0).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace sci {

class thread_pool {
public:
    /// Task over one contiguous index shard: fn(worker, begin, end).
    using range_fn = std::function<void(unsigned, std::size_t, std::size_t)>;

    /// One coarse-grained task by index: fn(task).
    using task_fn = std::function<void(std::size_t)>;

    /// Start `workers` threads (0 = serial fallback, no threads).
    explicit thread_pool(unsigned workers);
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    unsigned worker_count() const {
        return static_cast<unsigned>(workers_.size());
    }

    /// Split [begin, end) into worker_count contiguous shards and run
    /// fn(worker, shard_begin, shard_end) on each worker.  Blocks until
    /// every shard finished; rethrows the first worker exception.  Empty
    /// ranges return immediately without invoking fn.
    void parallel_for(std::size_t begin, std::size_t end, const range_fn& fn);

    /// Run `count` independent coarse-grained tasks, dynamically claimed
    /// by the workers and the calling thread.  Every task executes under
    /// the nested-use flag, so a parallel_for issued from inside a task
    /// serializes inline on its claimant.  A single task (or a serial /
    /// nested pool) runs inline on the caller *without* the flag, leaving
    /// the workers available to the task's own parallel stages.  Blocks
    /// until all tasks finished; rethrows the lowest-indexed worker
    /// exception, else the caller's own.  Task completion order is not
    /// deterministic — callers must not let task side effects interleave
    /// (each task owns its state; merge results by task index afterwards).
    void run_tasks(std::size_t count, const task_fn& fn);

    /// Contiguous shard `index` of `count` over [begin, end): the same
    /// block decomposition parallel_for uses.  Exposed so callers can
    /// shard by a fixed count (independent of worker count) and keep
    /// reduction order — and therefore floating-point results —
    /// bit-identical under any parallelism.
    static std::pair<std::size_t, std::size_t> shard(std::size_t begin,
                                                     std::size_t end,
                                                     unsigned index,
                                                     unsigned count);

    /// Worker count requested via the SCI_THREADS environment variable
    /// (unset or empty = 0 = serial).  Anything but a non-negative
    /// integer throws sci::error naming the variable.
    static unsigned env_threads();

private:
    void worker_loop(unsigned index);

    std::vector<std::thread> workers_;

    // one job at a time; external callers queue on submit_mutex_
    std::mutex submit_mutex_;

    std::mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    const range_fn* job_fn_ = nullptr;
    std::size_t job_begin_ = 0;
    std::size_t job_end_ = 0;
    std::uint64_t job_epoch_ = 0;
    unsigned job_pending_ = 0;
    bool stopping_ = false;
    std::vector<std::exception_ptr> errors_;  // slot per worker
};

}  // namespace sci
