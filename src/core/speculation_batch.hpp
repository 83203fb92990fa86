#pragma once

// One speculate/commit placement batch — the mechanism behind initial
// placement, batched churn arrivals and batched HA recovery.
//
// open() builds one schedule_request per VM, snapshots the conductor's
// host view and claim counters, and runs filter + raw-weigh for every VM
// on the pool (filter_scheduler::speculate, inline when serial).  The
// owner then walks its VMs in commit order: commit() places each VM with
// the slot take() hands out when the VM sits at the cursor, through the
// exact commit path (filter_scheduler::commit_speculation revalidates
// only providers claimed since the snapshot), so placements are
// byte-identical at any worker count.  Commits are exact only while usage
// grew monotonically since the snapshot and the contention feed held
// still: invalidate_if_stale() drops the uncommitted tail when the
// placement shrink counter or the scrape epoch moved, and the owner
// re-opens at the VM it is about to place.
//
// Counting lands in the owner's existing run_stats fields (see counters):
// batches and VMs speculated at open, invalidated tails, and placements
// and misses attributed by diffing the conductor's counters around each
// commit.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/run_stats.hpp"
#include "infra/ids.hpp"
#include "sched/conductor.hpp"
#include "simcore/thread_pool.hpp"
#include "simcore/time.hpp"

namespace sci {

/// Time span of one speculation batch (diagnostics: lets tests prove a
/// batch straddled deletion, fault or second-crash events).
struct batch_span {
    sim_time first, last;
    std::uint32_t size;
};

class speculation_batch {
public:
    /// The run_stats fields this batch counts into; null = not counted.
    struct counters {
        std::uint64_t run_stats::*batches = nullptr;
        std::uint64_t run_stats::*speculations = nullptr;
        std::uint64_t run_stats::*placements = nullptr;
        std::uint64_t run_stats::*misses = nullptr;
        std::uint64_t run_stats::*invalidated = nullptr;
    };

    /// Staleness stamp: the placement shrink counter plus the scrape
    /// epoch of the contention feed (0 when the run is not
    /// contention-aware, so scrapes never invalidate).
    struct stamp {
        std::uint64_t shrink_version = 0;
        std::uint64_t scrape_epoch = 0;
        friend bool operator==(const stamp&, const stamp&) = default;
    };

    /// What open() draws on from its owner.
    struct source {
        conductor& cond;
        const flavor_catalog& catalog;
        std::function<schedule_request(vm_id)> request_for;
        std::function<void(std::size_t, const thread_pool::range_fn&)>
            run_sharded;
    };

    /// The durable part, captured at an event-time barrier (everything but
    /// the span log only while a batch is open).
    struct state {
        bool active = false;
        std::vector<vm_id> vms;
        std::uint64_t cursor = 0;
        stamp opened_at;
        std::vector<host_speculation> slots;
        std::vector<std::uint64_t> claim_counts;
        std::vector<batch_span> spans;
    };

    explicit speculation_batch(counters c) : counters_(c) {}

    /// Speculate `vms` (commit order, non-empty) against the live host
    /// view; `span` is logged with its size filled in.
    void open(std::vector<vm_id> vms, batch_span span, const source& src,
              stamp now, run_stats& stats);

    /// Drop the uncommitted tail if `now` differs from the open stamp.
    void invalidate_if_stale(stamp now, run_stats& stats);

    /// True while an open batch still holds an untaken slot.
    bool has_next() const { return active_ && cursor_ < vms_.size(); }

    /// The slot speculated for `vm` if it sits at the cursor (advancing
    /// it), else null — the VM then places unspeculated.
    const host_speculation* take(vm_id vm);

    /// Place `vm` through `place(take(vm), claim_counts)` and count the
    /// conductor's speculative placements and misses it caused.
    template <typename Place>
    bool commit(vm_id vm, const conductor& cond, run_stats& stats,
                Place&& place) {
        const std::uint64_t placed = cond.speculative_placement_count();
        const std::uint64_t missed = cond.speculation_miss_count();
        const bool ok =
            place(take(vm), std::span<const std::uint64_t>(claim_counts_));
        stats.*counters_.placements +=
            cond.speculative_placement_count() - placed;
        stats.*counters_.misses += cond.speculation_miss_count() - missed;
        return ok;
    }

    /// End the batch once every slot was taken.
    void close_if_consumed() {
        if (active_ && cursor_ >= vms_.size()) active_ = false;
    }

    const std::vector<batch_span>& spans() const { return spans_; }

    state capture() const;
    /// Overlay a captured state.  The slots come from untrusted snapshot
    /// bytes, so every index commit_speculation will follow is checked
    /// against `host_count` (the conductor's host-view size) first.
    void restore(const state& s, std::size_t host_count);

private:
    counters counters_;
    bool active_ = false;
    std::vector<vm_id> vms_;  ///< speculated VMs, commit order
    std::size_t cursor_ = 0;  ///< next slot to take
    stamp opened_at_;
    /// Grow-only; [0, vms_.size()) is the open batch.
    std::vector<host_speculation> slots_;
    std::vector<schedule_request> requests_;  ///< sized with slots_
    std::vector<host_state> snapshot_;        ///< immutable during open()
    std::vector<std::uint64_t> claim_counts_;
    std::vector<batch_span> spans_;
};

}  // namespace sci
