#include "core/speculation_batch.hpp"

#include <string>

#include "simcore/error.hpp"

namespace sci {
namespace {

void bump(run_stats& stats, std::uint64_t run_stats::*field, std::size_t n) {
    if (field != nullptr) stats.*field += static_cast<std::uint64_t>(n);
}

}  // namespace

void speculation_batch::open(std::vector<vm_id> vms, batch_span span,
                             const source& src, stamp now, run_stats& stats) {
    vms_ = std::move(vms);
    const std::size_t count = vms_.size();
    if (slots_.size() < count) {
        slots_.resize(count);
        requests_.resize(count);
    }
    // serial prep: requests (policy sampling stays on the main thread)
    for (std::size_t i = 0; i < count; ++i) {
        requests_[i] = src.request_for(vms_[i]);
    }
    // immutable snapshot of the live host view for this batch
    snapshot_ = src.cond.host_states();  // copy reuses capacity
    src.cond.snapshot_claim_counts(claim_counts_);
    const filter_scheduler& scheduler = src.cond.scheduler();
    src.run_sharded(count, [&](unsigned, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const request_context ctx{requests_[i],
                                      src.catalog.get(requests_[i].flavor)};
            scheduler.speculate(ctx, snapshot_, slots_[i]);
        }
    });
    cursor_ = 0;
    opened_at_ = now;
    active_ = true;
    bump(stats, counters_.batches, 1);
    bump(stats, counters_.speculations, count);
    span.size = static_cast<std::uint32_t>(count);
    spans_.push_back(span);
}

void speculation_batch::invalidate_if_stale(stamp now, run_stats& stats) {
    if (!active_ || now == opened_at_) return;
    // usage no longer monotone since the snapshot (or the contention feed
    // moved): the uncommitted tail cannot be committed exactly
    bump(stats, counters_.invalidated, vms_.size() - cursor_);
    active_ = false;
}

const host_speculation* speculation_batch::take(vm_id vm) {
    if (!has_next() || vms_[cursor_] != vm) return nullptr;
    return &slots_[cursor_++];
}

speculation_batch::state speculation_batch::capture() const {
    state s;
    s.active = active_;
    if (active_) {
        s.vms = vms_;
        s.cursor = cursor_;
        s.opened_at = opened_at_;
        // slots_ is grow-only scratch; only the open batch's slots are state
        s.slots.assign(slots_.begin(),
                       slots_.begin() + static_cast<std::ptrdiff_t>(vms_.size()));
        s.claim_counts = claim_counts_;
    }
    s.spans = spans_;
    return s;
}

void speculation_batch::restore(const state& s, std::size_t host_count) {
    const auto fail = [](const std::string& what) {
        throw precondition_error("snapshot::restore: " + what);
    };
    if (s.active) {
        if (s.slots.size() != s.vms.size() || s.cursor > s.vms.size()) {
            fail("open speculation batch is inconsistent (slot count or "
                 "cursor does not match its VMs)");
        }
        if (s.claim_counts.size() != host_count) {
            fail("speculation claim counts cover " +
                 std::to_string(s.claim_counts.size()) + " hosts, the host "
                 "view has " + std::to_string(host_count));
        }
        for (const host_speculation& slot : s.slots) {
            for (const std::uint32_t idx : slot.survivors) {
                if (idx >= host_count) {
                    fail("speculation survivor index " + std::to_string(idx) +
                         " out of range (host view has " +
                         std::to_string(host_count) + " hosts)");
                }
            }
            if (slot.raws.size() !=
                std::size_t{slot.weigher_count} * slot.survivors.size()) {
                fail("speculation raws size " +
                     std::to_string(slot.raws.size()) +
                     " != weigher_count * survivors (" +
                     std::to_string(slot.weigher_count) + " * " +
                     std::to_string(slot.survivors.size()) + ")");
            }
        }
    }
    active_ = s.active;
    vms_ = s.vms;
    cursor_ = static_cast<std::size_t>(s.cursor);
    opened_at_ = s.opened_at;
    slots_ = s.slots;
    requests_.resize(slots_.size());  // grow-only guard keys on slots_
    claim_counts_ = s.claim_counts;
    spans_ = s.spans;
}

}  // namespace sci
