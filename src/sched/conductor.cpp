#include "sched/conductor.hpp"

#include <algorithm>

#include "simcore/error.hpp"
#include "workload/calibration.hpp"

namespace sci {

allocation_ratios default_ratios_for(bb_purpose purpose) {
    namespace cal = calibration;
    switch (purpose) {
        case bb_purpose::hana:
        case bb_purpose::dedicated_xl:
            return {cal::hana_cpu_allocation_ratio, cal::hana_ram_allocation_ratio};
        case bb_purpose::general:
        case bb_purpose::gpu:
        case bb_purpose::reserve:
            return {cal::gp_cpu_allocation_ratio, cal::gp_ram_allocation_ratio};
    }
    return {1.0, 1.0};
}

conductor::conductor(const fleet& fleet, const flavor_catalog& catalog,
                     placement_service& placement, filter_scheduler scheduler)
    : fleet_(fleet),
      catalog_(catalog),
      placement_(placement),
      scheduler_(std::move(scheduler)) {}

std::vector<host_state> conductor::build_host_states() const {
    std::vector<host_state> states;
    states.reserve(placement_.providers().size());
    for (bb_id bb : placement_.providers()) {
        const building_block& block = fleet_.get(bb);
        const datacenter& dc = fleet_.get(block.dc);
        const provider_inventory& inv = placement_.inventory(bb);
        const provider_usage& use = placement_.usage(bb);
        host_state s;
        s.bb = bb;
        s.dc = block.dc;
        s.az = dc.az;
        s.purpose = block.purpose;
        s.node_count = static_cast<int>(block.nodes.size());
        s.total_pcpus = inv.total_pcpus;
        s.total_ram_mib = inv.total_ram_mib;
        s.total_disk_gib = inv.total_disk_gib;
        s.cpu_allocation_ratio = inv.cpu_allocation_ratio;
        s.ram_allocation_ratio = inv.ram_allocation_ratio;
        s.vcpus_used = use.vcpus_used;
        s.ram_used_mib = use.ram_used_mib;
        s.disk_used_gib = use.disk_used_gib;
        s.instances = use.instances;
        if (contention_feed_) s.avg_cpu_contention_pct = contention_feed_(bb);
        states.push_back(s);
    }
    return states;
}

const std::vector<host_state>& conductor::host_states() {
    refresh_host_states();
    return states_;
}

void conductor::refresh_host_states() {
    const std::vector<bb_id>& providers = placement_.providers();
    if (states_.size() != providers.size()) {
        // first call (or providers registered since): full build, caching
        // the pointer-stable usage records for the incremental refreshes
        states_ = build_host_states();
        usage_refs_.clear();
        usage_refs_.reserve(providers.size());
        provider_pos_.clear();
        for (std::uint32_t i = 0; i < providers.size(); ++i) {
            usage_refs_.push_back(&placement_.usage(providers[i]));
            const auto value = static_cast<std::size_t>(providers[i].value());
            if (provider_pos_.size() <= value) provider_pos_.resize(value + 1);
            provider_pos_[value] = i;
        }
        states_version_ = placement_.version();
        // claim counters and the dirty scratch follow the provider set;
        // providers are append-only, so existing counters keep their value
        claim_counts_.resize(providers.size(), 0);
        dirty_scratch_.resize(providers.size(), 0);
        return;
    }
    // Usage unchanged and no (unversioned) telemetry feed: view is current.
    if (!contention_feed_ && states_version_ == placement_.version()) return;
    for (std::size_t i = 0; i < states_.size(); ++i) {
        const provider_usage& use = *usage_refs_[i];
        host_state& s = states_[i];
        s.vcpus_used = use.vcpus_used;
        s.ram_used_mib = use.ram_used_mib;
        s.disk_used_gib = use.disk_used_gib;
        s.instances = use.instances;
        if (contention_feed_) s.avg_cpu_contention_pct = contention_feed_(s.bb);
    }
    states_version_ = placement_.version();
}

void conductor::snapshot_claim_counts(std::vector<std::uint64_t>& out) {
    refresh_host_states();  // also (re)builds provider_pos_ + claim_counts_
    out.assign(claim_counts_.begin(), claim_counts_.end());
}

void conductor::restore_counters(std::uint64_t scheduled,
                                 std::uint64_t no_valid_host,
                                 std::uint64_t retries,
                                 std::uint64_t transient_claim_failures,
                                 std::uint64_t speculative_placements,
                                 std::uint64_t speculation_misses) {
    scheduled_ = scheduled;
    no_valid_host_ = no_valid_host;
    retries_ = retries;
    transient_claim_failures_ = transient_claim_failures;
    speculative_placements_ = speculative_placements;
    speculation_misses_ = speculation_misses;
}

void conductor::restore_claim_counts(const std::vector<std::uint64_t>& counts) {
    refresh_host_states();  // sizes claim_counts_ to the provider set
    expects(counts.size() == claim_counts_.size(),
            "conductor::restore_claim_counts: provider count mismatch");
    claim_counts_ = counts;
}

void conductor::mark_claimed(bb_id bb) {
    if (claim_counts_.empty()) return;  // no host view built yet
    ++claim_counts_[provider_pos_[static_cast<std::size_t>(bb.value())]];
}

placement_outcome conductor::schedule_and_claim(
    const schedule_request& request, const host_speculation* spec,
    std::span<const std::uint64_t> base_counts) {
    const flavor& f = catalog_.get(request.flavor);
    const request_context ctx{request, f};
    placement_outcome outcome;

    // A valid speculation replaces round 0's filter+weigh: the corrected
    // candidate list is bitwise what select_destinations would return
    // (the caller guarantees monotone usage since the snapshot), so the
    // claim/fault sequence — including injected-fault RNG draws — matches
    // the pristine loop exactly.  On a miss the loop simply continues
    // into round 1 with a fresh selection, again exactly like the
    // pristine loop; nothing is replayed or double-counted.
    const bool use_spec = spec != nullptr && spec->valid &&
                          base_counts.size() == claim_counts_.size() &&
                          !base_counts.empty();
    if (use_spec) {
        // dirty = providers claimed since the caller's snapshot; usage on
        // clean providers is bitwise what the snapshot saw (any shrink
        // invalidates the whole batch before the caller gets here)
        for (std::size_t i = 0; i < claim_counts_.size(); ++i) {
            dirty_scratch_[i] = claim_counts_[i] != base_counts[i] ? 1 : 0;
        }
    }
    for (int round = 0; round <= request.max_retries; ++round) {
        const std::vector<host_state>& hosts = host_states();
        const bool from_spec = round == 0 && use_spec;
        // a handful of alternates per round, like Nova's alternate list
        const std::span<const bb_id> candidates =
            from_spec ? scheduler_.commit_speculation(
                            ctx, hosts, *spec, dirty_scratch_, 5, scratch_)
                      : scheduler_.select_destinations(ctx, hosts, 5, scratch_);
        if (candidates.empty()) {
            if (from_spec) ++speculation_misses_;
            break;
        }

        for (bb_id candidate : candidates) {
            ++outcome.attempts;
            if (claim_fault_ &&
                claim_fault_(request.vm, candidate, outcome.attempts)) {
                ++transient_claim_failures_;
                continue;  // injected claim race: try the next alternate
            }
            try {
                placement_.claim(request.vm, candidate, f);
                mark_claimed(candidate);
                outcome.success = true;
                outcome.bb = candidate;
                ++scheduled_;
                retries_ += static_cast<std::uint64_t>(outcome.attempts - 1);
                if (from_spec) ++speculative_placements_;
                return outcome;
            } catch (const capacity_error&) {
                continue;  // race lost: try the next alternate
            }
        }
        // the speculated alternates are exhausted: later rounds re-select
        // against the live view, exactly as the pristine loop would
        if (from_spec) ++speculation_misses_;
    }
    ++no_valid_host_;
    return outcome;
}

}  // namespace sci
