#pragma once

// Aggregate counters of one simulation run, with the one field list
// (run_stats::for_each_field) every consumer walks.

#include <cstddef>
#include <cstdint>

namespace sci {

/// Aggregate counters of one simulation run.
struct run_stats {
    std::uint64_t placements = 0;
    std::uint64_t placement_failures = 0;
    std::uint64_t scheduler_retries = 0;
    std::uint64_t drs_migrations = 0;
    std::uint64_t evacuations = 0;
    /// Placements where the BB had aggregate space but no single node fit
    /// under the ratios — intra-BB fragmentation made visible.
    std::uint64_t forced_fits = 0;
    /// Holistic placements where a node accepted the VM but the provider
    /// claim found the BB full (crash-shrunken inventory): degraded to
    /// NoValidHost instead of aborting.  Subset of placement_failures.
    std::uint64_t holistic_claim_rejections = 0;
    std::uint64_t deletions = 0;
    std::uint64_t scrapes = 0;
    /// Cross-building-block rebalancer moves (0 unless enabled).
    std::uint64_t cross_bb_moves = 0;
    /// Successful flavor resizes (and attempts the fleet rejected).
    std::uint64_t resizes = 0;
    std::uint64_t resize_failures = 0;
    /// Total estimated wall-clock spent in live migrations (seconds).
    double migration_seconds = 0.0;
    /// Worst estimated stop-and-copy downtime of any migration (ms).
    double max_migration_downtime_ms = 0.0;

    // --- speculative initial placement -----------------------------------
    // The batched pipeline runs at every thread count (inline when
    // serial), so these counters — which appear in the report — are
    // identical at any SCI_THREADS.
    /// Initial placements committed straight from a worker's speculative
    /// filter+weigh result (exactly revalidated at commit).
    std::uint64_t speculative_placements = 0;
    /// Speculations fully invalidated by earlier commits in their batch;
    /// the VM was re-placed through the serial retry loop.
    std::uint64_t speculation_misses = 0;
    /// Wall-clock of place_initial_population (host timing for benches —
    /// NOT part of the deterministic output, excluded from comparisons).
    double initial_placement_wall_ms = 0.0;

    // --- batched churn-arrival placement ----------------------------------
    // In-window arrivals are grouped per scrape interval and driven
    // through the same speculate/commit pipeline (inline when serial), so
    // every counter here is identical at any SCI_THREADS.
    std::uint64_t window_batches = 0;       ///< speculation batches launched
    std::uint64_t window_speculations = 0;  ///< arrivals speculated in-window
    /// Arrivals committed straight from a window speculation.
    std::uint64_t window_speculative_placements = 0;
    /// Window speculations whose corrected candidates were exhausted at
    /// commit; the arrival continued through the ordinary retry rounds.
    std::uint64_t window_speculation_misses = 0;
    /// Speculations dropped before commit because provider usage shrank
    /// (deletion / evacuation / crash / resize) or the contention feed
    /// moved since the batch snapshot; the tail of the batch re-speculates.
    std::uint64_t window_speculation_invalidated = 0;
    /// Wall-clock spent draining churn arrivals (host timing for benches —
    /// NOT part of the deterministic output, excluded from comparisons).
    double churn_placement_wall_ms = 0.0;

    // --- batched HA recovery placement ------------------------------------
    // After a crash the detection epoch's victim queue is re-placed as a
    // batch through the same speculate/commit pipeline (inline when
    // serial); all zero when faults are off or the run is holistic.
    std::uint64_t recovery_batches = 0;      ///< speculation batches launched
    std::uint64_t recovery_speculations = 0; ///< victims speculated
    /// Victims committed straight from a recovery speculation.
    std::uint64_t recovery_speculative_placements = 0;
    /// Recovery speculations whose corrected candidates were exhausted at
    /// commit; the victim continued through the ordinary retry rounds.
    std::uint64_t recovery_speculation_misses = 0;
    /// Speculations dropped because usage shrank (another crash, deletion,
    /// evacuation, resize) or the contention feed moved since the batch
    /// snapshot; the tail of the victim queue re-speculates.
    std::uint64_t recovery_speculation_invalidated = 0;
    /// Speculated victims deleted by their owner before the restart fired.
    std::uint64_t recovery_speculation_cancelled = 0;
    /// Wall-clock spent draining HA restarts (host timing for benches —
    /// NOT part of the deterministic output, excluded from comparisons).
    double recovery_placement_wall_ms = 0.0;

    // --- batched cross-BB target speculation -------------------------------
    // A rebalance pass's planned moves have their destination nodes
    // speculated as a batch against each target cluster's usage version;
    // commits consume a target only while its cluster is unchanged, else
    // the tail re-speculates.  Identical at any SCI_THREADS.
    std::uint64_t rebalance_target_speculations = 0;
    /// Targets consumed at commit straight from the batch.
    std::uint64_t rebalance_targets_used = 0;
    /// Targets dropped by a tail re-speculation after an earlier commit
    /// (or abort rollback) moved usage under the batch.
    std::uint64_t rebalance_target_invalidated = 0;

    // --- fault injection & HA recovery (all zero when faults are off) ----
    std::uint64_t az_outages = 0;       ///< AZ-level correlated outages fired
    std::uint64_t host_crashes = 0;     ///< injected hypervisor failures
    std::uint64_t crash_victims = 0;    ///< VMs killed by host crashes
    std::uint64_t ha_restarts = 0;      ///< victims re-placed by HA
    std::uint64_t ha_restart_failures = 0;  ///< failed restart attempts
    std::uint64_t migration_aborts = 0;     ///< DRS/cross-BB aborts
    std::uint64_t maintenance_evacuations = 0;  ///< unplanned maintenance moves
    /// Pre-copy work thrown away by aborted migrations (seconds).
    double wasted_migration_seconds = 0.0;

    // --- conductor backpressure (all zero when mode == degrade) -----------
    // The no_blackhole invariant closes this ledger: bp_enqueued ==
    // bp_queue_placed + bp_shed_deadline + bp_shed_evicted + bp_cancelled
    // + still-queued at evaluation time.
    std::uint64_t bp_enqueued = 0;        ///< requests that entered the queue
    std::uint64_t bp_queue_placed = 0;    ///< queued requests later placed
    std::uint64_t bp_shed_deadline = 0;   ///< shed: queue deadline expired
    std::uint64_t bp_shed_queue_full = 0; ///< shed at admit: queue was full
    std::uint64_t bp_shed_evicted = 0;    ///< shed: displaced by higher priority
    std::uint64_t bp_cancelled = 0;       ///< owner deleted a queued request
    std::uint64_t bp_regime_transitions = 0;  ///< queuing<->shedding flips
    std::uint64_t bp_peak_queue_len = 0;  ///< high-water mark of the queue
    /// HA victims abandoned after max_restart_attempts in degrade mode
    /// (recorded as shed/ha_attempts_exhausted — never silent; under
    /// queue/shed modes the victim is re-queued instead).
    std::uint64_t ha_give_ups = 0;

    /// How a field combines and whether it is deterministic output.
    enum class field_kind : std::uint8_t {
        count,        ///< additive total; part of the deterministic output
        high_water,   ///< worst case; merges by max
        host_timing,  ///< wall-clock of this host; never fingerprinted
    };

    /// The one list of every field, in declaration order:
    /// fn(name, &run_stats::field, kind).  The snapshot codec, region
    /// merging, the stats fingerprint and the tests' equality check all
    /// walk it, so a new counter is added here and nowhere else.
    template <typename Fn>
    static constexpr void for_each_field(Fn&& fn) {
        using k = field_kind;
        fn("placements", &run_stats::placements, k::count);
        fn("placement_failures", &run_stats::placement_failures, k::count);
        fn("scheduler_retries", &run_stats::scheduler_retries, k::count);
        fn("drs_migrations", &run_stats::drs_migrations, k::count);
        fn("evacuations", &run_stats::evacuations, k::count);
        fn("forced_fits", &run_stats::forced_fits, k::count);
        fn("holistic_claim_rejections", &run_stats::holistic_claim_rejections,
           k::count);
        fn("deletions", &run_stats::deletions, k::count);
        fn("scrapes", &run_stats::scrapes, k::count);
        fn("cross_bb_moves", &run_stats::cross_bb_moves, k::count);
        fn("resizes", &run_stats::resizes, k::count);
        fn("resize_failures", &run_stats::resize_failures, k::count);
        fn("migration_seconds", &run_stats::migration_seconds, k::count);
        fn("max_migration_downtime_ms", &run_stats::max_migration_downtime_ms,
           k::high_water);
        fn("speculative_placements", &run_stats::speculative_placements,
           k::count);
        fn("speculation_misses", &run_stats::speculation_misses, k::count);
        fn("initial_placement_wall_ms", &run_stats::initial_placement_wall_ms,
           k::host_timing);
        fn("window_batches", &run_stats::window_batches, k::count);
        fn("window_speculations", &run_stats::window_speculations, k::count);
        fn("window_speculative_placements",
           &run_stats::window_speculative_placements, k::count);
        fn("window_speculation_misses", &run_stats::window_speculation_misses,
           k::count);
        fn("window_speculation_invalidated",
           &run_stats::window_speculation_invalidated, k::count);
        fn("churn_placement_wall_ms", &run_stats::churn_placement_wall_ms,
           k::host_timing);
        fn("recovery_batches", &run_stats::recovery_batches, k::count);
        fn("recovery_speculations", &run_stats::recovery_speculations,
           k::count);
        fn("recovery_speculative_placements",
           &run_stats::recovery_speculative_placements, k::count);
        fn("recovery_speculation_misses",
           &run_stats::recovery_speculation_misses, k::count);
        fn("recovery_speculation_invalidated",
           &run_stats::recovery_speculation_invalidated, k::count);
        fn("recovery_speculation_cancelled",
           &run_stats::recovery_speculation_cancelled, k::count);
        fn("recovery_placement_wall_ms",
           &run_stats::recovery_placement_wall_ms, k::host_timing);
        fn("rebalance_target_speculations",
           &run_stats::rebalance_target_speculations, k::count);
        fn("rebalance_targets_used", &run_stats::rebalance_targets_used,
           k::count);
        fn("rebalance_target_invalidated",
           &run_stats::rebalance_target_invalidated, k::count);
        fn("az_outages", &run_stats::az_outages, k::count);
        fn("host_crashes", &run_stats::host_crashes, k::count);
        fn("crash_victims", &run_stats::crash_victims, k::count);
        fn("ha_restarts", &run_stats::ha_restarts, k::count);
        fn("ha_restart_failures", &run_stats::ha_restart_failures, k::count);
        fn("migration_aborts", &run_stats::migration_aborts, k::count);
        fn("maintenance_evacuations", &run_stats::maintenance_evacuations,
           k::count);
        fn("wasted_migration_seconds", &run_stats::wasted_migration_seconds,
           k::count);
        fn("bp_enqueued", &run_stats::bp_enqueued, k::count);
        fn("bp_queue_placed", &run_stats::bp_queue_placed, k::count);
        fn("bp_shed_deadline", &run_stats::bp_shed_deadline, k::count);
        fn("bp_shed_queue_full", &run_stats::bp_shed_queue_full, k::count);
        fn("bp_shed_evicted", &run_stats::bp_shed_evicted, k::count);
        fn("bp_cancelled", &run_stats::bp_cancelled, k::count);
        fn("bp_regime_transitions", &run_stats::bp_regime_transitions,
           k::count);
        fn("bp_peak_queue_len", &run_stats::bp_peak_queue_len,
           k::high_water);
        fn("ha_give_ups", &run_stats::ha_give_ups, k::count);
    }
};

// Every field is 8 bytes wide, so one left out of the list above fails
// here instead of silently dropping out of snapshots and merges.
static_assert(sizeof(run_stats) == 8 * [] {
    std::size_t n = 0;
    run_stats::for_each_field([&](auto&&...) { ++n; });
    return n;
}());

}  // namespace sci
