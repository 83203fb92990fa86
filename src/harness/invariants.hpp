#pragma once

// sci::harness — machine-checked invariants over a simulation run.
//
// Each checker is a pure function over narrow inputs (run_stats, the
// event log, collected snapshots) so tests can feed deliberately broken
// data and prove the checker actually fails — no vacuously-green checks.
// The invariant_monitor wires the probes into a live engine: it records
// DRS imbalance samples and runs conservation spot-checks while the run
// plays, then evaluates every enabled checker at the end.
//
// The invariants themselves are the "physics" of the reproduced system
// (ROADMAP direction 1, modeled on Continuity's RFC 0006 harness):
//   - admission accounting: every admitted request is placed or explicitly
//     rejected with a reason; holistic claim rejections are a subset of
//     placement failures.
//   - no silent drops: every VM that is in error has a schedule_fail
//     event, every deleted VM a remove event, every down VM a crash event.
//   - bounded flapping: no VM is DRS-migrated more than a bound per day.
//   - monotone imbalance: a DRS pass never leaves its clusters worse than
//     it found them (under the pass's own demand snapshot), up to epsilon.
//   - bounded recovery tail: HA downtime p99 stays under a limit.
//   - conservation: provider claims == node reservations == active
//     registry VMs per building block, and no resident sits on a downed
//     host.

#include <concepts>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/field_list.hpp"
#include "infra/event_log.hpp"
#include "infra/ids.hpp"
#include "infra/vm.hpp"
#include "simcore/time.hpp"

namespace sci {
struct run_stats;
class sim_engine;
}  // namespace sci

namespace sci::harness {

/// Which invariants a scenario evaluates ([invariants] section of the
/// DSL).  Everything is off by default: a scenario names its physics.
struct invariant_config {
    bool admission_accounting = false;
    bool no_silent_drops = false;
    bool conservation = false;
    /// Backpressure ledger closure: every request that entered the
    /// conductor's queue terminated in exactly one of {placed,
    /// schedule_fail-with-reason, shed-with-reason}.
    bool no_blackhole = false;
    /// Regime transitions (queuing <-> shedding) never flap: consecutive
    /// flips are at least one sampling interval apart.
    bool backpressure_stability = false;
    /// Max DRS migrations of one VM within one day (unset: not checked).
    std::optional<int> flapping_max_moves_per_vm_day;
    /// Per-pass tolerance for imbalance(after) <= imbalance(before) + eps.
    std::optional<double> imbalance_epsilon;
    /// HA downtime p99 bound in seconds (unset: not checked).
    std::optional<double> recovery_p99_seconds;
    /// Fleet-wide conservation across every region of a multi-region
    /// scenario (single-region runs treat it as plain conservation over
    /// the one region).
    bool cross_region_conservation = false;
    /// Snapshot the run at the [snapshot] barrier (default: mid-window),
    /// round-trip the state through the byte codec, restore into a fresh
    /// engine, replay to the end, and require the restored run's
    /// events/stats fingerprints to be bit-identical to the
    /// uninterrupted run's.  Evaluated by run_scenario (it needs the
    /// second run), not by the invariant_monitor.
    bool restore_bit_identity = false;

    /// The one list of every checker switch: fn(config_key, field) with
    /// `field` a reference into `c`, in the DSL's rendered order.
    template <typename Self, typename Fn>
        requires std::same_as<std::remove_const_t<Self>, invariant_config>
    static constexpr void for_each_field(Self& c, Fn&& fn) {
        using k = config_key;
        constexpr std::string_view s = "invariants";
        fn(k{s, "admission_accounting"}, c.admission_accounting);
        fn(k{s, "no_silent_drops"}, c.no_silent_drops);
        fn(k{s, "conservation"}, c.conservation);
        fn(k{s, "no_blackhole"}, c.no_blackhole);
        fn(k{s, "backpressure_stability"}, c.backpressure_stability);
        fn(k{s, "flapping_max_moves_per_vm_day"},
           c.flapping_max_moves_per_vm_day);
        fn(k{s, "imbalance_epsilon"}, c.imbalance_epsilon);
        fn(k{s, "recovery_p99_seconds"}, c.recovery_p99_seconds);
        fn(k{s, "cross_region_conservation"}, c.cross_region_conservation);
        fn(k{s, "restore_bit_identity"}, c.restore_bit_identity);
    }

    /// Number of enabled checkers (a switch that is true or a bound that
    /// is set).
    int count() const {
        int n = 0;
        for_each_field(*this, [&](const config_key&, const auto& on) {
            n += static_cast<bool>(on) ? 1 : 0;
        });
        return n;
    }
};

static_assert(leaf_count<invariant_config>() ==
                  listed_field_count<invariant_config>(),
              "invariant_config::for_each_field must list every field");

/// Outcome of one checker.
struct invariant_result {
    std::string name;
    bool passed = true;
    std::string detail;  ///< precise violation (or a short pass note)
    /// True when the checker had no data to judge (e.g. recovery_tail
    /// over zero recoveries): `passed` stays true so gates don't trip,
    /// but sciverify reports the verdict as "skip", not an implicit pass.
    bool skipped = false;
};

/// One verdict line: "[pass] name: detail" ("[skip]" / "[FAIL]"; no
/// ": detail" when the detail is empty).
std::string to_string(const invariant_result& r);

/// admitted == placed + explicitly rejected, every rejection carries a
/// reason, and holistic claim rejections are a subset of failures.
invariant_result check_admission_accounting(const run_stats& stats,
                                            const event_log& events);

/// Every terminal/down VM state is explained by a logged event.  A VM in
/// error must carry a schedule_fail or shed event — and a crash victim
/// that ended in error must carry a terminal shed (the HA give-up) unless
/// it is still in flight (`in_flight` = VMs currently pending in the HA
/// controller or waiting in the backpressure queue).
invariant_result check_no_silent_drops(std::span<const vm_record> records,
                                       const event_log& events,
                                       std::span<const vm_id> in_flight = {});

/// Backpressure ledger closure: bp_enqueued == bp_queue_placed +
/// bp_shed_deadline + bp_shed_evicted + bp_cancelled + still_queued,
/// shed events match their counters (queue-full sheds and degrade-mode
/// HA give-ups included), and every shed names a reason.
invariant_result check_no_blackhole(const run_stats& stats,
                                    const event_log& events,
                                    std::uint64_t still_queued);

/// Consecutive regime transitions are at least `min_gap` apart.
invariant_result check_backpressure_stability(
    std::span<const sim_time> transitions, sim_duration min_gap);

/// No VM is DRS-migrated more than `max_moves_per_vm_day` times in a day.
invariant_result check_bounded_flapping(const event_log& events,
                                        int max_moves_per_vm_day);

/// One DRS pass's fleet-mean imbalance, before planning and after commit.
struct imbalance_sample {
    sim_time t = 0;
    double before = 0.0;
    double after = 0.0;
};

/// Every pass satisfies after <= before + epsilon.
invariant_result check_monotone_imbalance(
    std::span<const imbalance_sample> samples, double epsilon);

/// HA downtime p99 (nearest-rank over `downtime_seconds`) <= limit.
invariant_result check_recovery_tail(std::span<const double> downtime_seconds,
                                     double p99_limit_seconds);

/// Per-building-block accounting triangle: what the placement service has
/// claimed, what the cluster's nodes have reserved, and what the active
/// VMs of the registry add up to.
struct bb_usage_row {
    bb_id bb;
    std::int64_t claimed_vcpus = 0, resident_vcpus = 0, registry_vcpus = 0;
    std::int64_t claimed_ram_mib = 0, resident_ram_mib = 0,
                 registry_ram_mib = 0;
    std::int64_t claimed_instances = 0, resident_instances = 0,
                 registry_instances = 0;
};

struct conservation_snapshot {
    sim_time t = 0;
    std::vector<bb_usage_row> bbs;
    /// Out-of-service hosts that still carry residents (must be empty).
    std::vector<node_id> down_nodes_with_residents;
};

/// Snapshot the engine's current accounting state (callable mid-run from
/// a probe or after the run).
conservation_snapshot collect_conservation(const sim_engine& engine);

/// All three usage views agree per BB and no resident sits on a downed
/// host.
invariant_result check_conservation(const conservation_snapshot& snapshot);

/// Fleet-wide conservation over every region of a multi-region run: the
/// summed accounting triangle (claimed == resident == registry, per
/// resource, totalled across all regions' building blocks) must close,
/// and no region may have a resident on a downed host.  The sums make
/// this falsifiable against cross-region bleed: a VM double-counted (or
/// lost) by the aggregation layer breaks the fleet totals even when each
/// region's own triangle still closes.
invariant_result check_cross_region_conservation(
    std::span<const conservation_snapshot> per_region);

/// Wires the enabled checkers into a live engine: installs the
/// engine_probes before the run (construct it before engine.setup() /
/// engine.run()), samples while the window plays, and evaluates every
/// enabled checker in evaluate().
class invariant_monitor {
public:
    /// `watch` = assert the scrape-checkable invariants at EVERY scrape
    /// barrier instead of spot-checking: conservation runs each scrape
    /// (not every Nth), and no_silent_drops / bounded_flapping — pure
    /// functions over the event-log prefix, valid at any barrier — run
    /// live too.  Pass-scoped checkers (admission accounting over the
    /// closed window, imbalance monotonicity, recovery tail) still
    /// evaluate once at end-of-run, where their inputs are complete.
    invariant_monitor(sim_engine& engine, invariant_config config,
                      bool watch = false);

    /// Evaluate every enabled checker; call after the run.
    std::vector<invariant_result> evaluate() const;

    std::span<const imbalance_sample> imbalance_samples() const {
        return imbalance_samples_;
    }

private:
    void on_scrape(sim_time t);

    sim_engine* engine_;
    invariant_config config_;
    bool watch_ = false;
    std::vector<imbalance_sample> imbalance_samples_;
    /// Conservation is spot-checked live every Nth scrape (every scrape
    /// under watch); the first in-run violation wins over the end-of-run
    /// state (it would otherwise be masked by a later self-correction).
    static constexpr std::uint64_t live_check_every = 8;
    std::uint64_t scrapes_seen_ = 0;
    std::uint64_t live_checks_ = 0;
    std::string live_violation_name_;
    std::string live_violation_;
};

}  // namespace sci::harness
