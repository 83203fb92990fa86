#include "harness/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/engine.hpp"
#include "fault/ha.hpp"
#include "simcore/error.hpp"

namespace sci::harness {

std::string to_string(const invariant_result& r) {
    return std::string("[") +
           (r.skipped ? "skip" : (r.passed ? "pass" : "FAIL")) + "] " + r.name +
           (r.detail.empty() ? "" : ": " + r.detail);
}

namespace {

invariant_result pass(std::string name, std::string detail) {
    return invariant_result{std::move(name), true, std::move(detail)};
}

invariant_result fail(std::string name, std::string detail) {
    return invariant_result{std::move(name), false, std::move(detail)};
}

/// VMs currently held by the HA controller or the backpressure queue:
/// their unterminated states are in flight, not dropped.
std::vector<vm_id> collect_in_flight(const sim_engine& engine) {
    std::vector<vm_id> out;
    if (const ha_controller* ha = engine.ha(); ha != nullptr) {
        for (const ha_controller::pending_row& row : ha->pending_table()) {
            out.push_back(row.vm);
        }
    }
    if (const backpressure_controller* bp = engine.backpressure();
        bp != nullptr) {
        for (std::size_t i = 0; i < bp->size(); ++i) {
            out.push_back(bp->at(i).vm);
        }
    }
    return out;
}

}  // namespace

invariant_result check_admission_accounting(const run_stats& stats,
                                            const event_log& events) {
    const std::string name = "admission_accounting";
    const auto creates = events.count(lifecycle_event_kind::create);
    const auto restarts = events.count(lifecycle_event_kind::ha_restart);
    const auto fails = events.count(lifecycle_event_kind::schedule_fail);
    std::uint64_t missing_reason = 0;
    std::uint64_t holistic_rejects = 0;
    for (const lifecycle_event& e : events.all()) {
        if (e.kind != lifecycle_event_kind::schedule_fail) continue;
        if (e.reason == schedule_fail_reason::none) ++missing_reason;
        if (e.reason == schedule_fail_reason::holistic_claim_rejected) {
            ++holistic_rejects;
        }
    }
    std::ostringstream out;
    if (stats.placements != creates + restarts) {
        out << "placements (" << stats.placements << ") != create events ("
            << creates << ") + ha_restart events (" << restarts << ")";
        return fail(name, out.str());
    }
    if (stats.placement_failures != fails) {
        out << "placement_failures (" << stats.placement_failures
            << ") != schedule_fail events (" << fails << ")";
        return fail(name, out.str());
    }
    if (stats.holistic_claim_rejections > stats.placement_failures) {
        out << "holistic_claim_rejections ("
            << stats.holistic_claim_rejections
            << ") exceed placement_failures (" << stats.placement_failures
            << ")";
        return fail(name, out.str());
    }
    if (missing_reason > 0) {
        out << missing_reason << " schedule_fail events carry no reason";
        return fail(name, out.str());
    }
    if (holistic_rejects != stats.holistic_claim_rejections) {
        out << "holistic_claim_rejected events (" << holistic_rejects
            << ") != stats.holistic_claim_rejections ("
            << stats.holistic_claim_rejections << ")";
        return fail(name, out.str());
    }
    out << stats.placements << " placements = " << creates << " creates + "
        << restarts << " ha_restarts; " << fails
        << " explicit rejections, all with reasons";
    return pass(name, out.str());
}

invariant_result check_no_silent_drops(std::span<const vm_record> records,
                                       const event_log& events,
                                       std::span<const vm_id> in_flight) {
    const std::string name = "no_silent_drops";
    struct vm_flags {
        bool failed = false, crashed = false, removed = false, placed = false,
             shed = false;
    };
    std::unordered_map<std::int32_t, vm_flags> flags;
    flags.reserve(records.size());
    for (const lifecycle_event& e : events.all()) {
        vm_flags& f = flags[e.vm.value()];
        switch (e.kind) {
            case lifecycle_event_kind::schedule_fail: f.failed = true; break;
            case lifecycle_event_kind::crash: f.crashed = true; break;
            case lifecycle_event_kind::remove: f.removed = true; break;
            case lifecycle_event_kind::create:
            case lifecycle_event_kind::ha_restart: f.placed = true; break;
            case lifecycle_event_kind::shed: f.shed = true; break;
            default: break;
        }
    }
    std::unordered_set<std::int32_t> in_flight_set;
    in_flight_set.reserve(in_flight.size());
    for (const vm_id vm : in_flight) in_flight_set.insert(vm.value());
    std::uint64_t violations = 0;
    std::ostringstream first;
    const auto violate = [&](const vm_record& rec, const char* what) {
        if (violations == 0) {
            first << "vm " << rec.id.value() << " is " << to_string(rec.state)
                  << " but has no " << what << " event";
        }
        ++violations;
    };
    for (const vm_record& rec : records) {
        const auto it = flags.find(rec.id.value());
        const vm_flags f = it == flags.end() ? vm_flags{} : it->second;
        switch (rec.state) {
            case vm_state::error:
                if (!f.failed && !f.shed) {
                    violate(rec, "schedule_fail/shed");
                } else if (f.crashed && !f.shed &&
                           !in_flight_set.contains(rec.id.value())) {
                    // A crash victim stuck in error with no terminal shed
                    // and no pending HA/backpressure entry is the silent
                    // give-up this audit exists to catch: its failed
                    // restart *attempts* logged schedule_fails, but the
                    // abandonment itself vanished.
                    violate(rec, "shed");
                }
                break;
            case vm_state::pending:
                // A pending VM with no events at all was never admitted
                // (its planned arrival lies beyond a truncated window).
                // Once admitted, pending means a crash victim awaiting
                // HA; anything else fell through the cracks.
                if (it == flags.end()) break;
                if (!f.crashed) violate(rec, "crash");
                break;
            case vm_state::deleted:
                if (!f.removed) violate(rec, "remove");
                break;
            case vm_state::active:
                if (!f.placed) violate(rec, "create/ha_restart");
                break;
        }
    }
    if (violations > 0) {
        std::ostringstream out;
        out << violations << " unexplained VM states; first: " << first.str();
        return fail(name, out.str());
    }
    std::ostringstream out;
    out << records.size() << " VM lifecycles fully explained by the log";
    return pass(name, out.str());
}

invariant_result check_bounded_flapping(const event_log& events,
                                        int max_moves_per_vm_day) {
    expects(max_moves_per_vm_day >= 0,
            "check_bounded_flapping: bound must be non-negative");
    const std::string name = "bounded_flapping";
    struct day_count {
        std::int64_t day = -1;
        int count = 0;
    };
    std::unordered_map<std::int32_t, day_count> per_vm;
    std::int32_t worst_vm = -1;
    std::int64_t worst_day = -1;
    int worst = 0;
    for (const lifecycle_event& e : events.all()) {
        if (e.kind != lifecycle_event_kind::migrate) continue;
        day_count& dc = per_vm[e.vm.value()];
        const std::int64_t day = day_index(e.t);
        if (dc.day != day) {
            dc.day = day;
            dc.count = 0;
        }
        ++dc.count;
        if (dc.count > worst) {
            worst = dc.count;
            worst_vm = e.vm.value();
            worst_day = day;
        }
    }
    std::ostringstream out;
    if (worst > max_moves_per_vm_day) {
        out << "vm " << worst_vm << " migrated " << worst << " times on day "
            << worst_day << " (bound " << max_moves_per_vm_day << ")";
        return fail(name, out.str());
    }
    out << "worst VM saw " << worst << " migrations in a day (bound "
        << max_moves_per_vm_day << ")";
    return pass(name, out.str());
}

invariant_result check_monotone_imbalance(
    std::span<const imbalance_sample> samples, double epsilon) {
    expects(epsilon >= 0.0,
            "check_monotone_imbalance: epsilon must be non-negative");
    const std::string name = "monotone_imbalance";
    const imbalance_sample* worst = nullptr;
    double worst_excess = 0.0;
    for (const imbalance_sample& s : samples) {
        const double excess = s.after - (s.before + epsilon);
        if (excess > worst_excess) {
            worst_excess = excess;
            worst = &s;
        }
    }
    std::ostringstream out;
    if (worst != nullptr) {
        out << "DRS pass at t=" << worst->t << " worsened imbalance "
            << worst->before << " -> " << worst->after << " (epsilon "
            << epsilon << ")";
        return fail(name, out.str());
    }
    out << samples.size() << " DRS passes, none worsened imbalance beyond "
        << epsilon;
    return pass(name, out.str());
}

invariant_result check_recovery_tail(std::span<const double> downtime_seconds,
                                     double p99_limit_seconds) {
    expects(p99_limit_seconds > 0.0,
            "check_recovery_tail: limit must be positive");
    const std::string name = "recovery_tail";
    if (downtime_seconds.empty()) {
        // No distribution to judge: an explicit skip, not an implicit
        // pass (`passed` stays true so gates don't trip on fault-free
        // runs, but sciverify reports the verdict as "skip").
        invariant_result result = pass(name, "skipped: no HA recoveries observed");
        result.skipped = true;
        return result;
    }
    std::vector<double> sorted(downtime_seconds.begin(),
                               downtime_seconds.end());
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(std::ceil(
                          0.99 * static_cast<double>(sorted.size()))) -
                      1;
    const double p99 = sorted[rank];
    std::ostringstream out;
    out << "downtime p99 " << p99 << " s over " << sorted.size()
        << " recoveries (limit " << p99_limit_seconds << " s)";
    if (p99 > p99_limit_seconds) return fail(name, out.str());
    return pass(name, out.str());
}

invariant_result check_no_blackhole(const run_stats& stats,
                                    const event_log& events,
                                    std::uint64_t still_queued) {
    const std::string name = "no_blackhole";
    std::ostringstream out;
    const std::uint64_t terminated = stats.bp_queue_placed +
                                     stats.bp_shed_deadline +
                                     stats.bp_shed_evicted + stats.bp_cancelled;
    if (stats.bp_enqueued != terminated + still_queued) {
        out << "bp_enqueued (" << stats.bp_enqueued << ") != placed ("
            << stats.bp_queue_placed << ") + shed-deadline ("
            << stats.bp_shed_deadline << ") + evicted ("
            << stats.bp_shed_evicted << ") + cancelled (" << stats.bp_cancelled
            << ") + still queued (" << still_queued << ")";
        return fail(name, out.str());
    }
    const auto sheds = events.count(lifecycle_event_kind::shed);
    const std::uint64_t expected_sheds =
        stats.bp_shed_deadline + stats.bp_shed_queue_full +
        stats.bp_shed_evicted + stats.ha_give_ups;
    if (sheds != expected_sheds) {
        out << "shed events (" << sheds << ") != bp_shed_deadline ("
            << stats.bp_shed_deadline << ") + bp_shed_queue_full ("
            << stats.bp_shed_queue_full << ") + bp_shed_evicted ("
            << stats.bp_shed_evicted << ") + ha_give_ups ("
            << stats.ha_give_ups << ")";
        return fail(name, out.str());
    }
    std::uint64_t missing_reason = 0;
    for (const lifecycle_event& e : events.all()) {
        if (e.kind == lifecycle_event_kind::shed &&
            e.reason == schedule_fail_reason::none) {
            ++missing_reason;
        }
    }
    if (missing_reason > 0) {
        out << missing_reason << " shed events carry no reason";
        return fail(name, out.str());
    }
    out << stats.bp_enqueued << " queued requests terminated exactly once ("
        << still_queued << " still queued); " << sheds
        << " sheds, all with reasons";
    return pass(name, out.str());
}

invariant_result check_backpressure_stability(
    std::span<const sim_time> transitions, sim_duration min_gap) {
    expects(min_gap > 0,
            "check_backpressure_stability: min_gap must be positive");
    const std::string name = "backpressure_stability";
    std::ostringstream out;
    for (std::size_t i = 1; i < transitions.size(); ++i) {
        const sim_duration gap = transitions[i] - transitions[i - 1];
        if (gap < min_gap) {
            out << "regime flapped: transitions at t=" << transitions[i - 1]
                << " and t=" << transitions[i] << " are " << gap
                << " s apart (min " << min_gap << " s)";
            return fail(name, out.str());
        }
    }
    out << transitions.size() << " regime transitions, all at least "
        << min_gap << " s apart";
    return pass(name, out.str());
}

conservation_snapshot collect_conservation(const sim_engine& engine) {
    conservation_snapshot snap;
    const fleet& f = engine.infrastructure();
    snap.bbs.resize(f.bb_count());
    for (const building_block& bb : f.bbs()) {
        bb_usage_row& row = snap.bbs[static_cast<std::size_t>(bb.id.value())];
        row.bb = bb.id;
        const provider_usage& use = engine.placement().usage(bb.id);
        row.claimed_vcpus = static_cast<std::int64_t>(use.vcpus_used);
        row.claimed_ram_mib = static_cast<std::int64_t>(use.ram_used_mib);
        row.claimed_instances = static_cast<std::int64_t>(use.instances);
    }
    for (const drs_cluster& cluster : engine.clusters()) {
        bb_usage_row& row =
            snap.bbs[static_cast<std::size_t>(cluster.bb().value())];
        for (const node_runtime& nr : cluster.nodes()) {
            row.resident_vcpus +=
                static_cast<std::int64_t>(nr.reserved_vcpus());
            row.resident_ram_mib +=
                static_cast<std::int64_t>(nr.reserved_ram_mib());
            row.resident_instances +=
                static_cast<std::int64_t>(nr.residents().size());
            if (engine.node_is_down(nr.id()) && !nr.residents().empty()) {
                snap.down_nodes_with_residents.push_back(nr.id());
            }
        }
    }
    for (const vm_record& rec : engine.vms().all()) {
        if (rec.state != vm_state::active) continue;
        const flavor& fl = engine.catalog().get(rec.flavor);
        bb_usage_row& row =
            snap.bbs[static_cast<std::size_t>(rec.placed_bb.value())];
        row.registry_vcpus += fl.vcpus;
        row.registry_ram_mib += static_cast<std::int64_t>(fl.ram_mib);
        row.registry_instances += 1;
    }
    return snap;
}

invariant_result check_conservation(const conservation_snapshot& snapshot) {
    const std::string name = "conservation";
    std::ostringstream out;
    if (!snapshot.down_nodes_with_residents.empty()) {
        out << snapshot.down_nodes_with_residents.size()
            << " downed hosts still carry residents; first: node "
            << snapshot.down_nodes_with_residents.front().value() << " at t="
            << snapshot.t;
        return fail(name, out.str());
    }
    for (const bb_usage_row& row : snapshot.bbs) {
        const auto mismatch = [&](const char* what, std::int64_t claimed,
                                  std::int64_t resident,
                                  std::int64_t registry) {
            out << "bb " << row.bb.value() << " " << what
                << " disagree at t=" << snapshot.t << ": claimed " << claimed
                << ", resident " << resident << ", registry " << registry;
            return fail(name, out.str());
        };
        if (row.claimed_vcpus != row.resident_vcpus ||
            row.claimed_vcpus != row.registry_vcpus) {
            return mismatch("vcpus", row.claimed_vcpus, row.resident_vcpus,
                            row.registry_vcpus);
        }
        if (row.claimed_ram_mib != row.resident_ram_mib ||
            row.claimed_ram_mib != row.registry_ram_mib) {
            return mismatch("ram_mib", row.claimed_ram_mib,
                            row.resident_ram_mib, row.registry_ram_mib);
        }
        if (row.claimed_instances != row.resident_instances ||
            row.claimed_instances != row.registry_instances) {
            return mismatch("instances", row.claimed_instances,
                            row.resident_instances, row.registry_instances);
        }
    }
    out << snapshot.bbs.size()
        << " building blocks balanced (claims = reservations = registry)";
    return pass(name, out.str());
}

invariant_result check_cross_region_conservation(
    std::span<const conservation_snapshot> per_region) {
    const std::string name = "cross_region_conservation";
    std::ostringstream out;
    if (per_region.empty()) {
        return fail(name, "no region snapshots collected");
    }
    std::int64_t claimed_vcpus = 0, resident_vcpus = 0, registry_vcpus = 0;
    std::int64_t claimed_ram = 0, resident_ram = 0, registry_ram = 0;
    std::int64_t claimed_inst = 0, resident_inst = 0, registry_inst = 0;
    std::size_t bbs = 0;
    for (std::size_t r = 0; r < per_region.size(); ++r) {
        const conservation_snapshot& snap = per_region[r];
        if (!snap.down_nodes_with_residents.empty()) {
            out << "region " << r << ": "
                << snap.down_nodes_with_residents.size()
                << " downed hosts still carry residents; first: node "
                << snap.down_nodes_with_residents.front().value()
                << " at t=" << snap.t;
            return fail(name, out.str());
        }
        bbs += snap.bbs.size();
        for (const bb_usage_row& row : snap.bbs) {
            claimed_vcpus += row.claimed_vcpus;
            resident_vcpus += row.resident_vcpus;
            registry_vcpus += row.registry_vcpus;
            claimed_ram += row.claimed_ram_mib;
            resident_ram += row.resident_ram_mib;
            registry_ram += row.registry_ram_mib;
            claimed_inst += row.claimed_instances;
            resident_inst += row.resident_instances;
            registry_inst += row.registry_instances;
        }
    }
    const auto mismatch = [&](const char* what, std::int64_t claimed,
                              std::int64_t resident, std::int64_t registry) {
        out << "fleet-wide " << what << " disagree across "
            << per_region.size() << " regions: claimed " << claimed
            << ", resident " << resident << ", registry " << registry;
        return fail(name, out.str());
    };
    if (claimed_vcpus != resident_vcpus || claimed_vcpus != registry_vcpus) {
        return mismatch("vcpus", claimed_vcpus, resident_vcpus,
                        registry_vcpus);
    }
    if (claimed_ram != resident_ram || claimed_ram != registry_ram) {
        return mismatch("ram_mib", claimed_ram, resident_ram, registry_ram);
    }
    if (claimed_inst != resident_inst || claimed_inst != registry_inst) {
        return mismatch("instances", claimed_inst, resident_inst,
                        registry_inst);
    }
    out << per_region.size() << " regions / " << bbs
        << " building blocks balanced fleet-wide (" << registry_inst
        << " instances)";
    return pass(name, out.str());
}

invariant_monitor::invariant_monitor(sim_engine& engine,
                                     invariant_config config, bool watch)
    : engine_(&engine), config_(config), watch_(watch) {
    engine_probes probes;
    if (config_.imbalance_epsilon.has_value()) {
        probes.drs_imbalance = [this](sim_time t, double before,
                                      double after) {
            imbalance_samples_.push_back(imbalance_sample{t, before, after});
        };
    }
    const bool scrape_checks =
        config_.conservation ||
        (watch_ && (config_.no_silent_drops || config_.no_blackhole ||
                    config_.flapping_max_moves_per_vm_day.has_value()));
    if (scrape_checks) {
        probes.after_scrape = [this](sim_time t) { on_scrape(t); };
    }
    if (probes.after_scrape || probes.drs_imbalance) {
        engine.set_probes(std::move(probes));
    }
}

void invariant_monitor::on_scrape(sim_time t) {
    ++scrapes_seen_;
    if (!live_violation_.empty()) return;  // first violation wins
    const auto record = [&](invariant_result result) {
        if (result.passed || !live_violation_.empty()) return;
        live_violation_name_ = result.name;
        live_violation_ = "t=" + std::to_string(t) + "s: " + result.detail;
    };
    if (config_.conservation &&
        (watch_ || scrapes_seen_ % live_check_every == 0)) {
        ++live_checks_;
        conservation_snapshot snap = collect_conservation(*engine_);
        snap.t = t;
        record(check_conservation(snap));
    }
    if (!watch_) return;
    // Event-log prefix checkers: valid at any scrape barrier because
    // state transitions and their events commit atomically per event.
    if (config_.no_silent_drops) {
        record(check_no_silent_drops(engine_->vms().all(), engine_->events(),
                                     collect_in_flight(*engine_)));
    }
    if (config_.no_blackhole) {
        // The backpressure ledger closes at every scrape barrier: the
        // bp tick (expiry + regime update) ran just before this probe.
        const backpressure_controller* bp = engine_->backpressure();
        record(check_no_blackhole(engine_->stats(), engine_->events(),
                                  bp != nullptr ? bp->size() : 0));
    }
    if (config_.flapping_max_moves_per_vm_day.has_value()) {
        record(check_bounded_flapping(
            engine_->events(), *config_.flapping_max_moves_per_vm_day));
    }
}

std::vector<invariant_result> invariant_monitor::evaluate() const {
    std::vector<invariant_result> results;
    // A live (in-run) violation of this checker trumps the end-of-run
    // state; a clean final check gets annotated with the live coverage.
    const auto finish = [&](invariant_result result) {
        if (live_violation_name_ == result.name) {
            result.passed = false;
            result.detail = "live: " + live_violation_;
        } else if (result.passed && watch_) {
            result.detail += " (watched over " +
                             std::to_string(scrapes_seen_) + " scrapes)";
        }
        results.push_back(std::move(result));
    };
    if (config_.admission_accounting) {
        results.push_back(check_admission_accounting(engine_->stats(),
                                                     engine_->events()));
    }
    if (config_.no_silent_drops) {
        finish(check_no_silent_drops(engine_->vms().all(), engine_->events(),
                                     collect_in_flight(*engine_)));
    }
    if (config_.no_blackhole) {
        const backpressure_controller* bp = engine_->backpressure();
        finish(check_no_blackhole(engine_->stats(), engine_->events(),
                                  bp != nullptr ? bp->size() : 0));
    }
    if (config_.backpressure_stability) {
        const backpressure_controller* bp = engine_->backpressure();
        results.push_back(check_backpressure_stability(
            bp != nullptr ? std::span<const sim_time>(bp->transitions())
                          : std::span<const sim_time>{},
            engine_->config().sampling_interval));
    }
    if (config_.conservation) {
        conservation_snapshot snap = collect_conservation(*engine_);
        invariant_result result = check_conservation(snap);
        if (result.passed) {
            result.detail += " (" + std::to_string(live_checks_) +
                             " live spot-checks + final)";
        }
        finish(std::move(result));
    }
    if (config_.flapping_max_moves_per_vm_day.has_value()) {
        finish(check_bounded_flapping(
            engine_->events(), *config_.flapping_max_moves_per_vm_day));
    }
    if (config_.imbalance_epsilon.has_value()) {
        results.push_back(check_monotone_imbalance(
            imbalance_samples_, *config_.imbalance_epsilon));
    }
    if (config_.recovery_p99_seconds.has_value()) {
        const ha_controller* ha = engine_->ha();
        results.push_back(check_recovery_tail(
            ha != nullptr ? std::span<const double>(ha->downtime_samples())
                          : std::span<const double>{},
            *config_.recovery_p99_seconds));
    }
    return results;
}

}  // namespace sci::harness
