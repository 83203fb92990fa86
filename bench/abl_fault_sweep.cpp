// Ablation: fault-injection sweep — how much failure the two-layer
// scheduler absorbs.  The paper's production fleet sees hypervisor
// failures and transient claim races that the published dataset only
// shows as NoValidHost events and re-placements; sci::fault makes the
// cause injectable.  Sweeping the host crash rate shows HA restart load,
// downtime (MTTR), scheduler pressure (NoValidHost, claim retries) and
// wasted migration work growing with the failure rate.

#include <chrono>
#include <iostream>

#include "analysis/render.hpp"
#include "common.hpp"
#include "fault/fault.hpp"

namespace {

struct outcome {
    sci::run_stats stats;
    std::uint64_t claim_failures = 0;
    std::uint64_t abandoned = 0;
    double mttr_s = 0.0;
    double wall_ms = 0.0;
    std::uint64_t samples = 0;
};

outcome run(double crash_rate_per_day) {
    sci::engine_config config = sci::benchutil::default_config();
    config.scenario.scale = std::min(config.scenario.scale, 0.05);
    config.fault.host_crash_rate_per_day = crash_rate_per_day;
    if (crash_rate_per_day > 0.0) {
        config.fault.claim_failure_probability = 0.05;
        config.fault.migration_abort_probability = 0.03;
        config.fault.degraded_node_fraction = 0.05;
    }
    const auto begin = std::chrono::steady_clock::now();
    sci::sim_engine engine(config);
    engine.run();
    outcome out;
    out.wall_ms = sci::benchutil::ms_since(begin);
    out.stats = engine.stats();
    out.claim_failures = engine.transient_claim_failures();
    if (engine.ha() != nullptr) {
        out.abandoned = engine.ha()->abandoned_vms();
        out.mttr_s = engine.ha()->mttr();
    }
    out.samples = engine.store().total_samples();
    return out;
}

}  // namespace

int main() {
    using namespace sci;
    benchutil::print_header(
        "Ablation — fault injection sweep (sci::fault)",
        "production fleets lose hypervisors; HA re-placement exercises the "
        "scheduler's greedy-retry design and NoValidHost handling "
        "(Sections 3.1, 4)");

    const double rates[] = {0.0, 0.002, 0.01};
    table_printer table({"crash rate /node/day", "crashes", "victims",
                         "HA restarts", "abandoned", "MTTR s", "NoValidHost",
                         "claim fails", "mig aborts", "wasted mig s"});
    double total_wall_ms = 0.0;
    std::uint64_t total_samples = 0;
    for (const double rate : rates) {
        const outcome o = run(rate);
        total_wall_ms += o.wall_ms;
        total_samples += o.samples;
        table.add_row({format_double(rate, 3), std::to_string(o.stats.host_crashes),
                       std::to_string(o.stats.crash_victims),
                       std::to_string(o.stats.ha_restarts),
                       std::to_string(o.abandoned), format_double(o.mttr_s, 1),
                       std::to_string(o.stats.placement_failures),
                       std::to_string(o.claim_failures),
                       std::to_string(o.stats.migration_aborts),
                       format_double(o.stats.wasted_migration_seconds, 0)});
    }
    std::cout << table.to_string();
    std::cout << "\nexpected: restart load, NoValidHost and wasted migration "
                 "work grow with the crash rate; the zero row reproduces the "
                 "fault-free run\n";
    benchutil::record_bench(
        "abl_fault_sweep/rates=3", total_wall_ms,
        static_cast<double>(total_samples) / (total_wall_ms / 1000.0));
    return 0;
}
