// Ablation: DRS on vs. off — Section 3.1: DRS "triggers automatic
// migrations of VMs from over-utilized to less utilized hosts".  With DRS
// disabled, intra-BB imbalance and node-level contention should rise.
//
// Each arm is a full engine run with the switch set in its config.

#include <iostream>

#include "analysis/figures.hpp"
#include "analysis/render.hpp"
#include "common.hpp"

namespace {

struct outcome {
    sci::imbalance_summary imbalance;
    double worst_contention = 0.0;
    std::uint64_t migrations = 0;
};

outcome run_arm(bool drs_enabled) {
    sci::engine_config config = sci::benchutil::default_config();
    config.scenario.scale = std::min(config.scenario.scale, 0.05);
    config.drs.enabled = drs_enabled;
    sci::sim_engine engine(config);
    engine.run();
    outcome out;
    out.imbalance =
        sci::intra_bb_imbalance(engine.store(), engine.infrastructure());
    for (const auto& day : sci::fig9_contention_by_day(engine.store())) {
        out.worst_contention = std::max(out.worst_contention, day.max_pct);
    }
    out.migrations = engine.stats().drs_migrations;
    return out;
}

}  // namespace

int main() {
    using namespace sci;
    benchutil::print_header(
        "Ablation — DRS rebalancing on vs. off",
        "DRS keeps vSphere clusters balanced; without it, fragmentation and "
        "imbalanced resource distribution arise within clusters (Section 3.1)");

    const auto begin = std::chrono::steady_clock::now();
    const outcome on = run_arm(true);
    const outcome off = run_arm(false);
    const double arms_ms = benchutil::ms_since(begin);

    table_printer table({"DRS", "migrations", "mean intra-BB stddev %",
                         "max intra-BB spread %", "max node util %",
                         "worst contention %"});
    const auto row = [&](const char* label, const outcome& o) {
        table.add_row({label, std::to_string(o.migrations),
                       format_double(o.imbalance.mean_intra_bb_stddev_pct),
                       format_double(o.imbalance.max_intra_bb_spread_pct),
                       format_double(o.imbalance.max_node_util_pct),
                       format_double(o.worst_contention)});
    };
    row("on", on);
    row("off", off);
    std::cout << table.to_string();
    std::cout << "\nexpected: DRS-off shows higher intra-BB imbalance\n";
    benchutil::record_bench("abl_drs_onoff/arms=2", arms_ms, 0.0);
    return 0;
}
