// Ablation: vCPU:pCPU overcommit factor sweep — Section 7: "the
// overcommit factor should be reconsidered ... a more dynamic and
// workload-based approach ... might help to mitigate these problems".
//
// Sweeps the general-purpose allocation ratio and reports how contention,
// ready time and placement failures trade off against packing density.
// Each arm is a full engine run with the ratio override active from
// setup, initial placement included.

#include <iostream>

#include "analysis/figures.hpp"
#include "analysis/render.hpp"
#include "common.hpp"

namespace {

constexpr double ratios[] = {1.5, 2.0, 3.0, 4.0, 6.0};

struct outcome {
    std::uint64_t placed = 0;
    std::uint64_t failures = 0;
    double worst_mean = 0.0;
    double worst_max = 0.0;
    double peak_ready_ms = 0.0;
};

outcome run_arm(double ratio) {
    sci::engine_config config = sci::benchutil::default_config();
    config.scenario.scale = std::min(config.scenario.scale, 0.04);
    config.gp_cpu_allocation_ratio_override = ratio;
    sci::sim_engine engine(config);
    engine.run();
    outcome out;
    out.placed = engine.stats().placements;
    out.failures = engine.stats().placement_failures;
    for (const auto& day : sci::fig9_contention_by_day(engine.store())) {
        out.worst_mean = std::max(out.worst_mean, day.mean_pct);
        out.worst_max = std::max(out.worst_max, day.max_pct);
    }
    for (const auto& s : sci::fig8_top_ready_nodes(engine.store(), 1)) {
        out.peak_ready_ms = std::max(out.peak_ready_ms, s.peak_ready_ms);
    }
    return out;
}

}  // namespace

int main() {
    using namespace sci;
    benchutil::print_header(
        "Ablation — overcommit factor sweep (general-purpose BBs)",
        "higher vCPU:pCPU ratios pack more VMs but increase CPU contention "
        "and ready time; low ratios waste capacity via NoValidHost");

    table_printer table({"cpu ratio", "placed", "failures",
                         "worst mean cont %", "worst max cont %",
                         "peak ready (s)"});
    const auto begin = std::chrono::steady_clock::now();
    for (const double ratio : ratios) {
        const outcome o = run_arm(ratio);
        table.add_row({format_double(ratio), std::to_string(o.placed),
                       std::to_string(o.failures),
                       format_double(o.worst_mean), format_double(o.worst_max),
                       format_double(o.peak_ready_ms / 1000.0)});
    }
    const double arms_ms = benchutil::ms_since(begin);

    std::cout << table.to_string();
    std::cout << "\nexpected: failures fall and contention rises as the ratio "
                 "grows — the overcommit trade-off\n";
    benchutil::record_bench("abl_overcommit_sweep/arms=5", arms_ms, 0.0);
    return 0;
}
