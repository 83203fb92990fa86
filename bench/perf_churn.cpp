// Microbenchmark (google-benchmark): batched churn-arrival placement —
// how fast the event loop drains in-window arrivals through the
// speculate/commit pipeline at a given churn rate and thread count.
//
// bm_churn_placement args are {churn_permille, threads}: the run uses an
// hourly scrape interval so batches group several arrivals, threads = 0
// commits each batch inline (serial reference), N speculates batches on
// the pool.  Output is bit-identical either way (commit_speculation
// revalidates exactly), so the axis measures pure speedup.  wall_ms is
// the engine's own churn_placement_wall_ms — the drain only (speculation
// + commit + claim), excluding the rest of the event loop — and `run_ms`
// on the counter is the whole run() for context.  Results are recorded
// into BENCH_engine.json (see benchutil::record_bench) next to the
// perf_engine trajectory.

#include <benchmark/benchmark.h>

#include <chrono>
#include <limits>
#include <string>

#include "common.hpp"
#include "core/engine.hpp"

namespace {

void bm_churn_placement(benchmark::State& state) {
    const double churn = static_cast<double>(state.range(0)) / 1000.0;
    const auto threads = static_cast<unsigned>(state.range(1));
    double best_ms = std::numeric_limits<double>::infinity();
    double arrivals_per_s = 0.0;
    for (auto _ : state) {
        sci::engine_config config;
        config.scenario.scale = 0.05;
        config.scenario.seed = 42;
        config.sampling_interval = 3600;
        config.population.daily_churn_fraction = churn;
        config.threads = threads;
        sci::sim_engine engine(config);
        const auto begin = std::chrono::steady_clock::now();
        engine.run();
        const double run_ms = sci::benchutil::ms_since(begin);
        const sci::run_stats& stats = engine.stats();
        const double drain_ms = stats.churn_placement_wall_ms;
        const auto arrivals = stats.window_speculative_placements +
                              stats.window_speculation_misses;
        if (drain_ms < best_ms) {
            best_ms = drain_ms;
            arrivals_per_s =
                static_cast<double>(arrivals) / (drain_ms / 1000.0);
        }
        benchmark::DoNotOptimize(stats.placements);
        state.counters["run_ms"] = run_ms;
        state.counters["drain_ms"] = drain_ms;
        state.counters["arrivals"] = static_cast<double>(arrivals);
        state.counters["arrivals/s"] = arrivals_per_s;
        state.counters["batches"] = static_cast<double>(stats.window_batches);
        state.counters["spec_committed"] =
            static_cast<double>(stats.window_speculative_placements);
        state.counters["spec_invalidated"] =
            static_cast<double>(stats.window_speculation_invalidated);
    }
    sci::benchutil::record_bench("bm_churn_placement/churn=" +
                                     std::to_string(state.range(0)) +
                                     "m/threads=" + std::to_string(threads),
                                 best_ms, arrivals_per_s);
}

}  // namespace

BENCHMARK(bm_churn_placement)
    ->Args({50, 0})
    ->Args({50, 1})
    ->Args({50, 4})
    ->Args({150, 0})
    ->Args({150, 1})
    ->Args({150, 4})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
