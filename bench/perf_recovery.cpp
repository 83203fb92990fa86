// Microbenchmark (google-benchmark): batched HA recovery — how fast the
// event loop re-places a detection epoch's crash victims through the
// speculate/commit pipeline at a given crash rate and thread count.
//
// bm_ha_recovery args are {crash_rate_milli_per_day, threads}: host
// crashes mass-kill residents, each epoch's victims drain as one batch,
// threads = 0 commits each victim inline (serial reference), N speculates
// the batch on the pool.  Output is bit-identical either way (the commit
// revalidates exactly), so the axis measures pure speedup.  wall_ms is
// the engine's own recovery_placement_wall_ms — the restart drains only
// (speculation + commit + claim + retry bookkeeping), excluding the rest
// of the event loop — and `run_ms` on the counter is the whole run() for
// context.  Results are recorded into BENCH_engine.json (see
// benchutil::record_bench) next to the churn trajectory.

#include <benchmark/benchmark.h>

#include <chrono>
#include <limits>
#include <string>

#include "common.hpp"
#include "core/engine.hpp"

namespace {

void bm_ha_recovery(benchmark::State& state) {
    const double crash_rate = static_cast<double>(state.range(0)) / 1000.0;
    const auto threads = static_cast<unsigned>(state.range(1));
    double best_ms = std::numeric_limits<double>::infinity();
    double restarts_per_s = 0.0;
    for (auto _ : state) {
        sci::engine_config config;
        config.scenario.scale = 0.05;
        config.scenario.seed = 42;
        config.sampling_interval = 3600;
        config.fault.host_crash_rate_per_day = crash_rate;
        config.threads = threads;
        sci::sim_engine engine(config);
        const auto begin = std::chrono::steady_clock::now();
        engine.run();
        const double run_ms = sci::benchutil::ms_since(begin);
        const sci::run_stats& stats = engine.stats();
        const double drain_ms = stats.recovery_placement_wall_ms;
        // placement attempts committed through the drains
        const auto restarts = stats.recovery_speculative_placements +
                              stats.recovery_speculation_misses;
        if (drain_ms < best_ms) {
            best_ms = drain_ms;
            restarts_per_s =
                static_cast<double>(restarts) / (drain_ms / 1000.0);
        }
        benchmark::DoNotOptimize(stats.ha_restarts);
        state.counters["run_ms"] = run_ms;
        state.counters["drain_ms"] = drain_ms;
        state.counters["restarts"] = static_cast<double>(restarts);
        state.counters["restarts/s"] = restarts_per_s;
        state.counters["batches"] = static_cast<double>(stats.recovery_batches);
        state.counters["spec_committed"] =
            static_cast<double>(stats.recovery_speculative_placements);
        state.counters["spec_invalidated"] =
            static_cast<double>(stats.recovery_speculation_invalidated);
    }
    sci::benchutil::record_bench("bm_ha_recovery/crash=" +
                                     std::to_string(state.range(0)) +
                                     "m/threads=" + std::to_string(threads),
                                 best_ms, restarts_per_s);
}

}  // namespace

BENCHMARK(bm_ha_recovery)
    ->Args({500, 0})
    ->Args({500, 1})
    ->Args({500, 4})
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({2000, 4})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
