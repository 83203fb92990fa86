// Microbenchmark (google-benchmark): the speculative parallel initial
// placement — how fast place_initial_population fills the fleet at a
// given scale and thread count.
//
// bm_place_initial args are {scale_permille, threads}: threads = 0 runs
// the batched pipeline inline (serial — this axis isolates the zero-copy
// scheduler fast path), N speculates batches on the pool.  Output is
// bit-identical either way (commit_speculation revalidates exactly), so
// the axis measures pure speedup.  wall_ms is the engine's own
// initial_placement_wall_ms — placement only, excluding fleet/workload
// construction and telemetry priming — and `setup_ms` on the counter is
// the whole setup() for context.  Results are recorded into
// BENCH_engine.json (see benchutil::record_bench) next to the perf_engine
// trajectory.

#include <benchmark/benchmark.h>

#include <chrono>
#include <limits>
#include <string>

#include "common.hpp"
#include "core/engine.hpp"

namespace {

void bm_place_initial(benchmark::State& state) {
    const double scale = static_cast<double>(state.range(0)) / 1000.0;
    const auto threads = static_cast<unsigned>(state.range(1));
    double best_ms = std::numeric_limits<double>::infinity();
    double placements_per_s = 0.0;
    for (auto _ : state) {
        sci::engine_config config;
        config.scenario.scale = scale;
        config.scenario.seed = 42;
        config.threads = threads;
        sci::sim_engine engine(config);
        const auto begin = std::chrono::steady_clock::now();
        engine.setup();  // places the whole initial population
        const double setup_ms = sci::benchutil::ms_since(begin);
        const double place_ms = engine.stats().initial_placement_wall_ms;
        if (place_ms < best_ms) {
            best_ms = place_ms;
            placements_per_s =
                static_cast<double>(engine.stats().placements) /
                (place_ms / 1000.0);
        }
        benchmark::DoNotOptimize(engine.stats().placements);
        state.counters["setup_ms"] = setup_ms;
        state.counters["placements"] =
            static_cast<double>(engine.stats().placements);
        state.counters["place_ms"] = place_ms;
        state.counters["placements/s"] = placements_per_s;
        state.counters["spec_committed"] =
            static_cast<double>(engine.stats().speculative_placements);
        state.counters["spec_misses"] =
            static_cast<double>(engine.stats().speculation_misses);
    }
    sci::benchutil::record_bench("bm_place_initial/scale=" +
                                     std::to_string(state.range(0)) +
                                     "m/threads=" + std::to_string(threads),
                                 best_ms, placements_per_s);
}

}  // namespace

BENCHMARK(bm_place_initial)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({100, 4})
    ->Args({250, 0})
    ->Args({250, 1})
    ->Args({250, 4})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
