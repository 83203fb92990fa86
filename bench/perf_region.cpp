// Microbenchmark (google-benchmark): multi-region scale-out throughput —
// how the region_set's two-level scheduling behaves as regions multiply
// on one shared pool.
//
// bm_region_grid args are {regions, threads}: each region is the
// scale-0.05 reference fleet of bm_full_window/scale=50m, so
// regions=1/threads=0 is directly comparable to that baseline — the
// region_set wrapper must not tax a solo region.  threads = 0 runs the
// whole grid serially on the caller (regions back to back); with workers
// the regions fan out as coarse tasks and a lone region still uses the
// idle workers for its scrape shards.
//
// Every full-window result is recorded into BENCH_engine.json (peak RSS
// stamped by benchutil::record_bench) so future PRs can track the
// trajectory.  SCI_BENCH_DAYS caps the window for CI smoke runs; capped
// runs are never recorded.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <limits>
#include <string>

#include "common.hpp"
#include "multiregion/region_set.hpp"
#include "simcore/parse.hpp"

namespace {

void bm_region_grid(benchmark::State& state) {
    const auto regions = static_cast<std::size_t>(state.range(0));
    const auto threads = static_cast<unsigned>(state.range(1));
    const int cap_days = sci::bench_days_cap();
    double best_ms = std::numeric_limits<double>::infinity();
    double samples_per_s = 0.0;
    for (auto _ : state) {
        sci::engine_config base;
        base.scenario.scale = 0.05;
        base.scenario.seed = 42;
        sci::region_set set(sci::make_region_specs(base, regions), threads);
        const auto begin = std::chrono::steady_clock::now();
        if (cap_days > 0) {
            set.setup();
            set.run_until(sci::days(cap_days));
        } else {
            set.run();
        }
        const double ms = sci::benchutil::ms_since(begin);
        std::uint64_t samples = 0;
        for (std::size_t r = 0; r < set.region_count(); ++r) {
            samples += set.region(r).store().total_samples();
        }
        if (ms < best_ms) {
            best_ms = ms;
            samples_per_s = static_cast<double>(samples) / (ms / 1000.0);
        }
        benchmark::DoNotOptimize(set.merged_stats().scrapes);
        state.counters["placements"] =
            static_cast<double>(set.merged_stats().placements);
        state.counters["samples"] = static_cast<double>(samples);
        state.counters["samples/s"] = samples_per_s;
    }
    if (cap_days == 0) {
        sci::benchutil::record_bench(
            "bm_region_grid/regions=" + std::to_string(regions) +
                "/scale=50m/threads=" + std::to_string(threads),
            best_ms, samples_per_s);
    }
}

}  // namespace

BENCHMARK(bm_region_grid)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({1, 4})
    ->Args({2, 4})
    ->Args({4, 4})
    ->Args({8, 4})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

BENCHMARK_MAIN();
