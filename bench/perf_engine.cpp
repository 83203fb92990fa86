// Microbenchmark (google-benchmark): end-to-end engine throughput — how
// fast the simulator plays the 30-day window at a given fleet scale, the
// scaling of the thread-pooled scrape pipeline, and the cost of the
// individual hot paths (placement, scrape).
//
// bm_full_window args are {scale_permille, threads}: threads = 0 runs the
// serial fallback, N runs the pool.  Output is bit-identical either way
// (fixed-shard demand reduction), so the axis measures pure speedup.
// Every full-window result is also recorded into BENCH_engine.json (see
// benchutil::record_bench) so future PRs can track the trajectory.
//
// Full-scale reference: the paper's region (1,800 nodes / 48,000 VMs at
// 300 s scrape cadence) plays in a few minutes on a laptop.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <limits>
#include <string>

#include "common.hpp"
#include "core/engine.hpp"
#include "simcore/parse.hpp"

namespace {

void bm_full_window(benchmark::State& state) {
    const double scale = static_cast<double>(state.range(0)) / 1000.0;
    const auto threads = static_cast<unsigned>(state.range(1));
    const int cap_days = sci::bench_days_cap();
    double best_ms = std::numeric_limits<double>::infinity();
    double samples_per_s = 0.0;
    for (auto _ : state) {
        sci::engine_config config;
        config.scenario.scale = scale;
        config.scenario.seed = 42;
        config.threads = threads;
        sci::sim_engine engine(config);
        const auto begin = std::chrono::steady_clock::now();
        if (cap_days > 0) {
            engine.setup();
            engine.run_until(sci::days(cap_days));
        } else {
            engine.run();
        }
        const double ms = sci::benchutil::ms_since(begin);
        if (ms < best_ms) {
            best_ms = ms;
            samples_per_s =
                static_cast<double>(engine.store().total_samples()) /
                (ms / 1000.0);
        }
        benchmark::DoNotOptimize(engine.stats().scrapes);
        state.counters["placements"] =
            static_cast<double>(engine.stats().placements);
        state.counters["samples"] =
            static_cast<double>(engine.store().total_samples());
        state.counters["samples/s"] = samples_per_s;
    }
    if (cap_days == 0) {
        sci::benchutil::record_bench("bm_full_window/scale=" +
                                         std::to_string(state.range(0)) +
                                         "m/threads=" + std::to_string(threads),
                                     best_ms, samples_per_s);
    }
}

void bm_initial_placement(benchmark::State& state) {
    const double scale = static_cast<double>(state.range(0)) / 1000.0;
    for (auto _ : state) {
        sci::engine_config config;
        config.scenario.scale = scale;
        config.scenario.seed = 42;
        sci::sim_engine engine(config);
        engine.setup();  // includes placing the whole initial population
        benchmark::DoNotOptimize(engine.stats().placements);
    }
}

void bm_single_day(benchmark::State& state) {
    // setup once, then play single days incrementally
    const auto threads = static_cast<unsigned>(state.range(0));
    sci::engine_config config;
    config.scenario.scale = 0.05;
    config.scenario.seed = 42;
    config.threads = threads;
    sci::sim_engine engine(config);
    engine.setup();
    sci::sim_time until = 0;
    for (auto _ : state) {
        until += sci::days(1);
        if (until > sci::observation_window) {
            state.SkipWithError("window exhausted");
            break;
        }
        engine.run_until(until);
        benchmark::DoNotOptimize(engine.stats().scrapes);
    }
}

}  // namespace

BENCHMARK(bm_full_window)
    ->Args({25, 0})
    ->Args({50, 0})
    ->Args({50, 1})
    ->Args({50, 2})
    ->Args({50, 4})
    ->Args({100, 0})
    ->Args({100, 4})
    ->Unit(benchmark::kMillisecond);
// Full scale: the paper's 1,800-node / 48,000-VM region end to end —
// ~1e9 samples in one 30-day pass, so a single timed iteration.  The
// sparse-aggregate store keeps this in bounded memory without keep_raw.
BENCHMARK(bm_full_window)
    ->Args({1000, 0})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(bm_initial_placement)->Arg(25)->Arg(50)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_single_day)
    ->Arg(0)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(25);

BENCHMARK_MAIN();
