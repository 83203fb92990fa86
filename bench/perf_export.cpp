// Streaming vs materialize-then-write dataset export: wall clock, row
// throughput, and — the point of the exercise — peak RSS.
//
// The materialized reference keeps every raw sample of the 30-day window
// resident until export_dataset walks the store; the streaming writer
// receives each finished day as the engine seals it, so raw residency
// never exceeds the compaction horizon (one open day).
//
// Both runs share one process and Linux VmHWM is monotone, so the order
// is load-bearing: the streamed run goes FIRST.  Its recorded peak cannot
// be inflated by the reference run, and the reference entry's peak is at
// least the true materialized footprint — a lower streamed number in
// BENCH_engine.json is a real bound, not a measurement artifact.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_json.hpp"
#include "common.hpp"
#include "core/engine.hpp"
#include "data/dataset.hpp"
#include "data/streaming_writer.hpp"

namespace {

struct export_run {
    double wall_ms = 0.0;
    std::uint64_t rows = 0;
    double peak_rss_mib = 0.0;
};

/// Simulate the full window with keep_raw and export it; streamed runs
/// flush day-sealed raw blocks as the window advances, the reference run
/// materializes everything and exports at the end.
export_run run_mode(bool streamed, const std::filesystem::path& dir) {
    sci::engine_config config;
    config.scenario.scale = sci::benchutil::env_scale();
    config.scenario.seed = 42;
    config.store.keep_raw = true;
    sci::sim_engine engine(config);
    std::filesystem::remove_all(dir);

    const auto begin = std::chrono::steady_clock::now();
    sci::dataset_export_report report;
    if (streamed) {
        sci::streaming_dataset_writer writer(engine.store(), dir);
        engine.enable_raw_streaming(writer.sink());
        engine.run();
        report = writer.finish();
    } else {
        engine.run();
        report = sci::export_dataset(engine.store(), dir);
    }
    const double wall_ms = sci::benchutil::ms_since(begin);

    export_run result;
    result.wall_ms = wall_ms;
    result.rows = report.raw_rows + report.daily_rows;
    // stamp before the next mode runs: VmHWM only ever grows
    result.peak_rss_mib = sci::benchutil::process_peak_rss_mib();
    const int permille = static_cast<int>(config.scenario.scale * 1000.0 + 0.5);
    sci::benchutil::record_bench(
        "bm_export_window/scale=" + std::to_string(permille) + "m/mode=" +
            (streamed ? "streamed" : "materialized"),
        wall_ms, static_cast<double>(result.rows) / (wall_ms / 1000.0));
    std::printf("  %-12s  %10.0f ms  %12llu rows  peak RSS %8.1f MiB\n",
                streamed ? "streamed" : "materialized", wall_ms,
                static_cast<unsigned long long>(result.rows),
                result.peak_rss_mib);
    std::fflush(stdout);
    return result;
}

}  // namespace

int main() {
    sci::benchutil::print_header(
        "perf_export — streaming vs materialized raw export (keep_raw)",
        "full 30-day window exported in bounded memory");

    const auto base = std::filesystem::temp_directory_path() / "sci_perf_export";
    const export_run streamed = run_mode(true, base / "streamed");
    const export_run materialized = run_mode(false, base / "materialized");
    std::filesystem::remove_all(base);

    std::printf("\n  streamed peak / materialized peak = %.2f\n",
                streamed.peak_rss_mib / materialized.peak_rss_mib);
    if (streamed.peak_rss_mib >= materialized.peak_rss_mib) {
        std::printf(
            "  WARNING: streaming export did not lower peak RSS — the "
            "seal-and-free path regressed\n");
        return 1;
    }
    return 0;
}
