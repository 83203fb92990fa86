#pragma once

// Shared harness for the figure/table bench binaries.
//
// Every bench binary simulates the studied region (once per process; the
// engine is cached) and prints the paper artifact it regenerates next to
// the published statistic.  Scale/seed come from the environment:
//
//   SCI_SCALE  linear fleet scale (default 0.1 — ~180 nodes, ~4,800 VMs;
//              1.0 reproduces the full 1,800-node / 48,000-VM region)
//   SCI_SEED   master seed (default 42)
//
// A value that is not a number stops the binary with the variable's name.

#include <chrono>
#include <string_view>

#include "core/engine.hpp"

namespace sci::benchutil {

/// Scale from SCI_SCALE (default 0.1).
double env_scale();

/// Seed from SCI_SEED (default 42).
std::uint64_t env_seed();

/// Milliseconds of wall clock since `begin`.
double ms_since(std::chrono::steady_clock::time_point begin);

/// Default engine config honoring the environment overrides.
engine_config default_config();

/// The shared, fully simulated engine (constructed and run on first use).
sim_engine& shared_engine();

/// Print the standard bench banner.
void print_header(std::string_view artifact, std::string_view paper_claim);

/// Record one perf measurement into the run's JSON summary.  Results are
/// flushed to SCI_BENCH_JSON (default "BENCH_engine.json") at process
/// exit, as `{"benchmarks": [{"name", "wall_ms", "samples_per_s",
/// "peak_rss_mib"}, ...]}` — peak RSS (VmHWM) is stamped automatically at
/// record time
/// — the perf trajectory future PRs diff against.  An existing summary
/// is merged into (same-name entries replaced, others preserved, stale
/// duplicates collapsed — see bench_json.hpp), so multiple bench binaries
/// can contribute to one file and re-runs are idempotent.
void record_bench(std::string_view name, double wall_ms, double samples_per_s);

}  // namespace sci::benchutil
