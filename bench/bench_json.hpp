#pragma once

// BENCH_engine.json parse/merge/render, factored out of the bench harness
// so the merge semantics are testable without running a benchmark binary.
//
// The file is the repo's perf trajectory: every bench binary of a run
// contributes its measurements, and future PRs diff the merged summary.
// Merging therefore has to be idempotent — re-running the same binary
// (or a binary whose file already holds duplicate keys from an earlier,
// buggier writer) must converge to exactly one entry per benchmark name,
// with the freshest measurement winning.

#include <string>
#include <string_view>
#include <vector>

namespace sci::benchutil {

struct bench_entry {
    std::string name;
    double wall_ms = 0.0;
    double samples_per_s = 0.0;
    /// Peak resident set (VmHWM) of the process when the measurement was
    /// recorded, in MiB; 0 when unavailable (non-Linux).
    double peak_rss_mib = 0.0;
    /// Host the measurement ran on: online core count and CMake build
    /// type.  0 / empty for lines written before they were recorded.
    unsigned nproc = 0;
    std::string build_type;
};

/// Parse a summary previously written by render_bench_json.  The format is
/// our own, so a tolerant line scan suffices; malformed lines are skipped.
/// Duplicate names are collapsed on the spot (last occurrence wins), so a
/// file polluted by pre-dedupe writers heals on the first re-merge.
std::vector<bench_entry> parse_bench_json(std::string_view text);

/// Merge fresh measurements into an existing entry list, keyed by name:
/// an existing entry with the same name is overwritten in place (keeping
/// the file's ordering stable across re-runs), new names append.  Fresh
/// entries that repeat a name also collapse to the last measurement.
void merge_bench_entries(std::vector<bench_entry>& existing,
                         const std::vector<bench_entry>& fresh);

/// Render the `{"benchmarks": [...]}` document parse_bench_json reads.
std::string render_bench_json(const std::vector<bench_entry>& entries);

/// Peak resident set size of this process in MiB, read from Linux
/// /proc/self/status (VmHWM).  Returns 0.0 where the file or the field
/// does not exist, so callers can record it unconditionally.
double process_peak_rss_mib();

}  // namespace sci::benchutil
