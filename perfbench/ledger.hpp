#pragma once

// Output checks and the failure ledger behind `attempted` / `failed`.
//
// One operation is one unit of user-visible output the benchmark can
// verify exactly:
//   - window:       a played window (plus its export and figures).  Fails
//                   if any invariant checker fails or the events/stats
//                   fingerprint differs from the invocation's reference run
//                   of the same seed (on the pool for storm_window).
//   - setup:        a set-up region (region_setup).  Fails if a checker
//                   fails or its fingerprint differs from the first set-up
//                   of the invocation.
//   - whatif_batch: one what-if batch.  Fails if its landings differ from
//                   the same batch planned serially on the original engine.
//   - restore:      one snapshot round trip.  Fails if the restored
//                   engine's fingerprints differ from the original's.

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "harness/invariants.hpp"
#include "snapshot/whatif.hpp"

namespace perfbench {

enum class op_kind { window, setup, whatif_batch, restore };

const char* to_string(op_kind kind);

/// Replay fingerprints of an engine (the harness's FNV-1a hashes).
struct fingerprint {
    std::uint64_t event_count = 0;
    std::uint64_t events_hash = 0;
    std::uint64_t stats_hash = 0;

    bool operator==(const fingerprint&) const = default;
};

fingerprint fingerprint_of(const sci::sim_engine& engine);

/// Empty when `actual` equals `expected`, else what differs.
std::string compare_fingerprints(const fingerprint& actual,
                                 const fingerprint& expected);

/// Empty when both results land every query on the same building block
/// (NoValidHost included), else the first differing query.
std::string compare_landings(const sci::snapshot::whatif_result& actual,
                             const sci::snapshot::whatif_result& expected);

/// Empty when every verdict passed, else the failing checkers.
std::string failed_invariants(
    const std::vector<sci::harness::invariant_result>& verdicts);

class failure_ledger {
public:
    /// Count one operation; a non-empty `problem` marks it failed.
    void record(op_kind kind, const std::string& problem);

    std::uint64_t attempted() const;
    std::uint64_t failed() const;
    std::uint64_t attempted(op_kind kind) const;
    std::uint64_t failed(op_kind kind) const;
    /// failed / attempted (0 when nothing was attempted).
    double failed_share() const;

    /// The first few failure descriptions, "<kind>: <problem>".
    const std::vector<std::string>& problems() const { return problems_; }

private:
    static constexpr std::size_t kinds = 4;
    static constexpr std::size_t max_problems = 8;
    std::uint64_t attempted_[kinds] = {};
    std::uint64_t failed_[kinds] = {};
    std::vector<std::string> problems_;
};

}  // namespace perfbench
