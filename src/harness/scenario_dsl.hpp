#pragma once

// sci::harness — the scenario DSL (*.scn).
//
// A scenario is a small dependency-free text file: '#' comments,
// [section] headers, and key = value lines.  It compiles into the
// existing engine_config (scenario + population + fault nested inside),
// plus the invariants the run must satisfy and an optional replay trace:
//
//   [scenario]
//   name = az_outage
//   description = lose one availability zone, recover through HA
//
//   [engine]
//   scale = 0.03
//   seed = 42
//   daily_churn_fraction = 0.018
//
//   [fault]
//   az_outages = 1
//   az_outage_at = 21600
//
//   [invariants]
//   admission_accounting = true
//   conservation = true
//   recovery_p99_seconds = 7200
//   restore_bit_identity = true
//
//   [snapshot]
//   at = 43200          # barrier for restore_bit_identity (default: mid-window)
//
//   [replay]
//   trace = traces/az_outage.trace
//
// Unknown sections or keys are errors (with the line number) — a typo'd
// knob must not silently run the default physics.  render_scenario emits
// the canonical form; parse(render(parse(x))) == parse(x) byte for byte,
// which tests/harness_test.cpp pins.
//
// Multi-region scenarios add `[region.N]` sections: one scenario file
// declares N regions, each the base [engine]/[fault] config plus the
// section's per-region deltas.  A region's seed defaults to
// derive_region_seed(base seed, N) and may be overridden explicitly:
//
//   [region.0]
//   name = steady
//
//   [region.1]
//   name = churn_storm
//   daily_churn_fraction = 0.25
//
// The keys, the fields they set and the ones a region may override come
// from engine_config::for_each_field and invariant_config::for_each_field.

#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "harness/invariants.hpp"
#include "multiregion/region_set.hpp"

namespace sci::harness {

/// One [region.N] section: deltas this region applies on top of the base
/// [engine]/[fault] config.  Unset keys inherit the base scenario.
struct region_override {
    std::size_t index = 0;
    /// Export/diagnostic name; defaults to "region<index>".
    std::string name;
    /// The section's `key = value` lines (values in canonical form, last
    /// assignment wins), each a field-list key a region may override.  A
    /// region's seed defaults to derive_region_seed(base, index) unless
    /// `seed` is assigned here.
    std::map<std::string, std::string, std::less<>> assignments;
};

/// A parsed scenario: what to run and what must hold.
struct scenario_spec {
    std::string name;
    std::string description;
    engine_config config;
    invariant_config invariants;
    /// Declared [region.N] sections in index order; empty = single-region
    /// scenario run through a plain sim_engine.
    std::vector<region_override> regions;
    /// [snapshot] at = <seconds>: the event-time barrier where the
    /// restore_bit_identity invariant snapshots the run (and where
    /// tooling defaults its checkpoint).  Unset = mid-window.  For
    /// multi-region scenarios the one barrier covers every region.
    std::optional<sim_duration> snapshot_at;
    /// Replay trace path ([replay] trace = ...); empty when absent.
    /// Relative to the .scn file's directory — load_scenario_file
    /// resolves it, parse_scenario keeps it verbatim.
    std::filesystem::path trace;
};

/// Expand a spec into one region_spec per declared [region.N] (a spec
/// without regions yields one region carrying the base config verbatim —
/// derive_region_seed(seed, 0) == seed, so the solo run is unchanged).
/// Region names must be unique: they become export subdirectories.
std::vector<region_spec> region_specs_of(const scenario_spec& spec);

/// Set one DSL key of `config` from its text, exactly as a `key = value`
/// line of the [section] would (every field listed under the key).
/// Throws sci::error("<where>: ...") for an unknown key or a bad value.
void set_config_key(engine_config& config, std::string_view section,
                    std::string_view key, std::string_view value,
                    std::string_view where);

/// Parse scenario text; throws sci::error with the offending line number.
scenario_spec parse_scenario(std::string_view text);

/// Canonical text of a spec (parse . render is the identity on specs).
std::string render_scenario(const scenario_spec& spec);

/// Read + parse a .scn file, resolving the trace path against its
/// directory.
scenario_spec load_scenario_file(const std::filesystem::path& file);

}  // namespace sci::harness
