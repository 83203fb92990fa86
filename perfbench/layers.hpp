#pragma once

// The benchmark's calls into the engine's layers.
//
// Everything here drives the engine through its public API only and times
// the call from the outside.  The workloads' engine configurations are
// generated from the seed; what-if batches are drawn from the region's
// own flavor mix.  The layer replays re-run one layer's hot calls on the
// real inputs of a finished run (its active VMs, node demands, series and
// clusters), so a per-call cost can be measured without instrumenting the
// engine.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "harness/invariants.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/whatif.hpp"
#include "trace.hpp"

namespace perfbench {

enum class workload { steady_window, storm_window, region_setup };

std::optional<workload> parse_workload(std::string_view name);
const char* to_string(workload w);

struct workload_spec {
    workload kind = workload::steady_window;
    std::uint64_t seed = 0;
    /// Engine configuration of the timed runs, which are serial.
    sci::engine_config config;
    /// Pool workers of the invocation's reference run, which every timed
    /// run is checked against (0 = no reference run: every iteration is
    /// checked against the first one).
    unsigned workers = 0;
    /// Simulated days the workload plays (0 = set-up only).
    int days = 0;
    /// Checkers evaluated on every finished engine.
    sci::harness::invariant_config checks;

    // How much of each kind of work one run measures (more work where an
    // operation is short, so the reported medians are of several samples).
    /// Timed iterations per run, at least (more while --seconds allows).
    int min_iterations = 1;
    /// Construct+setup repetitions before each iteration, on top of its
    /// own setup, so the set-up samples are spread over the whole run.
    int extra_setups = 0;
    /// Snapshot round trips per iteration.
    int snapshot_reps = 1;
    /// What-if batches per iteration, split over the closed-loop clients.
    std::size_t whatif_batches = 0;
};

/// The workload's generated inputs for `seed`.  `nproc` bounds the pool:
/// storm_window's reference run uses min(3, nproc - 1) workers (at
/// least 1).
workload_spec make_workload(workload w, std::uint64_t seed, unsigned nproc);

// --- what-if serving --------------------------------------------------------

using whatif_batch = std::vector<sci::snapshot::whatif_query>;

/// `count` batches of `size` VMs drawn with flavor_mix::sample from the
/// region's mix on an rng_stream seeded by `seed`; each VM gets the
/// engine's default policy for its flavor (spread for general purpose,
/// pack otherwise).
std::vector<whatif_batch> make_whatif_batches(const sci::scenario& region,
                                              std::uint64_t seed,
                                              std::size_t count,
                                              std::size_t size);

struct closed_loop_result {
    std::vector<double> latency_ms;  ///< per batch, batch order
    std::vector<sci::snapshot::whatif_result> results;  ///< batch order
    double wall_s = 0.0;
};

/// `clients` threads; client c sends batches c, c + clients, ... one at a
/// time, each only after its previous one returned (closed loop).
closed_loop_result run_closed_loop(const sci::snapshot::whatif_planner& planner,
                                   const std::vector<whatif_batch>& batches,
                                   unsigned clients);

// --- snapshot -------------------------------------------------------------

struct roundtrip_result {
    double capture_s = 0.0, serialize_s = 0.0, deserialize_s = 0.0,
           restore_s = 0.0;
    std::size_t bytes = 0;
    std::unique_ptr<sci::sim_engine> restored;

    double total_s() const {
        return capture_s + serialize_s + deserialize_s + restore_s;
    }
};

/// capture -> serialize -> deserialize -> restore, each phase a span.
roundtrip_result snapshot_roundtrip(sci::sim_engine& engine,
                                    span_recorder& trace);

// --- dataset export and figures ---------------------------------------------

struct output_result {
    double seconds = 0.0;
    std::uint64_t bytes = 0;  ///< export only
    std::string problem;      ///< empty when the output checks out
};

/// Default aggregate export_dataset + export_events_csv into `dir`; the
/// directory is removed afterwards.
output_result export_outputs(const sci::sim_engine& engine,
                             const std::filesystem::path& dir);

/// The Fig. 5-15 (and Table 1-2) builders over the engine's store.
output_result build_figures(const sci::sim_engine& engine);

// --- layer replays ------------------------------------------------------------

/// vm_behavior::{cpu_ratio,mem_ratio,tx,rx}_at over the engine's active
/// VMs at every scrape instant of the day starting at `day_start`,
/// accumulated into per-node demand like the scrape's stage 1.
struct behavior_replay {
    double ns_per_vm_sample = 0.0;  ///< median over instants
    /// demand[instant][node index] for the hypervisor replay.
    std::vector<std::vector<sci::node_demand>> demand;
};
behavior_replay replay_behavior(sci::sim_engine& engine,
                                sci::sim_time day_start);

/// evaluate_node over every node's replayed demand; ns per node-sample.
double replay_evaluate_node(const sci::sim_engine& engine,
                            const behavior_replay& replay);

/// append_batch of scrape-shaped batches (every series that reported on
/// `day`) into a fresh store holding the run's series, one batch per
/// scrape instant of that day, sharded on a pool of `workers`; ns per
/// sample (median over batches).
double replay_append(const sci::metric_store& store, int day,
                     sci::sim_duration interval, unsigned workers);

/// Host time of an empty 16-shard parallel_for on a pool of `workers`,
/// in microseconds, one sample per call.
std::vector<double> measure_handoff(unsigned workers, std::size_t calls);

/// One full-fleet DRS plan_rebalance pass (every cluster) at `t`; ms.
double time_drs_plan(sci::sim_engine& engine, sci::sim_time t);

/// Peak resident set of this process (Linux VmHWM), MiB; 0 if unknown.
double peak_rss_mib();

/// Hands freed heap memory back to the system (malloc_trim) and restarts
/// the peak resident set from the current one (Linux clear_refs), so the
/// next peak_rss_mib() is the peak of what runs in between rather than of
/// the allocator's leftovers from earlier work.  Without clear_refs the
/// peak stays the process's.
void reset_peak_rss();

}  // namespace perfbench
