#pragma once

// Multi-region scale-out: N independent regional deployments on one pool.
//
// The paper's dataset covers a single region (~1,800 hosts / ~48k VMs);
// production-scale guidance needs several regions running concurrently.
// A region_set owns one sim_engine per region — each a full deployment
// with its own fleet, conductor, DRS clusters, fault schedule, telemetry
// store, and RNG streams derived from a master seed + region id — and
// schedules the regions as coarse-grained tasks on ONE shared
// sci::thread_pool (thread_pool::run_tasks).  Two-level scheduling:
// regions fan out across the workers, and each region's internal sharded
// stages serialize inline on their claimant, so region parallelism
// composes with intra-region sharding instead of oversubscribing.  A
// single region (or a serial pool) runs on the caller with the workers
// idle, so its scrape shards still fan out.
//
// Determinism contract (the acceptance bar of PRs 1–7, extended): every
// region's output — stats, events, dataset export — is bit-identical to
// running that region alone with the same derived seed, at any
// SCI_THREADS / region-count combination.  Regions share no mutable
// state; results are merged in region order after the barrier.
//
// Aggregation: merged run_stats (merge_run_stats), per-region dataset
// exports into <dir>/<region>/, and cross-region files written by
// merge_region_exports — a combined manifest.csv summing per-region
// series counts and fleet_daily.csv with fleet-wide per-metric per-day
// aggregates.  Streaming export composes per region, so an 8-region ×
// scale-3.0 run (1M+ VMs) stays within the O(open-day) raw-residency
// budget of PR 6.

#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "data/dataset.hpp"
#include "data/streaming_writer.hpp"
#include "simcore/thread_pool.hpp"

namespace sci {

/// One region of a multi-region deployment: a name (export subdirectory,
/// diagnostics) plus a fully resolved engine config whose scenario seed
/// is the region's derived master seed.
struct region_spec {
    std::string name;
    engine_config config;
};

/// Build `regions` specs from a base config: region r is named
/// "region<r>" and seeded derive_region_seed(base.scenario.seed, r) (the
/// population seed follows the scenario seed, as everywhere else).
std::vector<region_spec> make_region_specs(const engine_config& base,
                                           std::size_t regions);

/// Sum of per-region run stats over run_stats::for_each_field: counters
/// and duration totals add; high-water fields (worst migration downtime,
/// peak backpressure queue) merge by max.
run_stats merge_run_stats(std::span<const run_stats> per_region);

struct region_export_report {
    dataset_export_report combined;  ///< sums over all regions
    std::vector<dataset_export_report> per_region;
};

/// Cross-region aggregation over per-region exports already under
/// `dir/<name>/`: writes `dir/manifest.csv` (per-metric series counts
/// summed across regions, metric order of the first region) and
/// `dir/fleet_daily.csv` (metric,day,count,mean,min,max — fleet-wide
/// merge of every region's daily aggregates, regions merged in the given
/// order so the arithmetic is deterministic).  Returns the combined
/// report counters.  Standalone so tests can aggregate solo-run exports
/// and compare bytes against a region_set export.
dataset_export_report merge_region_exports(
    const std::filesystem::path& dir,
    const std::vector<std::string>& region_names);

class region_set {
public:
    /// Construct one engine per spec, all sharing one pool of `threads`
    /// workers (nullopt = SCI_THREADS).  Asserts that no two regions
    /// share a derived master seed — identical seeds would make the
    /// "independent" regions replay each other's RNG streams.
    explicit region_set(std::vector<region_spec> specs,
                        std::optional<unsigned> threads = std::nullopt);

    /// Adopt pre-built engines (snapshot restore): `build(r, pool)` must
    /// return the engine for spec r, already set up (e.g. restored from a
    /// checkpoint) and wired to `pool` via set_shared_pool.  setup() on
    /// the result is a no-op; run/run_until continue the adopted
    /// timelines.
    using engine_builder =
        std::function<std::unique_ptr<sim_engine>(std::size_t, thread_pool&)>;
    region_set(std::vector<region_spec> specs, const engine_builder& build,
               std::optional<unsigned> threads = std::nullopt);

    std::size_t region_count() const { return engines_.size(); }
    sim_engine& region(std::size_t r) { return *engines_[r]; }
    const sim_engine& region(std::size_t r) const { return *engines_[r]; }
    const region_spec& spec(std::size_t r) const { return specs_[r]; }
    thread_pool& pool() { return pool_; }

    /// Fan region setups across the pool.  Idempotent.
    void setup();

    /// Play every region's full observation window (setup if needed).
    void run();

    /// Advance every region to `until` (setup if needed).
    void run_until(sim_time until);

    /// Fleet-wide aggregate of the per-region run stats.
    run_stats merged_stats() const;

    /// Attach a streaming dataset writer per region (raw residency stays
    /// O(open day) per region).  Call before setup(); finish with
    /// finish_streaming_export() after run().
    void enable_streaming_export(const std::filesystem::path& dir);

    /// Close the per-region streaming writers and write the cross-region
    /// aggregation files.
    region_export_report finish_streaming_export();

    /// Materialized export: every region into `dir/<name>/`, then the
    /// cross-region aggregation files into `dir`.
    region_export_report export_datasets(
        const std::filesystem::path& dir,
        const dataset_export_options& options = {});

private:
    std::vector<std::string> region_names() const;

    std::vector<region_spec> specs_;
    thread_pool pool_;
    std::vector<std::unique_ptr<sim_engine>> engines_;
    std::vector<std::unique_ptr<streaming_dataset_writer>> writers_;
    std::filesystem::path streaming_dir_;
    bool setup_done_ = false;
};

}  // namespace sci
