// Determinism guard for multi-region scale-out: every region of a
// region_set must be bit-identical to running that region alone with the
// same derived seed — at any shared-pool worker count and any region
// count — and the cross-region aggregation (merged run_stats, combined
// manifest, fleet-wide daily aggregates) must equal the same merge
// applied to the solo runs, byte for byte.  The runs are faulted (host
// crashes + migration aborts) so the HA batching and abort accounting
// paths are covered, not just the steady state.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "harness/harness.hpp"
#include "multiregion/region_set.hpp"
#include "simcore/rng.hpp"

namespace sci {
namespace {

constexpr std::size_t max_regions = 4;

engine_config base_config() {
    engine_config config;
    config.scenario.scale = 0.02;  // ~36 nodes, ~960 VMs per region
    config.scenario.seed = 29;
    config.population.seed = 29;
    config.sampling_interval = 900;
    config.fault.host_crash_rate_per_day = 0.003;
    config.fault.migration_abort_probability = 0.05;
    config.threads = 0;  // solo baseline runs serially; region engines
                         // use the set's shared pool instead
    return config;
}

/// Solo baselines: region r's exact config, run alone (expensive; built
/// once and shared across every comparison below).
const std::vector<std::unique_ptr<sim_engine>>& solo_runs() {
    static auto* runs = [] {
        auto* v = new std::vector<std::unique_ptr<sim_engine>>();
        for (const region_spec& spec :
             make_region_specs(base_config(), max_regions)) {
            v->push_back(std::make_unique<sim_engine>(spec.config));
            v->back()->run();
        }
        return v;
    }();
    return *runs;
}

/// Finished region_sets keyed by (region count, pool threads); each is
/// run exactly once and reused by every case that needs it.
region_set& set_for(std::size_t regions, unsigned threads) {
    static auto* cache =
        new std::map<std::pair<std::size_t, unsigned>,
                     std::unique_ptr<region_set>>();
    auto& slot = (*cache)[{regions, threads}];
    if (slot == nullptr) {
        slot = std::make_unique<region_set>(
            make_region_specs(base_config(), regions), threads);
        slot->run();
    }
    return *slot;
}

void expect_region_matches_solo(const sim_engine& region,
                                const sim_engine& solo,
                                const std::string& label) {
    EXPECT_EQ(harness::stats_fingerprint(region.stats()),
              harness::stats_fingerprint(solo.stats()))
        << label;
    EXPECT_EQ(harness::events_fingerprint(region.events()),
              harness::events_fingerprint(solo.events()))
        << label;
    EXPECT_EQ(region.events().size(), solo.events().size()) << label;
    EXPECT_EQ(region.stats().placements, solo.stats().placements) << label;
    EXPECT_EQ(region.stats().drs_migrations, solo.stats().drs_migrations)
        << label;
    EXPECT_EQ(region.stats().host_crashes, solo.stats().host_crashes)
        << label;
    EXPECT_EQ(region.store().total_samples(), solo.store().total_samples())
        << label;
    EXPECT_EQ(region.store().series_count(), solo.store().series_count())
        << label;
}

TEST(MultiRegionTest, RegionsAreBitIdenticalToSoloRuns) {
    const auto& solo = solo_runs();
    for (const std::size_t regions : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
        for (const unsigned threads : {0u, 1u, 4u}) {
            region_set& set = set_for(regions, threads);
            ASSERT_EQ(set.region_count(), regions);
            for (std::size_t r = 0; r < regions; ++r) {
                std::ostringstream label;
                label << "regions=" << regions << " threads=" << threads
                      << " region=" << r;
                expect_region_matches_solo(set.region(r), *solo[r],
                                           label.str());
            }
        }
    }
}

TEST(MultiRegionTest, MergedStatsEqualSumOfSoloRuns) {
    const auto& solo = solo_runs();
    std::vector<run_stats> solo_stats;
    for (const auto& engine : solo) solo_stats.push_back(engine->stats());
    const run_stats expected = merge_run_stats(solo_stats);
    const run_stats merged = set_for(max_regions, 4).merged_stats();
    EXPECT_EQ(harness::stats_fingerprint(merged),
              harness::stats_fingerprint(expected));
    EXPECT_EQ(merged.placements, expected.placements);
    EXPECT_EQ(merged.deletions, expected.deletions);
    EXPECT_EQ(merged.drs_migrations, expected.drs_migrations);
    EXPECT_EQ(merged.host_crashes, expected.host_crashes);
    EXPECT_EQ(merged.ha_restarts, expected.ha_restarts);
    EXPECT_EQ(merged.migration_aborts, expected.migration_aborts);
    EXPECT_EQ(merged.scrapes, expected.scrapes);
    EXPECT_EQ(merged.max_migration_downtime_ms,
              expected.max_migration_downtime_ms);
}

TEST(MultiRegionTest, MergedBackpressureCountersSumAcrossRegions) {
    // retry-storm pressure (no overcommit, heavy churn, one-shot HA) under
    // queue-mode backpressure, so every region queues and sheds
    engine_config config = base_config();
    config.gp_cpu_allocation_ratio_override = 1.0;
    config.population.daily_churn_fraction = 0.08;
    config.fault.host_crash_rate_per_day = 0.25;
    config.fault.ha_max_restart_attempts = 1;
    config.backpressure.mode = backpressure_mode::queue;
    config.backpressure.queue_capacity = 64;
    config.backpressure.queue_deadline = 7200;
    region_set set(make_region_specs(config, 2), std::optional<unsigned>(0));
    set.setup();
    set.run_until(days(4));

    run_stats expected;
    std::size_t queuing_regions = 0;
    for (std::size_t r = 0; r < set.region_count(); ++r) {
        const run_stats& s = set.region(r).stats();
        if (s.bp_enqueued > 0) ++queuing_regions;
        expected.bp_enqueued += s.bp_enqueued;
        expected.bp_queue_placed += s.bp_queue_placed;
        expected.bp_shed_deadline += s.bp_shed_deadline;
        expected.bp_shed_queue_full += s.bp_shed_queue_full;
        expected.bp_shed_evicted += s.bp_shed_evicted;
        expected.bp_cancelled += s.bp_cancelled;
        expected.bp_regime_transitions += s.bp_regime_transitions;
        expected.ha_give_ups += s.ha_give_ups;
        expected.bp_peak_queue_len =
            std::max(expected.bp_peak_queue_len, s.bp_peak_queue_len);
    }
    ASSERT_GE(queuing_regions, 2u) << "the backpressure queue never engaged";
    const run_stats merged = set.merged_stats();
    EXPECT_EQ(merged.bp_enqueued, expected.bp_enqueued);
    EXPECT_EQ(merged.bp_queue_placed, expected.bp_queue_placed);
    EXPECT_EQ(merged.bp_shed_deadline, expected.bp_shed_deadline);
    EXPECT_EQ(merged.bp_shed_queue_full, expected.bp_shed_queue_full);
    EXPECT_EQ(merged.bp_shed_evicted, expected.bp_shed_evicted);
    EXPECT_EQ(merged.bp_cancelled, expected.bp_cancelled);
    EXPECT_EQ(merged.bp_regime_transitions, expected.bp_regime_transitions);
    EXPECT_EQ(merged.ha_give_ups, expected.ha_give_ups);
    EXPECT_EQ(merged.bp_peak_queue_len, expected.bp_peak_queue_len);
}

std::string file_bytes(const std::filesystem::path& file) {
    std::ifstream in(file, std::ios::binary);
    EXPECT_TRUE(in.good()) << file;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(MultiRegionTest, AggregatedExportsAreByteIdenticalToMergedSoloExports) {
    const auto& solo = solo_runs();
    const std::filesystem::path base =
        std::filesystem::temp_directory_path() / "sci_multiregion_test";
    const std::filesystem::path set_dir = base / "set";
    const std::filesystem::path solo_dir = base / "solo";
    std::filesystem::remove_all(base);

    region_set& set = set_for(max_regions, 4);
    const region_export_report report = set.export_datasets(set_dir);
    EXPECT_EQ(report.per_region.size(), max_regions);
    EXPECT_GT(report.combined.daily_rows, 0u);

    // The same merge applied to the solo runs' exports must reproduce the
    // region_set's cross-region files byte for byte.
    std::vector<std::string> names;
    for (std::size_t r = 0; r < max_regions; ++r) {
        names.push_back(set.spec(r).name);
        export_dataset(solo[r]->store(), solo_dir / names.back());
    }
    merge_region_exports(solo_dir, names);

    EXPECT_EQ(file_bytes(set_dir / "manifest.csv"),
              file_bytes(solo_dir / "manifest.csv"));
    EXPECT_EQ(file_bytes(set_dir / "fleet_daily.csv"),
              file_bytes(solo_dir / "fleet_daily.csv"));
    // and each per-region export equals the solo run's export
    for (const std::string& name : names) {
        EXPECT_EQ(file_bytes(set_dir / name / "manifest.csv"),
                  file_bytes(solo_dir / name / "manifest.csv"))
            << name;
    }
    std::filesystem::remove_all(base);
}

TEST(MultiRegionTest, DerivedRegionSeedsAreDistinct) {
    const auto specs = make_region_specs(base_config(), 8);
    for (std::size_t a = 0; a < specs.size(); ++a) {
        EXPECT_EQ(specs[a].config.scenario.seed,
                  derive_region_seed(base_config().scenario.seed, a));
        for (std::size_t b = a + 1; b < specs.size(); ++b) {
            EXPECT_NE(specs[a].config.scenario.seed,
                      specs[b].config.scenario.seed)
                << a << " vs " << b;
        }
    }
}

TEST(MultiRegionTest, RejectsRegionsSharingAMasterSeed) {
    std::vector<region_spec> specs = make_region_specs(base_config(), 2);
    specs[1].config.scenario.seed = specs[0].config.scenario.seed;
    // the explicit optional avoids ambiguity with the engine-adopting
    // overload (a literal 0 also converts to a null engine_builder)
    EXPECT_THROW(region_set(std::move(specs), std::optional<unsigned>{0u}),
                 precondition_error);
}

}  // namespace
}  // namespace sci
