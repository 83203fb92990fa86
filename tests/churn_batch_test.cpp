// Determinism guard for batched churn-arrival placement: the event loop
// drains arrivals through the same speculate/commit pipeline as the
// initial population, so fixed-seed runs at SCI_THREADS ∈ {0, 1, 4} must
// produce bit-identical placements, stats, reports, and exported
// datasets — including a faulted run where crashes, maintenance windows
// and claim races land inside open batches.  The scenario is tuned
// (hourly scrape interval, dense churn) so batches span several distinct
// arrival timestamps: the straddle tests prove that batches stayed open
// across deletions and fault events and that the shrink-version
// invalidation actually fired, i.e. the interesting paths are exercised
// rather than vacuously green.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/report.hpp"
#include "data/dataset.hpp"
#include "determinism.hpp"

namespace sci {
namespace {

std::unique_ptr<sim_engine> run_engine(unsigned threads, bool faulted) {
    engine_config config;
    config.scenario.scale = 0.02;  // ~36 nodes, ~960 VMs
    config.scenario.seed = 11;
    // hourly scrapes + ~5x the paper's churn rate: batches group several
    // arrivals per interval and stay open across intervening events
    config.sampling_interval = 3600;
    config.population.daily_churn_fraction = 0.10;
    config.threads = threads;
    if (faulted) {
        config.fault.host_crash_rate_per_day = 0.05;
        config.fault.claim_failure_probability = 0.02;
        config.fault.maintenance_windows = 2;
    }
    auto engine = std::make_unique<sim_engine>(config);
    engine->run();
    return engine;
}

/// Three engines at 0/1/4 threads (expensive; built once).
std::vector<std::unique_ptr<sim_engine>>& default_runs() {
    static auto* runs = [] {
        auto* v = new std::vector<std::unique_ptr<sim_engine>>();
        for (const unsigned threads : {0u, 1u, 4u}) {
            v->push_back(run_engine(threads, false));
        }
        return v;
    }();
    return *runs;
}

/// Same, with crashes / maintenance / claim races injected in-window.
std::vector<std::unique_ptr<sim_engine>>& faulted_runs() {
    static auto* runs = [] {
        auto* v = new std::vector<std::unique_ptr<sim_engine>>();
        for (const unsigned threads : {0u, 1u, 4u}) {
            v->push_back(run_engine(threads, true));
        }
        return v;
    }();
    return *runs;
}

TEST(ChurnBatchTest, VmPlacementsMatchSerialReference) {
    for (std::size_t i = 1; i < default_runs().size(); ++i) {
        expect_placements_equal(*default_runs()[0], *default_runs()[i]);
    }
}

TEST(ChurnBatchTest, FaultedVmPlacementsMatchSerialReference) {
    for (std::size_t i = 1; i < faulted_runs().size(); ++i) {
        expect_placements_equal(*faulted_runs()[0], *faulted_runs()[i]);
    }
}

TEST(ChurnBatchTest, StatsAreBitIdenticalAcrossThreadCounts) {
    for (std::size_t i = 1; i < default_runs().size(); ++i) {
        expect_stats_equal(default_runs()[0]->stats(), default_runs()[i]->stats());
        expect_stats_equal(faulted_runs()[0]->stats(), faulted_runs()[i]->stats());
    }
}

TEST(ChurnBatchTest, BatchesCommitArrivalsSpeculatively) {
    const run_stats& stats = default_runs()[0]->stats();
    EXPECT_GT(stats.window_batches, 0u);
    EXPECT_GT(stats.window_speculations, 0u);
    EXPECT_GT(stats.window_speculative_placements, 0u);
    EXPECT_LE(stats.window_speculative_placements, stats.window_speculations);
    // every speculated arrival either commits speculatively, misses, or
    // is dropped by an invalidation
    EXPECT_EQ(stats.window_speculations,
              stats.window_speculative_placements +
                  stats.window_speculation_misses +
                  stats.window_speculation_invalidated);
    // the span record matches the counters
    const auto& spans = default_runs()[0]->churn_batches();
    ASSERT_EQ(spans.size(), stats.window_batches);
    std::uint64_t speculated = 0;
    for (const batch_span& s : spans) {
        EXPECT_LE(s.first, s.last);
        speculated += s.size;
    }
    EXPECT_EQ(speculated, stats.window_speculations);
}

TEST(ChurnBatchTest, ShrinksInvalidateOpenBatches) {
    // deletions land inside open batches, breaking the monotone-usage
    // precondition: the tail must re-speculate, not commit stale results
    EXPECT_GT(default_runs()[0]->stats().window_speculation_invalidated, 0u);
    EXPECT_GT(faulted_runs()[0]->stats().window_speculation_invalidated, 0u);
}

/// Does any batch span (size >= 2) stay open across an event of `kind`?
/// The batch is speculated when its first arrival commits, so an event
/// strictly inside (first, last] intervened while the batch was open.
bool any_batch_straddles(const sim_engine& engine, lifecycle_event_kind kind) {
    for (const batch_span& s : engine.churn_batches()) {
        if (s.size < 2 || s.first == s.last) continue;
        for (const lifecycle_event& e : engine.events().between(s.first + 1,
                                                                s.last + 1)) {
            if (e.kind == kind) return true;
        }
    }
    return false;
}

TEST(ChurnBatchTest, BatchesStraddleDeletions) {
    EXPECT_TRUE(any_batch_straddles(*default_runs()[0],
                                    lifecycle_event_kind::remove));
    EXPECT_TRUE(any_batch_straddles(*faulted_runs()[0],
                                    lifecycle_event_kind::remove));
}

TEST(ChurnBatchTest, BatchesStraddleFaultEvents) {
    const sim_engine& faulted = *faulted_runs()[0];
    EXPECT_GT(faulted.stats().host_crashes, 0u);
    EXPECT_GT(faulted.stats().maintenance_evacuations, 0u);
    // crashes (sci::fault) and maintenance/decommission evacuations both
    // landed inside open batches
    EXPECT_TRUE(any_batch_straddles(faulted, lifecycle_event_kind::crash));
    EXPECT_TRUE(any_batch_straddles(faulted, lifecycle_event_kind::evacuate));
}

TEST(ChurnBatchTest, ReportHashesAreBitIdentical) {
    const std::uint64_t ref = hash_string(markdown_report(*default_runs()[0]));
    const std::uint64_t faulted_ref =
        hash_string(markdown_report(*faulted_runs()[0]));
    EXPECT_NE(ref, faulted_ref);  // the runs differ; only threads must not
    for (std::size_t i = 1; i < default_runs().size(); ++i) {
        EXPECT_EQ(ref, hash_string(markdown_report(*default_runs()[i])));
        EXPECT_EQ(faulted_ref, hash_string(markdown_report(*faulted_runs()[i])));
    }
}

TEST(ChurnBatchTest, DatasetExportsAreBitIdentical) {
    const std::filesystem::path base = "cbtest_dataset";
    const std::uint64_t ref =
        hash_dataset_export(*default_runs()[0], base / "t0");
    const std::uint64_t faulted_ref =
        hash_dataset_export(*faulted_runs()[0], base / "f0");
    for (std::size_t i = 1; i < default_runs().size(); ++i) {
        EXPECT_EQ(ref, hash_dataset_export(*default_runs()[i],
                                           base / ("t" + std::to_string(i))));
        EXPECT_EQ(faulted_ref,
                  hash_dataset_export(*faulted_runs()[i],
                                      base / ("f" + std::to_string(i))));
    }
    std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace sci
