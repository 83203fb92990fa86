// The benchmark's own tests: the percentile rule, self-time subtraction,
// and failure counting (including a deliberately mismatched fingerprint
// and a deliberately mismatched what-if landing).

#include <gtest/gtest.h>

#include <stdexcept>

#include "harness/invariants.hpp"
#include "layers.hpp"
#include "ledger.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
}

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
    EXPECT_EQ(tail_percentile(19), 0.0);  // p50 leaves only 9 beyond
    EXPECT_EQ(tail_percentile(20), 50.0);
    EXPECT_EQ(tail_percentile(100), 90.0);
    EXPECT_EQ(tail_percentile(999), 95.0);  // p99 leaves only 9 beyond
    EXPECT_EQ(tail_percentile(1000), 99.0);
    EXPECT_EQ(tail_percentile(9999), 99.0);
    EXPECT_EQ(tail_percentile(10000), 99.9);
    EXPECT_EQ(samples_beyond(99.0, 1000), 10u);
    EXPECT_EQ(samples_beyond(99.0, 999), 9u);
}

TEST(PercentileRule, NearestRankValues) {
    EXPECT_EQ(percentile(one_to(1000), 99.0), 990.0);
    EXPECT_EQ(percentile(one_to(1000), 50.0), 500.0);
    EXPECT_EQ(percentile(one_to(7), 100.0), 7.0);
    EXPECT_EQ(percentile({}, 99.0), 0.0);
    EXPECT_EQ(median(one_to(4)), 2.5);
    EXPECT_EQ(median(one_to(5)), 3.0);

    const summary s = summarize(one_to(1000));
    EXPECT_EQ(s.n, 1000u);
    EXPECT_EQ(s.median, 500.5);
    EXPECT_EQ(s.tail_q, 99.0);
    EXPECT_EQ(s.tail_value, 990.0);
    const summary few = summarize(one_to(5));
    EXPECT_EQ(few.tail_q, 0.0);
    EXPECT_EQ(few.tail_value, 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
    const std::vector<span> spans = {
        {"root", 0, 100, -1},
        {"a", 10, 30, 0},
        {"b", 20, 50, 0},   // overlaps a: the overlap counts once
        {"c", 90, 120, 0},  // overhangs the parent: only 90..100 counts
        {"a.child", 12, 18, 1},
        {"other_root", 200, 260, -1},
    };
    const std::vector<ns_t> self = self_times(spans);
    EXPECT_EQ(self[0], 100 - 40 - 10);
    EXPECT_EQ(self[1], 20 - 6);  // only its own child is subtracted
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 30);
    EXPECT_EQ(self[4], 6);
    EXPECT_EQ(self[5], 60);
}

TEST(SelfTime, RecorderNestsSpansAndSumsSelfTimeByName) {
    span_recorder rec(true);
    {
        span_recorder::scope outer(rec, "outer");
        {
            span_recorder::scope inner(rec, "inner");
        }
        rec.add("interval", rec.now(), rec.now() + 5);
    }
    ASSERT_EQ(rec.spans().size(), 3u);
    EXPECT_EQ(rec.spans()[0].parent, -1);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_EQ(rec.spans()[2].parent, 0);
    const auto by_name = rec.self_seconds_by_name();
    EXPECT_EQ(by_name.size(), 3u);
    EXPECT_GE(by_name.at("outer"), 0.0);

    const int a = rec.open("a");
    rec.open("b");
    EXPECT_THROW(rec.close(a), std::logic_error);

    span_recorder off(false);
    {
        span_recorder::scope s(off, "ignored");
    }
    off.add("ignored", 0, 1);
    EXPECT_TRUE(off.spans().empty());
}

TEST(FailureLedger, CountsAttemptsAndFailuresPerKind) {
    failure_ledger ledger;
    EXPECT_EQ(ledger.failed_share(), 0.0);
    ledger.record(op_kind::window, "");
    ledger.record(op_kind::restore, "");
    ledger.record(op_kind::whatif_batch, "");
    ledger.record(op_kind::whatif_batch, "query 3 landed elsewhere");
    EXPECT_EQ(ledger.attempted(), 4u);
    EXPECT_EQ(ledger.failed(), 1u);
    EXPECT_EQ(ledger.attempted(op_kind::whatif_batch), 2u);
    EXPECT_EQ(ledger.failed(op_kind::whatif_batch), 1u);
    EXPECT_EQ(ledger.failed(op_kind::window), 0u);
    EXPECT_DOUBLE_EQ(ledger.failed_share(), 0.25);
    ASSERT_EQ(ledger.problems().size(), 1u);
    EXPECT_EQ(ledger.problems()[0], "whatif_batch: query 3 landed elsewhere");
}

TEST(FailureLedger, InvariantVerdictsFailTheOperation) {
    std::vector<sci::harness::invariant_result> verdicts = {
        {"admission_accounting", true, "ok"},
        {"conservation", false, "bb 3 claimed 8 vcpus, resident 4"},
    };
    EXPECT_EQ(failed_invariants(verdicts),
              "conservation: bb 3 claimed 8 vcpus, resident 4");
    verdicts[1].passed = true;
    EXPECT_TRUE(failed_invariants(verdicts).empty());
}

/// A small region, set up and played for one day.
std::unique_ptr<sci::sim_engine> small_run(std::uint64_t seed) {
    sci::engine_config config = make_workload(workload::steady_window, seed, 1)
                                    .config;
    config.scenario.scale = 0.02;
    auto engine = std::make_unique<sci::sim_engine>(config);
    engine->setup();
    engine->run_until(sci::seconds_per_day);
    return engine;
}

TEST(FailureLedger, MismatchedFingerprintCountsAsAFailedWindow) {
    const auto run = small_run(5);
    const auto same = small_run(5);
    const auto other = small_run(6);
    const fingerprint reference = fingerprint_of(*run);
    EXPECT_EQ(fingerprint_of(*same), reference);

    failure_ledger ledger;
    ledger.record(op_kind::window,
                  compare_fingerprints(fingerprint_of(*same), reference));
    ledger.record(op_kind::window,
                  compare_fingerprints(fingerprint_of(*other), reference));
    fingerprint tampered = reference;
    tampered.stats_hash ^= 1;
    ledger.record(op_kind::window, compare_fingerprints(tampered, reference));
    EXPECT_EQ(ledger.attempted(op_kind::window), 3u);
    EXPECT_EQ(ledger.failed(op_kind::window), 2u);
}

TEST(FailureLedger, MismatchedWhatifLandingCountsAsAFailedBatch) {
    const auto engine = small_run(5);
    const sci::snapshot::whatif_planner planner(*engine);
    const std::vector<whatif_batch> batches =
        make_whatif_batches(engine->scn(), 9, 4, 50);
    const closed_loop_result loop = run_closed_loop(planner, batches, 2);

    failure_ledger ledger;
    for (std::size_t b = 0; b < batches.size(); ++b) {
        ledger.record(op_kind::whatif_batch,
                      compare_landings(loop.results[b],
                                       planner.plan(batches[b])));
    }
    EXPECT_EQ(ledger.failed(), 0u);

    sci::snapshot::whatif_result wrong = loop.results[0];
    ASSERT_FALSE(wrong.landings.empty());
    wrong.landings[7] = wrong.landings[7].has_value()
                            ? std::nullopt
                            : std::optional<sci::bb_id>(sci::bb_id(0));
    ledger.record(op_kind::whatif_batch,
                  compare_landings(wrong, planner.plan(batches[0])));
    wrong.landings.pop_back();
    ledger.record(op_kind::whatif_batch,
                  compare_landings(wrong, planner.plan(batches[0])));
    EXPECT_EQ(ledger.attempted(), 6u);
    EXPECT_EQ(ledger.failed(), 2u);
    EXPECT_NE(ledger.problems()[0].find("query 7"), std::string::npos);
}

TEST(Workloads, SeedsGenerateTheConfiguredPhysics) {
    const workload_spec storm = make_workload(workload::storm_window, 3, 8);
    EXPECT_EQ(storm.workers, 3u);
    EXPECT_EQ(storm.config.scenario.seed, 3u);
    EXPECT_EQ(storm.config.population.seed, 3u);
    EXPECT_EQ(storm.days, 10);
    EXPECT_TRUE(storm.checks.no_blackhole);
    EXPECT_EQ(make_workload(workload::storm_window, 3, 2).workers, 1u);
    const workload_spec region = make_workload(workload::region_setup, 3, 4);
    EXPECT_EQ(region.days, 0);
    EXPECT_EQ(region.workers, 0u);
    EXPECT_EQ(region.config.scenario.scale, 1.0);
    EXPECT_FALSE(parse_workload("bogus").has_value());
}

}  // namespace
}  // namespace perfbench
