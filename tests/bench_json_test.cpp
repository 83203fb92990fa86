// Merge semantics of the BENCH_engine.json writer (bench/bench_json.hpp):
// re-running a bench binary must be idempotent — one entry per benchmark
// name, freshest measurement wins, file ordering stable — and a summary
// polluted with duplicate keys by a pre-dedupe writer must heal on the
// first re-merge.

#include "bench_json.hpp"

#include <gtest/gtest.h>

namespace sci::benchutil {
namespace {

TEST(BenchJsonTest, RoundTripsEntries) {
    const std::vector<bench_entry> entries = {
        {"bm_a/threads=0", 12.5, 1000.0},
        {"bm_a/threads=4", 3.125, 4000.0},
    };
    const auto parsed = parse_bench_json(render_bench_json(entries));
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].name, "bm_a/threads=0");
    EXPECT_DOUBLE_EQ(parsed[0].wall_ms, 12.5);
    EXPECT_DOUBLE_EQ(parsed[0].samples_per_s, 1000.0);
    EXPECT_EQ(parsed[1].name, "bm_a/threads=4");
}

TEST(BenchJsonTest, MergeReplacesByNameAndAppendsNew) {
    std::vector<bench_entry> existing = {
        {"bm_a", 10.0, 100.0},
        {"bm_b", 20.0, 200.0},
    };
    merge_bench_entries(existing, {{"bm_b", 15.0, 250.0}, {"bm_c", 5.0, 500.0}});
    ASSERT_EQ(existing.size(), 3u);
    EXPECT_EQ(existing[0].name, "bm_a");  // untouched, position stable
    EXPECT_EQ(existing[1].name, "bm_b");  // replaced in place
    EXPECT_DOUBLE_EQ(existing[1].wall_ms, 15.0);
    EXPECT_DOUBLE_EQ(existing[1].samples_per_s, 250.0);
    EXPECT_EQ(existing[2].name, "bm_c");  // appended
}

TEST(BenchJsonTest, RepeatedMergeIsIdempotent) {
    const std::vector<bench_entry> fresh = {{"bm_a", 10.0, 100.0},
                                            {"bm_b", 20.0, 200.0}};
    std::vector<bench_entry> entries;
    merge_bench_entries(entries, fresh);
    const std::string first = render_bench_json(entries);
    // simulate the re-run: parse what we wrote, merge the same results
    auto reparsed = parse_bench_json(first);
    merge_bench_entries(reparsed, fresh);
    EXPECT_EQ(render_bench_json(reparsed), first);
    EXPECT_EQ(reparsed.size(), 2u);
}

TEST(BenchJsonTest, ParseCollapsesStaleDuplicates) {
    // a file a pre-dedupe writer accumulated: same key three times
    const std::vector<bench_entry> polluted = {
        {"bm_a", 10.0, 100.0},
        {"bm_b", 20.0, 200.0},
        {"bm_a", 11.0, 110.0},
        {"bm_a", 12.0, 120.0},
    };
    const auto parsed = parse_bench_json(render_bench_json(polluted));
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].name, "bm_a");
    EXPECT_DOUBLE_EQ(parsed[0].wall_ms, 12.0);  // last occurrence wins
    EXPECT_EQ(parsed[1].name, "bm_b");
}

TEST(BenchJsonTest, FreshDuplicatesCollapseToLastMeasurement) {
    std::vector<bench_entry> entries;
    merge_bench_entries(entries, {{"bm_a", 10.0, 100.0}, {"bm_a", 8.0, 125.0}});
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_DOUBLE_EQ(entries[0].wall_ms, 8.0);
}

TEST(BenchJsonTest, RoundTripsPeakRss) {
    const std::vector<bench_entry> entries = {{"bm_a", 1.0, 2.0, 512.5}};
    const auto parsed = parse_bench_json(render_bench_json(entries));
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_DOUBLE_EQ(parsed[0].peak_rss_mib, 512.5);
}

TEST(BenchJsonTest, ParsesPreRssLinesWithZeroPeak) {
    // summary written before peak_rss_mib existed: still parses, peak = 0
    const auto parsed = parse_bench_json(
        "    {\"name\": \"bm_old\", \"wall_ms\": 1.000, \"samples_per_s\": 2}\n");
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].name, "bm_old");
    EXPECT_DOUBLE_EQ(parsed[0].peak_rss_mib, 0.0);
}

TEST(BenchJsonTest, RoundTripsHostMetadata) {
    const std::vector<bench_entry> entries = {
        {"bm_a", 1.0, 2.0, 3.0, 4, "RelWithDebInfo"},
        {"bm_old", 1.0, 2.0, 3.0}};
    const std::string text = render_bench_json(entries);
    const auto parsed = parse_bench_json(text);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].nproc, 4u);
    EXPECT_EQ(parsed[0].build_type, "RelWithDebInfo");
    EXPECT_DOUBLE_EQ(parsed[0].peak_rss_mib, 3.0);
    // an entry without host metadata renders and parses without it
    EXPECT_EQ(parsed[1].nproc, 0u);
    EXPECT_TRUE(parsed[1].build_type.empty());
    EXPECT_EQ(render_bench_json(parsed), text);
}

TEST(BenchJsonTest, ProcessPeakRssIsPositiveOnLinux) {
    // /proc/self/status always carries VmHWM on Linux; a test process has
    // touched at least a few MiB by the time this runs
    EXPECT_GT(process_peak_rss_mib(), 0.0);
}

TEST(BenchJsonTest, ParseSkipsMalformedLinesAndEmptyInput) {
    EXPECT_TRUE(parse_bench_json("").empty());
    EXPECT_TRUE(parse_bench_json("{\n  \"benchmarks\": [\n  ]\n}\n").empty());
    const auto parsed = parse_bench_json(
        "garbage line\n"
        "    {\"name\": \"bm_a\", \"wall_ms\": 1.000, \"samples_per_s\": 2}\n"
        "    {\"name\": \"broken\", \"wall_ms\": }\n");
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].name, "bm_a");
}

}  // namespace
}  // namespace sci::benchutil
