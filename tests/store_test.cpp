// Tests for telemetry/store: streaming day/hour compaction — the Thanos
// equivalent the analyses read from.

#include "telemetry/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "simcore/error.hpp"

namespace sci {
namespace {

metric_store make_store(store_config config = {}) {
    return metric_store(metric_registry::standard_catalog(), config);
}

TEST(MetricStoreTest, OpenSeriesIsIdempotent) {
    metric_store store = make_store();
    const series_id a = store.open_series(metric_names::host_memory_usage,
                                          label_set{{"node", "n1"}});
    const series_id b = store.open_series(metric_names::host_memory_usage,
                                          label_set{{"node", "n1"}});
    EXPECT_EQ(a, b);
    EXPECT_EQ(store.series_count(), 1u);
}

TEST(MetricStoreTest, DifferentLabelsDifferentSeries) {
    metric_store store = make_store();
    const series_id a = store.open_series(metric_names::host_memory_usage,
                                          label_set{{"node", "n1"}});
    const series_id b = store.open_series(metric_names::host_memory_usage,
                                          label_set{{"node", "n2"}});
    EXPECT_NE(a, b);
    EXPECT_EQ(store.series_count(), 2u);
}

TEST(MetricStoreTest, SameLabelsDifferentMetricDifferentSeries) {
    metric_store store = make_store();
    const series_id a = store.open_series(metric_names::host_memory_usage,
                                          label_set{{"node", "n1"}});
    const series_id b = store.open_series(metric_names::host_cpu_contention,
                                          label_set{{"node", "n1"}});
    EXPECT_NE(a, b);
}

TEST(MetricStoreTest, UnknownMetricThrows) {
    metric_store store = make_store();
    EXPECT_THROW(store.open_series("no_such_metric", {}), not_found_error);
}

TEST(MetricStoreTest, FindSeries) {
    metric_store store = make_store();
    const label_set labels{{"node", "n1"}};
    EXPECT_FALSE(
        store.find_series(metric_names::host_memory_usage, labels).has_value());
    const series_id id =
        store.open_series(metric_names::host_memory_usage, labels);
    EXPECT_EQ(store.find_series(metric_names::host_memory_usage, labels), id);
    EXPECT_FALSE(store.find_series("no_such_metric", labels).has_value());
}

TEST(MetricStoreTest, DailyAggregationMatchesBruteForce) {
    metric_store store = make_store();
    const series_id id = store.open_series(metric_names::host_memory_usage,
                                           label_set{{"node", "n1"}});
    running_stats expected_day0, expected_day1;
    for (int i = 0; i < 288; ++i) {  // 300 s cadence over one day
        const double v = 40.0 + static_cast<double>(i % 17);
        store.append(id, i * 300, v);
        expected_day0.add(v);
    }
    for (int i = 0; i < 10; ++i) {
        const double v = 90.0 - i;
        store.append(id, seconds_per_day + i * 300, v);
        expected_day1.add(v);
    }
    const running_stats* day0 = store.daily(id, 0);
    ASSERT_NE(day0, nullptr);
    EXPECT_EQ(day0->count(), expected_day0.count());
    EXPECT_DOUBLE_EQ(day0->mean(), expected_day0.mean());
    EXPECT_DOUBLE_EQ(day0->min(), expected_day0.min());
    EXPECT_DOUBLE_EQ(day0->max(), expected_day0.max());
    const running_stats* day1 = store.daily(id, 1);
    ASSERT_NE(day1, nullptr);
    EXPECT_DOUBLE_EQ(day1->mean(), expected_day1.mean());
}

TEST(MetricStoreTest, EmptyDayIsNull) {
    metric_store store = make_store();
    const series_id id = store.open_series(metric_names::host_memory_usage,
                                           label_set{{"node", "n1"}});
    store.append(id, 100, 1.0);
    EXPECT_NE(store.daily(id, 0), nullptr);
    EXPECT_EQ(store.daily(id, 5), nullptr);  // the heatmaps' white cells
}

TEST(MetricStoreTest, DailyRejectsOutOfRangeDay) {
    metric_store store = make_store();
    const series_id id = store.open_series(metric_names::host_memory_usage,
                                           label_set{{"node", "n1"}});
    EXPECT_THROW(store.daily(id, -1), precondition_error);
    EXPECT_THROW(store.daily(id, observation_days), precondition_error);
}

TEST(MetricStoreTest, SamplesOutsideWindowAreDropped) {
    metric_store store = make_store();
    const series_id id = store.open_series(metric_names::host_memory_usage,
                                           label_set{{"node", "n1"}});
    store.append(id, -100, 1.0);                       // before window
    store.append(id, observation_window, 1.0);         // at/after window end
    store.append(id, observation_window + 500, 1.0);
    EXPECT_EQ(store.dropped_samples(), 3u);
    EXPECT_EQ(store.total_samples(), 3u);
    EXPECT_EQ(store.daily(id, 0), nullptr);
    EXPECT_EQ(store.daily(id, observation_days - 1), nullptr);
}

TEST(MetricStoreTest, HourlyOnlyForFlaggedMetrics) {
    metric_store store = make_store();
    const series_id ready = store.open_series(metric_names::host_cpu_ready,
                                              label_set{{"node", "n1"}});
    const series_id mem = store.open_series(metric_names::host_memory_usage,
                                            label_set{{"node", "n1"}});
    store.append(ready, hours(5) + 10, 1234.0);
    store.append(mem, hours(5) + 10, 50.0);

    const running_stats* agg = store.hourly(ready, 5);
    ASSERT_NE(agg, nullptr);
    EXPECT_DOUBLE_EQ(agg->mean(), 1234.0);
    EXPECT_EQ(store.hourly(ready, 6), nullptr);
    EXPECT_THROW(store.hourly(mem, 5), precondition_error);
}

TEST(MetricStoreTest, HourlyIndexSpansWholeWindow) {
    metric_store store = make_store();
    const series_id ready = store.open_series(metric_names::host_cpu_ready,
                                              label_set{{"node", "n1"}});
    const sim_time last_hour_start = observation_window - seconds_per_hour;
    store.append(ready, last_hour_start + 30, 7.0);
    const running_stats* agg = store.hourly(ready, observation_days * 24 - 1);
    ASSERT_NE(agg, nullptr);
    EXPECT_DOUBLE_EQ(agg->mean(), 7.0);
    EXPECT_THROW(store.hourly(ready, observation_days * 24), precondition_error);
}

TEST(MetricStoreTest, RawRetentionToggle) {
    metric_store no_raw = make_store();
    const series_id a = no_raw.open_series(metric_names::host_memory_usage,
                                           label_set{{"node", "n1"}});
    no_raw.append(a, 100, 1.0);
    EXPECT_TRUE(no_raw.raw(a).empty());

    metric_store with_raw = make_store(store_config{.keep_raw = true});
    const series_id b = with_raw.open_series(metric_names::host_memory_usage,
                                             label_set{{"node", "n1"}});
    with_raw.append(b, 100, 1.0);
    with_raw.append(b, 400, 2.0);
    ASSERT_EQ(with_raw.raw(b).size(), 2u);
    EXPECT_EQ(with_raw.raw(b)[0].t, 100);
    EXPECT_DOUBLE_EQ(with_raw.raw(b)[1].value, 2.0);
}

TEST(MetricStoreTest, SelectFiltersByLabels) {
    metric_store store = make_store();
    store.open_series(metric_names::host_memory_usage,
                      label_set{{"node", "n1"}, {"dc", "dc-a"}});
    store.open_series(metric_names::host_memory_usage,
                      label_set{{"node", "n2"}, {"dc", "dc-b"}});
    store.open_series(metric_names::host_memory_usage,
                      label_set{{"node", "n3"}, {"dc", "dc-a"}});

    EXPECT_EQ(store.select(metric_names::host_memory_usage).size(), 3u);
    const std::vector<std::pair<std::string, std::string>> filter{{"dc", "dc-a"}};
    EXPECT_EQ(store.select(metric_names::host_memory_usage, filter).size(), 2u);
    const std::vector<std::pair<std::string, std::string>> none{{"dc", "dc-x"}};
    EXPECT_TRUE(store.select(metric_names::host_memory_usage, none).empty());
    EXPECT_TRUE(store.select("no_such_metric").empty());
}

TEST(MetricStoreTest, SelectReturnsDeterministicOrder) {
    metric_store store = make_store();
    for (int i = 0; i < 50; ++i) {
        store.open_series(metric_names::host_memory_usage,
                          label_set{{"node", "n" + std::to_string(i)}});
    }
    const auto first = store.select(metric_names::host_memory_usage);
    const auto second = store.select(metric_names::host_memory_usage);
    EXPECT_EQ(first, second);
    EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
}

TEST(MetricStoreTest, WindowAggregateMergesDays) {
    metric_store store = make_store();
    const series_id id = store.open_series(metric_names::host_memory_usage,
                                           label_set{{"node", "n1"}});
    store.append(id, days(0) + 100, 10.0);
    store.append(id, days(3) + 100, 30.0);
    store.append(id, days(29) + 100, 50.0);
    const running_stats total = store.window_aggregate(id);
    EXPECT_EQ(total.count(), 3u);
    EXPECT_DOUBLE_EQ(total.mean(), 30.0);
    EXPECT_DOUBLE_EQ(total.min(), 10.0);
    EXPECT_DOUBLE_EQ(total.max(), 50.0);
}

TEST(MetricStoreTest, MetricAndLabelsOfSeries) {
    metric_store store = make_store();
    const label_set labels{{"vm", "vm-abc"}};
    const series_id id =
        store.open_series(metric_names::vm_cpu_usage_ratio, labels);
    EXPECT_EQ(store.metric_of(id).name, metric_names::vm_cpu_usage_ratio);
    EXPECT_EQ(store.labels_of(id), labels);
}

TEST(MetricStoreTest, AppendRejectsUnknownSeries) {
    metric_store store = make_store();
    EXPECT_THROW(store.append(series_id(0), 0, 1.0), precondition_error);
    EXPECT_THROW(store.append(series_id(), 0, 1.0), precondition_error);
}

TEST(MetricStoreTest, ConfigurableDays) {
    metric_store store = make_store(store_config{.days = 7});
    const series_id id = store.open_series(metric_names::host_memory_usage,
                                           label_set{{"node", "n1"}});
    store.append(id, days(6) + 1, 5.0);
    EXPECT_NE(store.daily(id, 6), nullptr);
    store.append(id, days(7) + 1, 5.0);  // beyond horizon
    EXPECT_EQ(store.dropped_samples(), 1u);
    EXPECT_THROW(store.daily(id, 7), precondition_error);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Slots keep what a Thanos downsampled chunk keeps: count, sum, min, max.
static_assert(sizeof(running_stats) == 32);

TEST(MetricStoreTest, LeanSlotsReproduceSumMeanMinMaxExactly) {
    // hourly-flagged metric, so both slot kinds are checked
    metric_store store = make_store();
    const series_id id = store.open_series(metric_names::host_cpu_ready,
                                           label_set{{"node", "n1"}});
    ASSERT_TRUE(store.metric_of(id).hourly);
    std::mt19937_64 gen(3);
    std::uniform_real_distribution<double> dist(0.0, 100.0);
    std::vector<std::vector<double>> by_day(3), by_hour(72);
    for (sim_time t = 0; t < days(3); t += 300) {
        const double v = dist(gen);
        store.append(id, t, v);
        by_day[static_cast<std::size_t>(t / seconds_per_day)].push_back(v);
        by_hour[static_cast<std::size_t>(t / seconds_per_hour)].push_back(v);
    }
    const auto expect_slot = [](const running_stats* slot,
                                const std::vector<double>& values) {
        ASSERT_NE(slot, nullptr);
        double sum = 0.0;
        for (double v : values) sum += v;  // the store's add order
        EXPECT_EQ(slot->count(), values.size());
        EXPECT_EQ(bits(slot->sum()), bits(sum));
        EXPECT_EQ(bits(slot->mean()),
                  bits(sum / static_cast<double>(values.size())));
        EXPECT_EQ(bits(slot->min()),
                  bits(*std::min_element(values.begin(), values.end())));
        EXPECT_EQ(bits(slot->max()),
                  bits(*std::max_element(values.begin(), values.end())));
    };
    for (int day = 0; day < 3; ++day) {
        expect_slot(store.daily(id, day), by_day[static_cast<std::size_t>(day)]);
    }
    for (int hour = 0; hour < 72; ++hour) {
        expect_slot(store.hourly(id, hour), by_hour[static_cast<std::size_t>(hour)]);
    }

    // the window aggregate merges the day slots in day order
    const running_stats total = store.window_aggregate(id);
    double sum = 0.0;
    for (int day = 0; day < 3; ++day) sum += store.daily(id, day)->sum();
    EXPECT_EQ(total.count(), 3u * 288u);
    EXPECT_EQ(bits(total.sum()), bits(sum));
    EXPECT_EQ(bits(total.min()),
              bits(std::min({store.daily(id, 0)->min(), store.daily(id, 1)->min(),
                             store.daily(id, 2)->min()})));
    EXPECT_EQ(bits(total.max()),
              bits(std::max({store.daily(id, 0)->max(), store.daily(id, 1)->max(),
                             store.daily(id, 2)->max()})));
}

TEST(MetricStoreTest, LeanSlotsMergeAndCheckpointExactly) {
    running_stats a, b;
    for (double v : {3.5, -1.25, 8.0}) a.add(v);
    for (double v : {0.125, 9.5}) b.add(v);
    running_stats merged = a;
    merged.merge(b);
    EXPECT_EQ(merged.count(), 5u);
    EXPECT_EQ(bits(merged.sum()), bits(a.sum() + b.sum()));
    EXPECT_EQ(merged.min(), -1.25);
    EXPECT_EQ(merged.max(), 9.5);

    // merge_daily ingests a block into the same slot arithmetic
    metric_store store = make_store();
    const series_id id = store.open_series(metric_names::host_memory_usage,
                                           label_set{{"node", "n"}});
    store.merge_daily(id, 4, a);
    store.merge_daily(id, 4, b);
    EXPECT_EQ(bits(store.daily(id, 4)->sum()), bits(merged.sum()));
    EXPECT_EQ(store.daily(id, 4)->count(), 5u);

    // a checkpointed slot continues every later add bit for bit
    running_stats restored = running_stats::from_exact(merged.exact());
    merged.add(0.1);
    restored.add(0.1);
    EXPECT_EQ(restored.count(), merged.count());
    EXPECT_EQ(bits(restored.sum()), bits(merged.sum()));
    EXPECT_EQ(bits(restored.min()), bits(merged.min()));
    EXPECT_EQ(bits(restored.max()), bits(merged.max()));
}

TEST(MetricStoreTest, RejectsNonPositiveDays) {
    EXPECT_THROW(make_store(store_config{.days = 0}), precondition_error);
}

}  // namespace
}  // namespace sci
