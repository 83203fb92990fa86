// Tests for data/dataset: Zenodo-style CSV export/import of the telemetry
// store, including a raw round-trip that must reproduce identical daily
// aggregates.

#include "data/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "simcore/error.hpp"

namespace sci {
namespace {

class DatasetTest : public testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("sci_dataset_test_" + std::to_string(::getpid()) + "_" +
                testing::UnitTest::GetInstance()->current_test_info()->name());
        std::filesystem::remove_all(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    static metric_store make_populated_store(bool keep_raw) {
        metric_store store(metric_registry::standard_catalog(),
                           store_config{.keep_raw = keep_raw});
        const series_id cpu = store.open_series(
            metric_names::host_cpu_core_utilization,
            label_set{{"node", "n1"}, {"bb", "bb-0"}, {"dc", "dc-a"}});
        const series_id mem = store.open_series(
            metric_names::host_memory_usage,
            label_set{{"node", "n1"}, {"bb", "bb-0"}, {"dc", "dc-a"}});
        for (int i = 0; i < 500; ++i) {
            store.append(cpu, i * 300, 30.0 + (i % 13));
            store.append(mem, i * 300, 60.0 + (i % 7));
        }
        return store;
    }

    std::filesystem::path dir_;
};

TEST_F(DatasetTest, ExportCreatesManifestAndDailyFiles) {
    const metric_store store = make_populated_store(false);
    const dataset_export_report report = export_dataset(store, dir_);
    EXPECT_EQ(report.metrics_exported, 2u);
    EXPECT_EQ(report.series_exported, 2u);
    EXPECT_GT(report.daily_rows, 0u);
    EXPECT_EQ(report.raw_rows, 0u);

    EXPECT_TRUE(std::filesystem::exists(dir_ / "manifest.csv"));
    EXPECT_TRUE(std::filesystem::exists(
        dir_ / (std::string(metric_names::host_cpu_core_utilization) +
                ".daily.csv")));
    EXPECT_FALSE(std::filesystem::exists(
        dir_ /
        (std::string(metric_names::host_cpu_core_utilization) + ".raw.csv")));
}

TEST_F(DatasetTest, ManifestListsWholeCatalog) {
    const metric_store store = make_populated_store(false);
    export_dataset(store, dir_);
    const auto manifest = read_manifest(dir_);
    EXPECT_EQ(manifest.size(), store.registry().size());
    std::size_t with_series = 0;
    for (const manifest_entry& e : manifest) {
        if (e.series_count > 0) ++with_series;
    }
    EXPECT_EQ(with_series, 2u);
}

TEST_F(DatasetTest, DailyFileContainsLabelColumnsAndAggregates) {
    const metric_store store = make_populated_store(false);
    export_dataset(store, dir_);
    std::ifstream f(dir_ /
                    (std::string(metric_names::host_memory_usage) + ".daily.csv"));
    std::string header;
    std::getline(f, header);
    EXPECT_EQ(header, "bb,dc,node,day,count,mean,min,max");
    std::string row;
    std::getline(f, row);
    EXPECT_TRUE(row.starts_with("bb-0,dc-a,n1,0,"));
}

TEST_F(DatasetTest, RawExportImportRoundTrip) {
    const metric_store original = make_populated_store(true);
    export_dataset(original, dir_);

    metric_store imported(metric_registry::standard_catalog());
    const auto raw_file =
        dir_ /
        (std::string(metric_names::host_cpu_core_utilization) + ".raw.csv");
    ASSERT_TRUE(std::filesystem::exists(raw_file));
    const std::size_t count = import_raw_metric(
        imported, raw_file, metric_names::host_cpu_core_utilization);
    EXPECT_EQ(count, 500u);

    // the re-ingested store must reproduce identical daily aggregates
    const auto orig_series =
        original.select(metric_names::host_cpu_core_utilization);
    const auto new_series =
        imported.select(metric_names::host_cpu_core_utilization);
    ASSERT_EQ(orig_series.size(), 1u);
    ASSERT_EQ(new_series.size(), 1u);
    EXPECT_EQ(original.labels_of(orig_series[0]),
              imported.labels_of(new_series[0]));
    for (int day = 0; day < observation_days; ++day) {
        const running_stats* a = original.daily(orig_series[0], day);
        const running_stats* b = imported.daily(new_series[0], day);
        ASSERT_EQ(a == nullptr, b == nullptr) << "day " << day;
        if (a == nullptr) continue;
        EXPECT_EQ(a->count(), b->count());
        EXPECT_NEAR(a->mean(), b->mean(), 1e-6);
        EXPECT_NEAR(a->min(), b->min(), 1e-6);
        EXPECT_NEAR(a->max(), b->max(), 1e-6);
    }
}

TEST_F(DatasetTest, RawExportCanBeDisabled) {
    const metric_store store = make_populated_store(true);
    dataset_export_options options;
    options.include_raw = false;
    const auto report = export_dataset(store, dir_, options);
    EXPECT_EQ(report.raw_rows, 0u);
    EXPECT_FALSE(std::filesystem::exists(
        dir_ /
        (std::string(metric_names::host_cpu_core_utilization) + ".raw.csv")));
}

TEST_F(DatasetTest, ReadManifestMissingThrows) {
    EXPECT_THROW(read_manifest(dir_ / "nope"), not_found_error);
}

TEST_F(DatasetTest, ImportMissingFileThrows) {
    metric_store store(metric_registry::standard_catalog());
    EXPECT_THROW(import_raw_metric(store, dir_ / "missing.csv",
                                   metric_names::host_cpu_core_utilization),
                 not_found_error);
}

TEST_F(DatasetTest, ImportDatasetReproducesDailyAggregates) {
    const metric_store original = make_populated_store(false);
    export_dataset(original, dir_);

    const metric_store imported = import_dataset(dir_);
    EXPECT_EQ(imported.series_count(), original.series_count());
    for (std::string_view metric :
         {metric_names::host_cpu_core_utilization,
          metric_names::host_memory_usage}) {
        const auto orig_series = original.select(metric);
        const auto new_series = imported.select(metric);
        ASSERT_EQ(orig_series.size(), new_series.size());
        for (std::size_t i = 0; i < orig_series.size(); ++i) {
            EXPECT_EQ(original.labels_of(orig_series[i]),
                      imported.labels_of(new_series[i]));
            for (int day = 0; day < observation_days; ++day) {
                const running_stats* a = original.daily(orig_series[i], day);
                const running_stats* b = imported.daily(new_series[i], day);
                ASSERT_EQ(a == nullptr, b == nullptr);
                if (a == nullptr) continue;
                EXPECT_EQ(a->count(), b->count());
                EXPECT_NEAR(a->mean(), b->mean(), 1e-5);
                EXPECT_NEAR(a->min(), b->min(), 1e-5);
                EXPECT_NEAR(a->max(), b->max(), 1e-5);
            }
        }
    }
}

TEST_F(DatasetTest, ImportDatasetMissingDirThrows) {
    EXPECT_THROW(import_dataset(dir_ / "nope"), not_found_error);
}

template <typename T>
concept has_variance = requires(const T& s) { s.variance(); };

TEST(FromMomentsTest, ReconstructsMoments) {
    const running_stats s = running_stats::from_moments(4, 2.5, 1.0, 4.0);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    // exported aggregates carry no spread: variance lives on the Welford
    // accumulator only, never on the count/sum/min/max slot type
    static_assert(!has_variance<running_stats>);
    static_assert(has_variance<welford_stats>);
    EXPECT_TRUE(running_stats::from_moments(0, 0, 0, 0).empty());
    EXPECT_THROW(running_stats::from_moments(2, 1.0, 5.0, 1.0),
                 precondition_error);
}

TEST(MergeDailyTest, IngestsAggregatesLikeThanosBlocks) {
    metric_store store(metric_registry::standard_catalog());
    const series_id id = store.open_series(metric_names::host_memory_usage,
                                           label_set{{"node", "n"}});
    store.merge_daily(id, 3, running_stats::from_moments(10, 50.0, 40.0, 60.0));
    store.merge_daily(id, 3, running_stats::from_moments(10, 70.0, 65.0, 80.0));
    const running_stats* agg = store.daily(id, 3);
    ASSERT_NE(agg, nullptr);
    EXPECT_EQ(agg->count(), 20u);
    EXPECT_DOUBLE_EQ(agg->mean(), 60.0);
    EXPECT_DOUBLE_EQ(agg->min(), 40.0);
    EXPECT_DOUBLE_EQ(agg->max(), 80.0);
    EXPECT_THROW(store.merge_daily(id, observation_days, {}), precondition_error);
}

TEST_F(DatasetTest, EventsCsvRoundTrip) {
    std::filesystem::create_directories(dir_);
    event_log events;
    events.record(lifecycle_event{.t = -100,
                                  .kind = lifecycle_event_kind::create,
                                  .vm = vm_id(1),
                                  .bb = bb_id(2),
                                  .to = node_id(3)});
    events.record(lifecycle_event{.t = 500,
                                  .kind = lifecycle_event_kind::migrate,
                                  .vm = vm_id(1),
                                  .bb = bb_id(2),
                                  .from = node_id(3),
                                  .to = node_id(4)});
    events.record(lifecycle_event{.t = 900,
                                  .kind = lifecycle_event_kind::remove,
                                  .vm = vm_id(1),
                                  .bb = bb_id(2),
                                  .from = node_id(4)});
    const auto file = dir_ / "events.csv";
    EXPECT_EQ(export_events_csv(events, file), 3u);

    const auto imported = import_events_csv(file);
    ASSERT_EQ(imported.size(), 3u);
    EXPECT_EQ(imported[0].t, -100);
    EXPECT_EQ(imported[0].kind, lifecycle_event_kind::create);
    EXPECT_EQ(imported[1].kind, lifecycle_event_kind::migrate);
    EXPECT_EQ(imported[1].from, node_id(3));
    EXPECT_EQ(imported[1].to, node_id(4));
    EXPECT_EQ(imported[2].kind, lifecycle_event_kind::remove);
    EXPECT_EQ(imported[2].vm, vm_id(1));
}

TEST_F(DatasetTest, ImportEventsMissingFileThrows) {
    EXPECT_THROW(import_events_csv(dir_ / "nope.csv"), not_found_error);
}

TEST_F(DatasetTest, ImportUnknownMetricThrows) {
    const metric_store original = make_populated_store(true);
    export_dataset(original, dir_);
    metric_store store(metric_registry::standard_catalog());
    EXPECT_THROW(
        import_raw_metric(store,
                          dir_ / (std::string(
                                      metric_names::host_cpu_core_utilization) +
                                  ".raw.csv"),
                          "not_a_metric"),
        not_found_error);
}


/// Replace one cell of a CSV file (`row` counts lines from 0 = header).
void rewrite_cell(const std::filesystem::path& file, std::size_t row,
                  std::size_t column, const std::string& text) {
    std::vector<std::string> lines;
    {
        std::ifstream in(file);
        for (std::string line; std::getline(in, line);) lines.push_back(line);
    }
    ASSERT_LT(row, lines.size());
    std::vector<std::string> cells(1);
    for (const char c : lines[row]) {
        if (c == ',') cells.emplace_back();
        else cells.back() += c;
    }
    ASSERT_LT(column, cells.size());
    cells[column] = text;
    lines[row].clear();
    for (std::size_t c = 0; c < cells.size(); ++c) {
        lines[row] += (c == 0 ? "" : ",") + cells[c];
    }
    std::ofstream out(file, std::ios::trunc);
    for (const std::string& line : lines) out << line << "\n";
}

std::size_t column_count(const std::filesystem::path& file) {
    std::ifstream in(file);
    std::string header;
    std::getline(in, header);
    return static_cast<std::size_t>(
               std::count(header.begin(), header.end(), ',')) +
           1;
}

/// `call` throws a sci::error whose message names `file`, `row` and the
/// malformed text.
template <typename Call>
void expect_error_naming(Call call, const std::filesystem::path& file,
                         const std::string& row, const std::string& bad) {
    try {
        call();
        ADD_FAILURE() << "no error for '" << bad << "'";
    } catch (const error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(file.string()), std::string::npos) << what;
        EXPECT_NE(what.find(row), std::string::npos) << what;
        EXPECT_NE(what.find("got '" + bad + "'"), std::string::npos) << what;
    }
}

void write_two_events(const std::filesystem::path& file) {
    lifecycle_event e;
    e.vm = vm_id(1);
    e.bb = bb_id(2);
    event_log events;
    e.t = 5;
    e.kind = lifecycle_event_kind::create;
    e.to = node_id(3);
    events.record(e);
    e.t = 9;
    e.kind = lifecycle_event_kind::remove;
    e.from = node_id(3);
    e.to = node_id();
    events.record(e);
    export_events_csv(events, file);
}

TEST_F(DatasetTest, ImportEventsRejectsMalformedNumbersWithFileAndRow) {
    std::filesystem::create_directories(dir_);
    const auto file = dir_ / "events.csv";
    write_two_events(file);
    rewrite_cell(file, 2, 2, "1x");  // vm of the second event
    expect_error_naming([&] { import_events_csv(file); }, file, "row 3",
                        "1x");
    write_two_events(file);
    rewrite_cell(file, 1, 0, "");  // empty time
    expect_error_naming([&] { import_events_csv(file); }, file, "row 2", "");
}

TEST_F(DatasetTest, ImportEventsRequiresTheSevenColumnHeader) {
    std::filesystem::create_directories(dir_);
    const auto file = dir_ / "events.csv";
    {
        // the pre-reason 6-column layout
        std::ofstream out(file);
        out << "t,kind,vm,bb,from_node,to_node\n5,create,1,2,-1,3\n";
    }
    EXPECT_THROW(import_events_csv(file), error);
    write_two_events(file);
    rewrite_cell(file, 0, 4, "from");
    EXPECT_THROW(import_events_csv(file), error);
}

TEST_F(DatasetTest, ImportRawMetricRejectsMalformedValueWithFileAndRow) {
    export_dataset(make_populated_store(true), dir_);
    const auto raw_file =
        dir_ /
        (std::string(metric_names::host_cpu_core_utilization) + ".raw.csv");
    // trailing columns are t,value
    rewrite_cell(raw_file, 4, column_count(raw_file) - 1, "3O.5");
    metric_store store(metric_registry::standard_catalog());
    expect_error_naming(
        [&] {
            import_raw_metric(store, raw_file,
                              metric_names::host_cpu_core_utilization);
        },
        raw_file, "row 5", "3O.5");
}

TEST_F(DatasetTest, ImportDatasetRejectsMalformedDailyCellWithFileAndRow) {
    export_dataset(make_populated_store(false), dir_);
    const auto daily_file =
        dir_ /
        (std::string(metric_names::host_memory_usage) + ".daily.csv");
    // trailing columns are day,count,mean,min,max; corrupt the count
    rewrite_cell(daily_file, 1, column_count(daily_file) - 4, "-");
    expect_error_naming([&] { import_dataset(dir_); }, daily_file, "row 2",
                        "-");
}

}  // namespace
}  // namespace sci
