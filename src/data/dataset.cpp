#include "data/dataset.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <set>

#include "data/csv.hpp"
#include "data/export_detail.hpp"
#include "simcore/error.hpp"

namespace sci {

namespace {

const std::array<std::string, 7> events_csv_header{
    "t", "kind", "vm", "bb", "from_node", "to_node", "reason"};

}  // namespace

namespace detail {

std::vector<std::string> label_schema(const metric_store& store,
                                      const std::vector<series_id>& series) {
    std::set<std::string> keys;
    for (series_id id : series) {
        for (const auto& [k, v] : store.labels_of(id).pairs()) {
            (void)v;
            keys.insert(k);
        }
    }
    return {keys.begin(), keys.end()};
}

std::vector<std::string> label_values(const label_set& labels,
                                      const std::vector<std::string>& schema) {
    std::vector<std::string> out;
    out.reserve(schema.size());
    for (const std::string& key : schema) {
        const auto v = labels.get(key);
        out.emplace_back(v.has_value() ? std::string(*v) : std::string());
    }
    return out;
}

void write_aggregate_files(const metric_store& store,
                           const std::filesystem::path& dir,
                           dataset_export_report& report) {
    std::ofstream manifest_file(dir / "manifest.csv");
    expects(manifest_file.good(), "export_dataset: cannot create manifest.csv");
    csv_writer manifest(manifest_file);
    manifest.write_row({"metric", "subsystem", "resource", "unit",
                        "description", "series_count"});

    for (const metric_def& def : store.registry().all()) {
        const std::vector<series_id> series = store.select(def.name);
        manifest.write_row({def.name, std::string(to_string(def.subsystem)),
                            std::string(to_string(def.resource)),
                            std::string(to_string(def.unit)), def.description,
                            std::to_string(series.size())});
        if (series.empty()) continue;
        ++report.metrics_exported;
        report.series_exported += series.size();

        const std::vector<std::string> schema = label_schema(store, series);
        std::ofstream f(dir / (def.name + ".daily.csv"));
        expects(f.good(), "export_dataset: cannot create daily csv");
        csv_writer w(f);
        std::vector<std::string> header = schema;
        header.insert(header.end(), {"day", "count", "mean", "min", "max"});
        w.write_row(header);
        for (series_id id : series) {
            const std::vector<std::string> labels =
                label_values(store.labels_of(id), schema);
            for (int day = 0; day < store.config().days; ++day) {
                const running_stats* agg = store.daily(id, day);
                if (agg == nullptr) continue;
                std::vector<std::string> row = labels;
                row.push_back(std::to_string(day));
                row.push_back(std::to_string(agg->count()));
                row.push_back(std::to_string(agg->mean()));
                row.push_back(std::to_string(agg->min()));
                row.push_back(std::to_string(agg->max()));
                w.write_row(row);
                ++report.daily_rows;
            }
        }
    }
}

}  // namespace detail

dataset_export_report export_dataset(const metric_store& store,
                                     const std::filesystem::path& dir,
                                     const dataset_export_options& options) {
    std::filesystem::create_directories(dir);
    dataset_export_report report;
    detail::write_aggregate_files(store, dir, report);

    // ---- raw samples (materialized path: everything is still resident) --
    if (options.include_raw && store.config().keep_raw) {
        for (const metric_def& def : store.registry().all()) {
            const std::vector<series_id> series = store.select(def.name);
            if (series.empty()) continue;
            const std::vector<std::string> schema =
                detail::label_schema(store, series);
            std::ofstream f(dir / (def.name + ".raw.csv"));
            expects(f.good(), "export_dataset: cannot create raw csv");
            csv_writer w(f);
            std::vector<std::string> header = schema;
            header.insert(header.end(), {"t", "value"});
            w.write_row(header);
            for (series_id id : series) {
                const std::vector<std::string> labels =
                    detail::label_values(store.labels_of(id), schema);
                for (const sample& s : store.raw(id)) {
                    std::vector<std::string> row = labels;
                    row.push_back(std::to_string(s.t));
                    row.push_back(std::to_string(s.value));
                    w.write_row(row);
                    ++report.raw_rows;
                }
            }
        }
    }
    return report;
}

std::vector<manifest_entry> read_manifest(const std::filesystem::path& dir) {
    const std::filesystem::path file = dir / "manifest.csv";
    std::ifstream f(file);
    if (!f.good()) {
        throw not_found_error("read_manifest: missing " + file.string());
    }
    csv_reader reader(f, "read_manifest: " + file.string());
    std::vector<std::string> fields;
    expects(reader.next_row(fields) && fields.size() >= 6,
            "read_manifest: malformed header");
    std::vector<manifest_entry> out;
    while (reader.next_row(fields)) {
        expects(fields.size() >= 6, "read_manifest: malformed row");
        manifest_entry e;
        e.metric = fields[0];
        e.subsystem = fields[1];
        e.resource = fields[2];
        e.unit = fields[3];
        e.description = fields[4];
        e.series_count = reader.number<std::size_t>(fields[5]);
        out.push_back(std::move(e));
    }
    return out;
}

metric_store import_dataset(const std::filesystem::path& dir) {
    metric_store store(metric_registry::standard_catalog());
    for (const manifest_entry& entry : read_manifest(dir)) {
        if (entry.series_count == 0) continue;
        const auto daily_file = dir / (entry.metric + ".daily.csv");
        std::ifstream f(daily_file);
        if (!f.good()) {
            throw not_found_error("import_dataset: missing " +
                                  daily_file.string());
        }
        csv_reader reader(f, "import_dataset: " + daily_file.string());
        std::vector<std::string> header;
        expects(reader.next_row(header) && header.size() >= 5,
                "import_dataset: malformed daily header");
        // trailing columns are day,count,mean,min,max; the rest are labels
        const std::size_t label_count = header.size() - 5;
        std::vector<std::string> fields;
        while (reader.next_row(fields)) {
            expects(fields.size() == header.size(),
                    "import_dataset: row width mismatch");
            label_set labels;
            for (std::size_t i = 0; i < label_count; ++i) {
                if (!fields[i].empty()) labels.set(header[i], fields[i]);
            }
            const series_id id = store.open_series(entry.metric, std::move(labels));
            const std::string* const day = &fields[label_count];
            store.merge_daily(
                id, reader.number<int>(day[0]),
                running_stats::from_moments(reader.number<std::uint64_t>(day[1]),
                                            reader.number<double>(day[2]),
                                            reader.number<double>(day[3]),
                                            reader.number<double>(day[4])));
        }
    }
    return store;
}

std::size_t export_events_csv(const event_log& events,
                              const std::filesystem::path& file) {
    std::ofstream f(file);
    expects(f.good(), "export_events_csv: cannot create file");
    csv_writer w(f);
    w.write_row(events_csv_header);
    for (const lifecycle_event& e : events.all()) {
        w.write_row({std::to_string(e.t), std::string(to_string(e.kind)),
                     std::to_string(e.vm.value()), std::to_string(e.bb.value()),
                     std::to_string(e.from.value()),
                     std::to_string(e.to.value()),
                     std::string(to_string(e.reason))});
    }
    return events.size();
}

std::vector<lifecycle_event> import_events_csv(
    const std::filesystem::path& file) {
    std::ifstream f(file);
    if (!f.good()) throw not_found_error("import_events_csv: file missing");
    csv_reader reader(f, "import_events_csv: " + file.string());
    std::vector<std::string> fields;
    if (!reader.next_row(fields) ||
        !std::ranges::equal(fields, events_csv_header)) {
        throw error("import_events_csv: " + file.string() +
                    ": expected the header t,kind,vm,bb,from_node,to_node,"
                    "reason");
    }
    std::vector<lifecycle_event> out;
    const auto kind_of = [](const std::string& s) {
        for (auto k : {lifecycle_event_kind::create,
                       lifecycle_event_kind::schedule_fail,
                       lifecycle_event_kind::migrate,
                       lifecycle_event_kind::evacuate,
                       lifecycle_event_kind::resize,
                       lifecycle_event_kind::remove,
                       lifecycle_event_kind::crash,
                       lifecycle_event_kind::ha_restart,
                       lifecycle_event_kind::shed}) {
            if (s == to_string(k)) return k;
        }
        throw error("import_events_csv: unknown event kind '" + s + "'");
    };
    while (reader.next_row(fields)) {
        expects(fields.size() == events_csv_header.size(),
                "import_events_csv: malformed row");
        lifecycle_event e;
        e.t = reader.number<sim_time>(fields[0]);
        e.kind = kind_of(fields[1]);
        e.vm = vm_id(reader.number<std::int32_t>(fields[2]));
        e.bb = bb_id(reader.number<std::int32_t>(fields[3]));
        e.from = node_id(reader.number<std::int32_t>(fields[4]));
        e.to = node_id(reader.number<std::int32_t>(fields[5]));
        const auto reason = schedule_fail_reason_from(fields[6]);
        if (!reason.has_value()) {
            throw error("import_events_csv: unknown reason '" + fields[6] +
                        "'");
        }
        e.reason = *reason;
        out.push_back(e);
    }
    return out;
}

std::size_t import_raw_metric(metric_store& store,
                              const std::filesystem::path& raw_csv,
                              std::string_view metric) {
    std::ifstream f(raw_csv);
    if (!f.good()) throw not_found_error("import_raw_metric: file missing");
    csv_reader reader(f, "import_raw_metric: " + raw_csv.string());
    std::vector<std::string> header;
    expects(reader.next_row(header) && header.size() >= 2,
            "import_raw_metric: malformed header");
    expects(header[header.size() - 2] == "t" && header.back() == "value",
            "import_raw_metric: expected trailing t,value columns");
    const std::size_t label_count = header.size() - 2;

    std::size_t imported = 0;
    std::vector<std::string> fields;
    while (reader.next_row(fields)) {
        expects(fields.size() == header.size(),
                "import_raw_metric: row width mismatch");
        label_set labels;
        for (std::size_t i = 0; i < label_count; ++i) {
            if (!fields[i].empty()) labels.set(header[i], fields[i]);
        }
        const series_id id = store.open_series(metric, std::move(labels));
        store.append(id, reader.number<sim_time>(fields[label_count]),
                     reader.number<double>(fields[label_count + 1]));
        ++imported;
    }
    return imported;
}

}  // namespace sci
