#pragma once

// Dataset export/import in the style of the published Zenodo release
// (Appendix B: "anonymized telemetry data in CSV format").
//
// Layout under the export directory:
//   manifest.csv                     metric catalog (Table 4) + series counts
//   <metric>.daily.csv               per-series per-day aggregates
//   <metric>.raw.csv                 raw samples (only when the store kept them)
//
// Daily files: label columns first (sorted keys of the metric's label
// schema), then day,count,mean,min,max.  Raw files: label columns, then
// t,value.  Host names in our stores are already anonymised at creation
// (infra::anonymised_name), matching the paper's hashing of hostnames.

#include <filesystem>
#include <string>
#include <vector>

#include "infra/event_log.hpp"
#include "telemetry/store.hpp"

namespace sci {

struct dataset_export_options {
    /// Also export raw samples for metrics whose store kept them.
    bool include_raw = true;
};

struct dataset_export_report {
    std::size_t metrics_exported = 0;
    std::size_t series_exported = 0;
    std::size_t daily_rows = 0;
    std::size_t raw_rows = 0;
};

/// Export every metric of the store into `dir` (created if needed).
dataset_export_report export_dataset(const metric_store& store,
                                     const std::filesystem::path& dir,
                                     const dataset_export_options& options = {});

struct manifest_entry {
    std::string metric;
    std::string subsystem;
    std::string resource;
    std::string unit;
    std::string description;
    std::size_t series_count = 0;
};

/// Read back manifest.csv.
std::vector<manifest_entry> read_manifest(const std::filesystem::path& dir);

/// Import raw samples of one metric file into a store (the metric must
/// exist in the store's registry).  Returns the number of samples read.
std::size_t import_raw_metric(metric_store& store,
                              const std::filesystem::path& raw_csv,
                              std::string_view metric);

/// Re-ingest an exported dataset's daily aggregates into a fresh store
/// (the offline-analysis path: analyze a published dataset without
/// re-simulating).  Variance within days is not recoverable from the CSV
/// moments; means/min/max/counts are exact.
metric_store import_dataset(const std::filesystem::path& dir);

/// Export the scheduling-event log (Section 4: "scheduling-relevant
/// events ... such as creation, migration, resize, and deletion") as
/// events.csv: t,kind,vm,bb,from_node,to_node.  Returns rows written.
std::size_t export_events_csv(const event_log& events,
                              const std::filesystem::path& file);

/// Read events.csv back.  Returns events in file order.
std::vector<lifecycle_event> import_events_csv(
    const std::filesystem::path& file);

}  // namespace sci
