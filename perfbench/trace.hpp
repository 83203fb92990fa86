#pragma once

// In-memory span recorder for the traced run.
//
// A span is one call into a layer, timed from the benchmark's side of the
// boundary: name, start, end and the span that was open when it began.
// Spans stay in memory while the workload runs and are written out once,
// at the end, so recording costs a clock read and a vector push.  A
// disabled recorder records nothing and hands out inert scopes.
//
// Self time is a span's duration minus the part of it its children cover
// (the union of the child intervals, clipped to the parent), so
// overlapping or overhanging children are never subtracted twice.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using clock_type = std::chrono::steady_clock;

/// Nanoseconds since the recorder's epoch.
using ns_t = std::int64_t;

struct span {
    std::string name;
    ns_t start = 0;
    ns_t end = 0;
    int parent = -1;  ///< index into the recorder's spans, -1 = root
};

/// Self time of every span (same indexing as `spans`).
std::vector<ns_t> self_times(const std::vector<span>& spans);

class span_recorder {
public:
    explicit span_recorder(bool enabled);

    bool enabled() const { return enabled_; }
    ns_t now() const;

    /// Open a span under the innermost open one; returns its index (-1
    /// when disabled).
    int open(std::string name);
    void close(int index);
    /// Record an already-finished span under the innermost open one.
    void add(std::string name, ns_t start, ns_t end);

    /// RAII: open on construction, close on destruction.
    class scope {
    public:
        scope(span_recorder& recorder, std::string name)
            : recorder_(recorder), index_(recorder.open(std::move(name))) {}
        ~scope() { recorder_.close(index_); }
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        span_recorder& recorder_;
        int index_;
    };

    const std::vector<span>& spans() const { return spans_; }

    /// Self time summed per span name, in seconds.
    std::map<std::string, double> self_seconds_by_name() const;

    /// Write {"meta": {...}, "spans": [...]} (meta values are strings).
    void write_json(const std::filesystem::path& file,
                    const std::map<std::string, std::string>& meta) const;

private:
    bool enabled_;
    clock_type::time_point epoch_;
    std::vector<span> spans_;
    std::vector<int> open_;  ///< stack of open span indexes
};

}  // namespace perfbench
