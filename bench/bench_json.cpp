#include "bench_json.hpp"

#include <algorithm>
#include <cstdio>

namespace sci::benchutil {

namespace {

/// Overwrite-or-append one entry, keyed by name.  Overwriting in place
/// keeps the file ordering stable, so re-running a bench binary produces
/// a byte-identical summary instead of a reshuffled one.
void upsert(std::vector<bench_entry>& entries, const bench_entry& fresh) {
    const auto it = std::find_if(
        entries.begin(), entries.end(),
        [&](const bench_entry& e) { return e.name == fresh.name; });
    if (it != entries.end()) {
        *it = fresh;
    } else {
        entries.push_back(fresh);
    }
}

}  // namespace

std::vector<bench_entry> parse_bench_json(std::string_view text) {
    std::vector<bench_entry> entries;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string_view::npos) eol = text.size();
        const std::string line(text.substr(pos, eol - pos));
        pos = eol + 1;
        char name[256];
        bench_entry e;
        const int got_fields = std::sscanf(
            line.c_str(),
            " {\"name\": \"%255[^\"]\", \"wall_ms\": %lf, "
            "\"samples_per_s\": %lf, \"peak_rss_mib\": %lf",
            name, &e.wall_ms, &e.samples_per_s, &e.peak_rss_mib);
        // 3 fields = a pre-RSS writer's line; keep peak_rss_mib at 0
        if (got_fields >= 3) {
            e.name = name;
            // host metadata is optional: older lines carry none
            if (const auto at = line.find("\"nproc\": "); at != std::string::npos) {
                std::sscanf(line.c_str() + at, "\"nproc\": %u", &e.nproc);
            }
            if (const auto at = line.find("\"build\": \""); at != std::string::npos) {
                char build[64];
                if (std::sscanf(line.c_str() + at, "\"build\": \"%63[^\"]\"",
                                build) == 1) {
                    e.build_type = build;
                }
            }
            upsert(entries, e);  // duplicate keys collapse, last wins
        }
    }
    return entries;
}

void merge_bench_entries(std::vector<bench_entry>& existing,
                         const std::vector<bench_entry>& fresh) {
    for (const bench_entry& e : fresh) upsert(existing, e);
}

std::string render_bench_json(const std::vector<bench_entry>& entries) {
    std::string out = "{\n  \"benchmarks\": [\n";
    char line[512];
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const bench_entry& e = entries[i];
        std::snprintf(line, sizeof line,
                      "    {\"name\": \"%s\", \"wall_ms\": %.3f, "
                      "\"samples_per_s\": %.0f, \"peak_rss_mib\": %.1f",
                      e.name.c_str(), e.wall_ms, e.samples_per_s,
                      e.peak_rss_mib);
        out += line;
        if (e.nproc > 0) {
            std::snprintf(line, sizeof line,
                          ", \"nproc\": %u, \"build\": \"%s\"", e.nproc,
                          e.build_type.c_str());
            out += line;
        }
        out += i + 1 < entries.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    return out;
}

double process_peak_rss_mib() {
    std::FILE* status = std::fopen("/proc/self/status", "r");
    if (status == nullptr) return 0.0;
    double kib = 0.0;
    char line[256];
    while (std::fgets(line, sizeof line, status) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(status);
    return kib / 1024.0;
}

}  // namespace sci::benchutil
