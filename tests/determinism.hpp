#pragma once

// Shared checks of the thread-count identity tests: run_stats field by
// field (driven by run_stats::for_each_field, so every deterministic
// counter is compared and a mismatch names its field; host timings are
// skipped), VM placements, and content hashes of reports and exports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "data/dataset.hpp"

namespace sci {

inline void expect_stats_equal(const run_stats& a, const run_stats& b) {
    run_stats::for_each_field([&](const char* name, auto field, auto kind) {
        if (kind == run_stats::field_kind::host_timing) return;
        EXPECT_EQ(a.*field, b.*field) << "run_stats::" << name;  // bitwise
    });
}

/// The serial-reference assertion: a pool run compared VM by VM against
/// the SCI_THREADS=0 run.
inline void expect_placements_equal(const sim_engine& serial,
                                    const sim_engine& pool) {
    const auto a = serial.vms().all();
    const auto b = pool.vms().all();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].state, b[i].state) << "vm " << i;
        ASSERT_EQ(a[i].placed_bb, b[i].placed_bb) << "vm " << i;
        ASSERT_EQ(a[i].placed_node, b[i].placed_node) << "vm " << i;
        ASSERT_EQ(a[i].migration_count, b[i].migration_count) << "vm " << i;
    }
}

inline std::uint64_t fnv1a(std::uint64_t h, const void* data,
                           std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

inline std::uint64_t hash_string(const std::string& s) {
    return fnv1a(1469598103934665603ull, s.data(), s.size());
}

/// Export dataset + events CSV and hash every produced file, in sorted
/// filename order, content and name both.
inline std::uint64_t hash_dataset_export(const sim_engine& engine,
                                         const std::filesystem::path& dir) {
    std::filesystem::remove_all(dir);
    export_dataset(engine.store(), dir);
    export_events_csv(engine.events(), dir / "events.csv");
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    std::uint64_t h = 1469598103934665603ull;
    for (const std::filesystem::path& file : files) {
        const std::string name = file.filename().string();
        h = fnv1a(h, name.data(), name.size());
        std::ifstream in(file, std::ios::binary);
        std::ostringstream body;
        body << in.rdbuf();
        const std::string s = body.str();
        h = fnv1a(h, s.data(), s.size());
    }
    std::filesystem::remove_all(dir);
    return h;
}

}  // namespace sci
