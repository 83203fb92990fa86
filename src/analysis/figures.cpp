#include "analysis/figures.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>

#include "simcore/error.hpp"
#include "simcore/units.hpp"

namespace sci {

namespace {

using label_filter = std::vector<std::pair<std::string, std::string>>;

label_filter dc_filter(const fleet& f, dc_id dc) {
    return {{"dc", f.get(dc).name}};
}

}  // namespace

// ---------------------------------------------------------------------------
// heatmaps
// ---------------------------------------------------------------------------

heatmap fig5_free_cpu_per_node(const metric_store& store, const fleet& f,
                               dc_id dc) {
    const label_filter filter = dc_filter(f, dc);
    return build_daily_heatmap(store, metric_names::host_cpu_core_utilization,
                               filter, "node", free_percent_from_util);
}

heatmap fig6_free_cpu_per_bb(const metric_store& store, const fleet& f,
                             dc_id dc) {
    const label_filter filter = dc_filter(f, dc);
    return build_daily_heatmap(store, metric_names::host_cpu_core_utilization,
                               filter, "bb", free_percent_from_util);
}

heatmap fig7_free_cpu_intra_bb(const metric_store& store, const fleet& f,
                               bb_id bb) {
    const label_filter filter = {{"bb", f.get(bb).name}};
    return build_daily_heatmap(store, metric_names::host_cpu_core_utilization,
                               filter, "node", free_percent_from_util);
}

bb_id most_imbalanced_bb(const metric_store& store, const fleet& f, dc_id dc,
                         int min_nodes) {
    // group node CPU series of this DC by building block
    std::map<std::string, std::vector<series_id>> by_bb;
    const label_filter filter = dc_filter(f, dc);
    for (series_id id :
         store.select(metric_names::host_cpu_core_utilization, filter)) {
        const auto bb_name = store.labels_of(id).get("bb");
        if (bb_name.has_value()) by_bb[std::string(*bb_name)].push_back(id);
    }

    std::string best_name;
    double best_spread = -1.0;
    for (const auto& [name, ids] : by_bb) {
        if (static_cast<int>(ids.size()) < min_nodes) continue;
        double lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();
        for (series_id id : ids) {
            const running_stats agg = store.window_aggregate(id);
            if (agg.empty()) continue;
            lo = std::min(lo, agg.mean());
            hi = std::max(hi, agg.mean());
        }
        const double spread = hi - lo;
        if (spread > best_spread) {
            best_spread = spread;
            best_name = name;
        }
    }
    for (const building_block& bb : f.bbs()) {
        if (bb.name == best_name) return bb.id;
    }
    throw not_found_error("most_imbalanced_bb: no eligible building block");
}

heatmap fig10_free_memory_per_node(const metric_store& store, const fleet& f,
                                   dc_id dc) {
    const label_filter filter = dc_filter(f, dc);
    return build_daily_heatmap(store, metric_names::host_memory_usage, filter,
                               "node", free_percent_from_util);
}

namespace {

double free_net_percent(const running_stats& day, const label_set&) {
    return clamp_percent(100.0 * (1.0 - day.mean() / node_nic_capacity_kbps));
}

}  // namespace

heatmap fig11_free_net_tx(const metric_store& store, const fleet& f, dc_id dc) {
    const label_filter filter = dc_filter(f, dc);
    return build_daily_heatmap(store, metric_names::host_network_tx, filter,
                               "node", free_net_percent);
}

heatmap fig12_free_net_rx(const metric_store& store, const fleet& f, dc_id dc) {
    const label_filter filter = dc_filter(f, dc);
    return build_daily_heatmap(store, metric_names::host_network_rx, filter,
                               "node", free_net_percent);
}

heatmap fig13_free_storage(const metric_store& store, const fleet& f, dc_id dc) {
    // storage metric is absolute GiB used; capacity differs per node
    auto capacity_by_node = std::make_shared<std::unordered_map<std::string, double>>();
    for (const compute_node& node : f.nodes()) {
        (*capacity_by_node)[node.name] = f.node_profile(node.id).storage_gib;
    }
    const cell_transform transform = [capacity_by_node](const running_stats& day,
                                                        const label_set& labels) {
        const auto node = labels.get("node");
        if (!node.has_value()) return std::numeric_limits<double>::quiet_NaN();
        const auto it = capacity_by_node->find(std::string(*node));
        if (it == capacity_by_node->end() || it->second <= 0.0) {
            return std::numeric_limits<double>::quiet_NaN();
        }
        return clamp_percent(100.0 * (1.0 - day.mean() / it->second));
    };
    const label_filter filter = dc_filter(f, dc);
    return build_daily_heatmap(store, metric_names::host_diskspace_usage,
                               filter, "node", transform);
}

// ---------------------------------------------------------------------------
// ready time / contention
// ---------------------------------------------------------------------------

std::vector<ready_time_series> fig8_top_ready_nodes(const metric_store& store,
                                                    int top_k) {
    expects(top_k > 0, "fig8_top_ready_nodes: top_k must be positive");
    struct candidate {
        series_id id;
        std::string node;
        double total = 0.0;
    };
    std::vector<candidate> candidates;
    for (series_id id : store.select(metric_names::host_cpu_ready)) {
        const running_stats agg = store.window_aggregate(id);
        if (agg.empty()) continue;
        const auto node = store.labels_of(id).get("node");
        if (!node.has_value()) continue;
        candidates.push_back(candidate{id, std::string(*node), agg.sum()});
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const candidate& a, const candidate& b) {
                         return a.total > b.total;
                     });
    if (candidates.size() > static_cast<std::size_t>(top_k)) {
        candidates.resize(static_cast<std::size_t>(top_k));
    }

    const int hours = store.config().days * 24;
    std::vector<ready_time_series> out;
    out.reserve(candidates.size());
    for (const candidate& c : candidates) {
        ready_time_series series;
        series.node = c.node;
        series.total_ready_ms = c.total;
        series.hourly_ms.reserve(static_cast<std::size_t>(hours));
        for (int h = 0; h < hours; ++h) {
            const running_stats* agg = store.hourly(c.id, h);
            const double v =
                agg == nullptr ? std::numeric_limits<double>::quiet_NaN()
                               : agg->mean();
            series.hourly_ms.push_back(v);
            if (agg != nullptr) {
                series.peak_ready_ms = std::max(series.peak_ready_ms, agg->mean());
            }
        }
        out.push_back(std::move(series));
    }
    return out;
}

std::vector<contention_day> fig9_contention_by_day(const metric_store& store) {
    const std::vector<series_id> series =
        store.select(metric_names::host_cpu_contention);
    std::vector<contention_day> out;
    out.reserve(static_cast<std::size_t>(store.config().days));
    for (int day = 0; day < store.config().days; ++day) {
        std::vector<double> node_means;
        double max_pct = 0.0;
        for (series_id id : series) {
            const running_stats* agg = store.daily(id, day);
            if (agg == nullptr) continue;
            node_means.push_back(agg->mean());
            max_pct = std::max(max_pct, agg->max());
        }
        contention_day row;
        row.day = day;
        if (!node_means.empty()) {
            running_stats s;
            for (double v : node_means) s.add(v);
            row.mean_pct = s.mean();
            row.p95_pct = exact_quantile(node_means, 0.95);
            row.max_pct = max_pct;
        }
        out.push_back(row);
    }
    return out;
}

// ---------------------------------------------------------------------------
// workload composition
// ---------------------------------------------------------------------------

double vm_utilization_cdf::cdf(double x) const {
    return empirical_cdf(sorted_means, x);
}

namespace {

vm_utilization_cdf utilization_cdf_for(const metric_store& store,
                                       std::string_view metric) {
    vm_utilization_cdf out;
    for (series_id id : store.select(metric)) {
        const running_stats agg = store.window_aggregate(id);
        if (agg.empty()) continue;
        out.sorted_means.push_back(agg.mean());
    }
    std::sort(out.sorted_means.begin(), out.sorted_means.end());
    out.classes.vm_count = out.sorted_means.size();
    if (!out.sorted_means.empty()) {
        const double n = static_cast<double>(out.sorted_means.size());
        const double under = out.cdf(0.70);
        const double up_to_optimal = out.cdf(0.85);
        out.classes.under_pct = 100.0 * under;
        out.classes.optimal_pct = 100.0 * (up_to_optimal - under);
        out.classes.over_pct = 100.0 * (1.0 - up_to_optimal);
        (void)n;
    }
    return out;
}

}  // namespace

vm_utilization_cdf fig14a_cpu_utilization(const metric_store& store) {
    return utilization_cdf_for(store, metric_names::vm_cpu_usage_ratio);
}

vm_utilization_cdf fig14b_memory_utilization(const metric_store& store) {
    return utilization_cdf_for(store, metric_names::vm_memory_consumed_ratio);
}

namespace {

/// Average over the window's days of the number of alive VMs that fall
/// into each of four classes, as selected by `class_of` (0..3).
template <class ClassOf>
std::array<double, 4> average_class_counts(const vm_registry& vms,
                                           const ClassOf& class_of) {
    std::array<double, 4> totals{};
    for (int day = 0; day < observation_days; ++day) {
        const sim_time midday = days(day) + hours(12);
        for (const vm_record& rec : vms.all()) {
            if (rec.state == vm_state::error || rec.state == vm_state::pending) {
                continue;
            }
            if (!rec.alive_at(midday)) continue;
            totals[class_of(rec)] += 1.0;
        }
    }
    for (double& t : totals) t /= static_cast<double>(observation_days);
    return totals;
}

}  // namespace

std::vector<size_class_row> table1_vcpu_classes(const vm_registry& vms,
                                                const flavor_catalog& catalog) {
    const auto counts = average_class_counts(vms, [&](const vm_record& rec) {
        return static_cast<std::size_t>(
            catalog.get(rec.flavor).cpu_class());
    });
    return {
        {"Small", "vCPU <= 4", counts[0]},
        {"Medium", "4 < vCPU <= 16", counts[1]},
        {"Large", "16 < vCPU <= 64", counts[2]},
        {"Extra Large", "vCPU > 64", counts[3]},
    };
}

std::vector<size_class_row> table2_ram_classes(const vm_registry& vms,
                                               const flavor_catalog& catalog) {
    const auto counts = average_class_counts(vms, [&](const vm_record& rec) {
        return static_cast<std::size_t>(
            catalog.get(rec.flavor).memory_class());
    });
    return {
        {"Small", "RAM <= 2 GiB", counts[0]},
        {"Medium", "2 < RAM <= 64 GiB", counts[1]},
        {"Large", "64 < RAM <= 128 GiB", counts[2]},
        {"Extra Large", "RAM > 128 GiB", counts[3]},
    };
}

// ---------------------------------------------------------------------------
// lifetimes
// ---------------------------------------------------------------------------

std::vector<lifetime_row> fig15_lifetime_per_flavor(
    const vm_registry& vms, const flavor_catalog& catalog,
    std::size_t min_instances) {
    std::unordered_map<std::int32_t, std::vector<double>> lifetimes_by_flavor;
    for (const vm_record& rec : vms.all()) {
        if (rec.state == vm_state::error || rec.state == vm_state::pending) {
            continue;
        }
        const double lifetime_days =
            static_cast<double>(rec.lifetime(observation_window)) / 86400.0;
        lifetimes_by_flavor[rec.flavor.value()].push_back(lifetime_days);
    }

    std::vector<lifetime_row> rows;
    for (auto& [flavor_value, lifetimes] : lifetimes_by_flavor) {
        if (lifetimes.size() < min_instances) continue;
        const flavor& f = catalog.get(flavor_id(flavor_value));
        std::sort(lifetimes.begin(), lifetimes.end());
        running_stats s;
        for (double v : lifetimes) s.add(v);
        lifetime_row row;
        row.flavor_name = f.name;
        row.vcpus = f.vcpus;
        row.ram_mib = f.ram_mib;
        row.vcpu_class_name = std::string(to_string(f.cpu_class()));
        row.ram_class_name = std::string(to_string(f.memory_class()));
        row.instances = lifetimes.size();
        row.mean_days = s.mean();
        row.median_days = exact_quantile(lifetimes, 0.5);
        row.min_days = s.min();
        row.max_days = s.max();
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(), [](const lifetime_row& a,
                                           const lifetime_row& b) {
        if (a.vcpus != b.vcpus) return a.vcpus < b.vcpus;
        if (a.ram_mib != b.ram_mib) return a.ram_mib < b.ram_mib;
        return a.flavor_name < b.flavor_name;
    });
    return rows;
}

// ---------------------------------------------------------------------------
// imbalance
// ---------------------------------------------------------------------------

imbalance_summary intra_bb_imbalance(const metric_store& store, const fleet& f) {
    (void)f;
    // group node CPU utilization series by building block
    std::map<std::string, std::vector<series_id>> by_bb;
    for (series_id id : store.select(metric_names::host_cpu_core_utilization)) {
        const auto bb = store.labels_of(id).get("bb");
        if (bb.has_value()) by_bb[std::string(*bb)].push_back(id);
    }

    imbalance_summary out;
    running_stats stddevs;
    for (const auto& [name, ids] : by_bb) {
        if (ids.size() < 2) continue;
        for (int day = 0; day < store.config().days; ++day) {
            welford_stats day_utils;
            double lo = std::numeric_limits<double>::infinity();
            double hi = -std::numeric_limits<double>::infinity();
            for (series_id id : ids) {
                const running_stats* agg = store.daily(id, day);
                if (agg == nullptr) continue;
                day_utils.add(agg->mean());
                lo = std::min(lo, agg->mean());
                hi = std::max(hi, agg->mean());
                out.max_node_util_pct = std::max(out.max_node_util_pct, agg->max());
            }
            if (day_utils.count() >= 2) {
                stddevs.add(day_utils.stddev());
                out.max_intra_bb_spread_pct =
                    std::max(out.max_intra_bb_spread_pct, hi - lo);
            }
        }
    }
    out.mean_intra_bb_stddev_pct = stddevs.mean();
    return out;
}

}  // namespace sci
