#include "layers.hpp"

#include <algorithm>
#include <barrier>
#include <fstream>
#include <malloc.h>
#include <string>
#include <thread>

#include "analysis/figures.hpp"
#include "data/dataset.hpp"
#include "harness/scenario_dsl.hpp"
#include "hypervisor/node_runtime.hpp"
#include "simcore/rng.hpp"
#include "simcore/thread_pool.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

double seconds_since(clock_type::time_point begin) {
    return std::chrono::duration<double>(clock_type::now() - begin).count();
}

/// Simulated days of the window workloads.
constexpr int window_days = 10;

// The engine's default physics (fault-free), scale 0.1.
constexpr const char* steady_text = R"([scenario]
name = steady_window
[engine]
scale = 0.1
[invariants]
admission_accounting = true
no_silent_drops = true
conservation = true
)";

// scenarios/retry_storm.scn's physics at scale 0.1, without its 6-hourly
// cross-BB pass: with it the engine aborts on about half of all seeds at
// this scale (sim_engine::cross_bb_pass lets the capacity_error of a
// planned move into a building block that earlier moves of the same pass
// filled escape from placement_service::move).  Add the pass back once
// the engine survives it.
constexpr const char* storm_text = R"([scenario]
name = storm_window
[engine]
scale = 0.1
daily_churn_fraction = 0.08
gp_cpu_allocation_ratio = 1.0
[fault]
crash_rate_per_day = 0.25
claim_failure_probability = 0.35
migration_abort_probability = 0.20
ha_max_restart_attempts = 1
crash_repair_time = 14400
[backpressure]
mode = queue
queue_capacity = 64
queue_deadline = 7200
[invariants]
admission_accounting = true
no_silent_drops = true
conservation = true
no_blackhole = true
backpressure_stability = true
)";

// The paper's full region, set up only.
constexpr const char* region_text = R"([scenario]
name = region_setup
[engine]
scale = 1.0
[invariants]
admission_accounting = true
no_silent_drops = true
conservation = true
)";

}  // namespace

std::optional<workload> parse_workload(std::string_view name) {
    for (const workload w : {workload::steady_window, workload::storm_window,
                             workload::region_setup}) {
        if (name == to_string(w)) return w;
    }
    return std::nullopt;
}

const char* to_string(workload w) {
    switch (w) {
        case workload::steady_window: return "steady_window";
        case workload::storm_window: return "storm_window";
        case workload::region_setup: return "region_setup";
    }
    return "?";
}

workload_spec make_workload(workload w, std::uint64_t seed, unsigned nproc) {
    std::string text = w == workload::steady_window  ? steady_text
                       : w == workload::storm_window ? storm_text
                                                     : region_text;
    const std::string engine_header = "[engine]\n";
    text.insert(text.find(engine_header) + engine_header.size(),
                "seed = " + std::to_string(seed) + "\n");
    const sci::harness::scenario_spec parsed =
        sci::harness::parse_scenario(text);

    workload_spec spec;
    spec.kind = w;
    spec.seed = seed;
    spec.config = parsed.config;
    spec.checks = parsed.invariants;
    // storm_window runs its reference window on the pool and its timed
    // windows serially: on a shared 4-vCPU host one pooled 30-day window
    // took anywhere from 5.3 to 20.5 s (3 workers; 4 workers + the caller
    // measured 10.4-18.7 s), a serial one 9.4-11.1 s.
    spec.workers = w == workload::storm_window
                       ? std::clamp(nproc > 1 ? nproc - 1 : 1u, 1u, 3u)
                       : 0u;
    spec.config.threads = 0;
    // A third of the paper's 30-day window, so that a run holds about ten
    // timed windows rather than three: on a shared host one window's time
    // swings by a quarter from one window to the next, and the median of
    // ten steadies the run (10 vs 30 days, six seeds each, interleaved:
    // run_cpu_s spread 0.075 vs 0.180 on storm_window).
    spec.days = w == workload::region_setup ? 0 : window_days;
    switch (w) {
        case workload::steady_window:
            // the second window is the first one checked (against the first)
            spec.min_iterations = 2;
            spec.extra_setups = 1;
            spec.snapshot_reps = 3;
            spec.whatif_batches = 2000;
            break;
        case workload::storm_window:
            spec.extra_setups = 1;
            spec.snapshot_reps = 3;
            spec.whatif_batches = 2000;
            break;
        case workload::region_setup:
            // every iteration sets up 48k VMs: ~1 s per setup and per
            // round trip, ~1.5 ms per batch
            spec.min_iterations = 3;
            spec.snapshot_reps = 2;
            spec.whatif_batches = 1000;
            break;
    }
    return spec;
}

std::vector<whatif_batch> make_whatif_batches(const sci::scenario& region,
                                              std::uint64_t seed,
                                              std::size_t count,
                                              std::size_t size) {
    sci::rng_stream rng(seed, "perfbench.whatif");
    std::vector<whatif_batch> batches(count);
    for (whatif_batch& batch : batches) {
        batch.reserve(size);
        for (std::size_t i = 0; i < size; ++i) {
            const sci::flavor_id id = region.mix.sample(rng);
            const bool general = region.catalog.get(id).wclass ==
                                 sci::workload_class::general_purpose;
            batch.push_back({id, general ? sci::placement_policy::spread
                                         : sci::placement_policy::pack});
        }
    }
    return batches;
}

closed_loop_result run_closed_loop(const sci::snapshot::whatif_planner& planner,
                                   const std::vector<whatif_batch>& batches,
                                   unsigned clients) {
    closed_loop_result out;
    out.latency_ms.resize(batches.size());
    out.results.resize(batches.size());
    std::barrier start(static_cast<std::ptrdiff_t>(clients) + 1);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            start.arrive_and_wait();
            for (std::size_t b = c; b < batches.size(); b += clients) {
                const auto begin = clock_type::now();
                out.results[b] = planner.plan(batches[b]);
                out.latency_ms[b] = seconds_since(begin) * 1e3;
            }
        });
    }
    const auto begin = clock_type::now();
    start.arrive_and_wait();
    for (std::thread& t : threads) t.join();
    out.wall_s = seconds_since(begin);
    return out;
}

roundtrip_result snapshot_roundtrip(sci::sim_engine& engine,
                                    span_recorder& trace) {
    namespace snap = sci::snapshot;
    roundtrip_result out;
    span_recorder::scope whole(trace, "snapshot.roundtrip");
    auto begin = clock_type::now();
    std::vector<std::byte> bytes;
    {
        span_recorder::scope s(trace, "snapshot.capture");
        snap::engine_state state = snap::capture(engine);
        out.capture_s = seconds_since(begin);
        span_recorder::scope s2(trace, "snapshot.serialize");
        begin = clock_type::now();
        bytes = snap::serialize(state);
        out.serialize_s = seconds_since(begin);
    }
    out.bytes = bytes.size();
    begin = clock_type::now();
    snap::engine_state loaded = [&] {
        span_recorder::scope s(trace, "snapshot.deserialize");
        return snap::deserialize(bytes);
    }();
    out.deserialize_s = seconds_since(begin);
    begin = clock_type::now();
    {
        span_recorder::scope s(trace, "snapshot.restore");
        out.restored = snap::restore(loaded);
    }
    out.restore_s = seconds_since(begin);
    return out;
}

output_result export_outputs(const sci::sim_engine& engine,
                             const std::filesystem::path& dir) {
    output_result out;
    std::filesystem::remove_all(dir);
    const auto begin = clock_type::now();
    const sci::dataset_export_report report =
        sci::export_dataset(engine.store(), dir);
    const std::size_t rows =
        sci::export_events_csv(engine.events(), dir / "events.csv");
    out.seconds = seconds_since(begin);
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.is_regular_file()) out.bytes += entry.file_size();
    }
    std::filesystem::remove_all(dir);
    if (report.metrics_exported == 0 || report.series_exported == 0) {
        out.problem = "export wrote no series";
    } else if (rows != engine.events().size()) {
        out.problem = "events.csv has " + std::to_string(rows) +
                      " rows for " + std::to_string(engine.events().size()) +
                      " events";
    }
    return out;
}

output_result build_figures(const sci::sim_engine& engine) {
    output_result out;
    const sci::fleet& f = engine.infrastructure();
    const sci::metric_store& store = engine.store();
    const sci::dc_id dc = f.dcs().front().id;
    const auto begin = clock_type::now();
    std::size_t cells = 0;
    const auto add = [&](const sci::heatmap& h) {
        for (const auto& row : h.cells) cells += row.size();
    };
    const sci::heatmap fig5 = sci::fig5_free_cpu_per_node(store, f, dc);
    add(fig5);
    add(sci::fig6_free_cpu_per_bb(store, f, dc));
    add(sci::fig7_free_cpu_intra_bb(store, f,
                                    sci::most_imbalanced_bb(store, f, dc)));
    add(sci::fig10_free_memory_per_node(store, f, dc));
    add(sci::fig11_free_net_tx(store, f, dc));
    add(sci::fig12_free_net_rx(store, f, dc));
    add(sci::fig13_free_storage(store, f, dc));
    const auto fig8 = sci::fig8_top_ready_nodes(store, 10);
    const auto fig9 = sci::fig9_contention_by_day(store);
    const auto fig14a = sci::fig14a_cpu_utilization(store);
    const auto fig14b = sci::fig14b_memory_utilization(store);
    const auto tab1 = sci::table1_vcpu_classes(engine.vms(), engine.catalog());
    const auto tab2 = sci::table2_ram_classes(engine.vms(), engine.catalog());
    const auto fig15 =
        sci::fig15_lifetime_per_flavor(engine.vms(), engine.catalog(), 30);
    out.seconds = seconds_since(begin);
    if (fig5.columns.empty() || cells == 0) {
        out.problem = "the heatmaps have no cells";
    } else if (fig8.empty() || fig9.empty() || fig14a.sorted_means.empty() ||
               fig14b.sorted_means.empty() || tab1.empty() || tab2.empty() ||
               fig15.empty()) {
        out.problem = "a figure builder returned no rows";
    }
    return out;
}

behavior_replay replay_behavior(sci::sim_engine& engine,
                                sci::sim_time day_start) {
    struct vm_input {
        sci::vm_behavior behavior;
        const sci::flavor* flavor;
        std::size_t node;
        sci::sim_time created_at;
    };
    std::vector<vm_input> vms;
    for (const sci::vm_record& rec : engine.vms().all()) {
        if (rec.state != sci::vm_state::active) continue;
        vms.push_back({engine.behavior_of(rec.id),
                       &engine.catalog().get(rec.flavor),
                       static_cast<std::size_t>(rec.placed_node.value()),
                       rec.created_at});
    }
    const std::size_t nodes = engine.infrastructure().node_count();
    const sci::sim_duration step = engine.config().sampling_interval;

    behavior_replay out;
    std::vector<double> per_instant;
    for (sci::sim_time t = day_start; t < day_start + sci::seconds_per_day;
         t += step) {
        std::vector<sci::node_demand> demand(nodes);
        const auto begin = clock_type::now();
        for (const vm_input& v : vms) {
            const sci::vm_behavior& b = v.behavior;
            const sci::flavor& fl = *v.flavor;
            const double cpu_ratio = b.cpu_ratio_at(t);
            const double mem_ratio = b.mem_ratio_at(t, t - v.created_at);
            demand[v.node].add(
                fl.cpu_pinned ? 0.0 : cpu_ratio * static_cast<double>(fl.vcpus),
                static_cast<sci::mebibytes>(mem_ratio *
                                            static_cast<double>(fl.ram_mib)),
                b.tx_at(t), b.rx_at(t), b.disk_fill * fl.disk_gib);
            if (fl.cpu_pinned) {
                demand[v.node].pinned_cores += static_cast<double>(fl.vcpus);
            }
        }
        per_instant.push_back(seconds_since(begin) * 1e9 /
                              static_cast<double>(std::max<std::size_t>(
                                  vms.size(), 1)));
        out.demand.push_back(std::move(demand));
    }
    out.ns_per_vm_sample = median(per_instant);
    return out;
}

double replay_evaluate_node(const sci::sim_engine& engine,
                            const behavior_replay& replay) {
    const sci::fleet& f = engine.infrastructure();
    const sci::sim_duration interval = engine.config().sampling_interval;
    std::vector<const sci::hardware_profile*> profiles;
    for (const sci::compute_node& node : f.nodes()) {
        profiles.push_back(&f.node_profile(node.id));
    }
    std::vector<double> per_instant;
    for (const std::vector<sci::node_demand>& demand : replay.demand) {
        const auto begin = clock_type::now();
        for (std::size_t n = 0; n < demand.size(); ++n) {
            sci::evaluate_node(*profiles[n], demand[n], interval);
        }
        per_instant.push_back(seconds_since(begin) * 1e9 /
                              static_cast<double>(std::max<std::size_t>(
                                  demand.size(), 1)));
    }
    return median(per_instant);
}

double replay_append(const sci::metric_store& store, int day,
                     sci::sim_duration interval, unsigned workers) {
    sci::metric_store fresh(store.registry(), store.config());
    std::vector<sci::metric_store::sample_event> batch;
    for (std::uint32_t i = 0; i < store.series_count(); ++i) {
        const sci::series_id id(i);
        const sci::series_id copy =
            fresh.open_series(store.metric_of(id).name, store.labels_of(id));
        if (const sci::running_stats* d = store.daily(id, day)) {
            batch.push_back({copy, d->mean()});
        }
    }
    sci::thread_pool pool(workers);
    const sci::metric_store::sharded_runner runner =
        [&pool](std::size_t count, const sci::thread_pool::range_fn& fn) {
            pool.parallel_for(0, count, fn);
        };
    std::vector<double> per_batch;
    const sci::sim_time day_start = sci::sim_time(day) * sci::seconds_per_day;
    for (sci::sim_time t = day_start; t < day_start + sci::seconds_per_day;
         t += interval) {
        const auto begin = clock_type::now();
        fresh.append_batch(t, batch, runner);
        per_batch.push_back(seconds_since(begin) * 1e9 /
                            static_cast<double>(
                                std::max<std::size_t>(batch.size(), 1)));
    }
    return median(per_batch);
}

std::vector<double> measure_handoff(unsigned workers, std::size_t calls) {
    sci::thread_pool pool(workers);
    const sci::thread_pool::range_fn empty = [](unsigned, std::size_t,
                                                std::size_t) {};
    std::vector<double> us;
    us.reserve(calls);
    for (std::size_t i = 0; i < calls; ++i) {
        const auto begin = clock_type::now();
        pool.parallel_for(0, 16, empty);
        us.push_back(seconds_since(begin) * 1e6);
    }
    return us;
}

double time_drs_plan(sci::sim_engine& engine, sci::sim_time t) {
    const sci::vm_cpu_demand_fn demand = [&](sci::vm_id vm) {
        return engine.vm_cpu_demand_cores(vm, t);
    };
    const sci::vm_flavor_fn flavor_of =
        [&](sci::vm_id vm) -> const sci::flavor& {
        return engine.catalog().get(engine.vms().get(vm).flavor);
    };
    const auto begin = clock_type::now();
    for (const sci::drs_cluster& cluster : engine.clusters()) {
        cluster.plan_rebalance(demand, flavor_of);
    }
    return seconds_since(begin) * 1e3;
}

double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB
        }
    }
    return 0.0;
}

void reset_peak_rss() {
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

}  // namespace perfbench
