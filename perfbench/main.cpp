// perfbench — the layered host-time benchmark of the engine (README.md).
//
//   perfbench --workload <steady_window|storm_window|region_setup>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--source-id <id>]
//
// With --trace 0 it times the workload end to end and prints the
// end-to-end metrics; with --trace 1 it additionally runs one traced
// iteration plus the layer replays and prints the per-layer metrics.
// Every output is checked; the last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.

#include <chrono>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <time.h>
#include <unistd.h>
#include <vector>

#include "harness/invariants.hpp"
#include "layers.hpp"
#include "ledger.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

// The what-if load: closed-loop clients sending 500-VM batches.
constexpr unsigned whatif_clients = 2;
constexpr std::size_t whatif_batch_size = 500;
constexpr std::size_t handoff_calls = 2000;

struct options {
    workload kind = workload::steady_window;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::filesystem::path out_dir = ".bench_out";
    std::string source_id = "unknown";
};

std::optional<options> parse_args(int argc, char** argv) {
    options o;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc) {
            std::cerr << "perfbench: missing value for " << argv[i] << "\n";
            return std::nullopt;
        }
        const std::string key = argv[i], value = argv[i + 1];
        try {
            if (key == "--workload") {
                const auto w = parse_workload(value);
                if (!w) {
                    std::cerr << "perfbench: unknown workload '" << value
                              << "'\n";
                    return std::nullopt;
                }
                o.kind = *w;
                have_workload = true;
            } else if (key == "--seed") {
                std::size_t used = 0;
                o.seed = std::stoull(value, &used);
                // the scenario DSL reads seeds as signed 64-bit integers
                if (used != value.size() || o.seed > (1ull << 62)) throw 0;
                have_seed = true;
            } else if (key == "--seconds") {
                o.seconds = std::stod(value);
                if (!(o.seconds > 0.0)) throw 0;
                have_seconds = true;
            } else if (key == "--trace") {
                if (value != "0" && value != "1") throw 0;
                o.trace = value == "1";
                have_trace = true;
            } else if (key == "--out-dir") {
                o.out_dir = value;
            } else if (key == "--source-id") {
                o.source_id = value;
            } else {
                std::cerr << "perfbench: unknown option " << key << "\n";
                return std::nullopt;
            }
        } catch (...) {
            std::cerr << "perfbench: bad value '" << value << "' for " << key
                      << "\n";
            return std::nullopt;
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        std::cerr << "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--out-dir <dir>] "
                     "[--source-id <id>]\n";
        return std::nullopt;
    }
    return o;
}

double seconds_since(clock_type::time_point begin) {
    return std::chrono::duration<double>(clock_type::now() - begin).count();
}

/// CPU seconds used so far by every thread of this process.  The gated
/// timings are CPU time: on a shared host, wall time also counts the time
/// other tenants hold the processor, and the guest kernel leaves that
/// stolen time out of a process's CPU time.
double cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string number(double v) {
    std::ostringstream os;
    os.precision(10);
    os << v;
    return os.str();
}

double ratio(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/// Everything one workload iteration leaves behind for the checks and
/// the layer replays.
struct iteration {
    std::unique_ptr<sci::sim_engine> engine;
    std::unique_ptr<sci::sim_engine> restored;  ///< the last round trip's
    std::vector<fingerprint> restored_fingerprints;  ///< one per round trip
    closed_loop_result loop;
    double run_s = 0.0;      ///< wall
    double run_cpu_s = 0.0;  ///< CPU
    double window_s = 0.0;
    std::string output_problem;  ///< export / figure checks
    // traced iterations only
    std::vector<double> interval_ms;
    std::uint64_t vm_samples = 0;  ///< sum of active VMs over scrapes
    std::uint64_t scrapes = 0;
};

/// Timing samples of the end-to-end and per-layer metrics.
/// The gated timings are CPU seconds; the *_wall_s ones are printed only.
struct samples {
    std::vector<double> setup_s, setup_wall_s, run_cpu_s, run_wall_s,
        peak_rss_mib, samples_per_s, roundtrip_s, roundtrip_wall_s,
        capture_ms, serialize_ms, deserialize_ms, restore_ms, snapshot_mib,
        whatif_ms, whatif_batches_per_s, export_s, export_mib, figures_s,
        check_ms, whatif_single_ms, reference_window_s;
};

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

class bench {
public:
    explicit bench(options o)
        : opt_(std::move(o)),
          spec_(make_workload(opt_.kind, opt_.seed,
                              std::max(1u, std::thread::hardware_concurrency()))),
          trace_(true),
          untraced_(false) {}

    int run();

private:
    bool plays_window() const { return spec_.days > 0; }
    sci::sim_time window_end() const {
        return sci::sim_time(spec_.days) * sci::seconds_per_day;
    }

    void reference_run();
    void extra_setups();
    iteration run_iteration(span_recorder& trace);
    /// Export + figures of a finished engine; returns their problem.
    std::string write_outputs(const sci::sim_engine& engine,
                              span_recorder& trace);
    void check(iteration& it, span_recorder& trace);
    void watch_intervals(sci::sim_engine& engine, iteration& it,
                         span_recorder& trace);

    std::vector<metric> end_to_end() const;
    std::vector<metric> per_layer(iteration& traced,
                                  double untraced_run_cpu_s);
    std::map<std::string, std::string> meta() const;
    void print(const std::vector<metric>& metrics) const;

    options opt_;
    workload_spec spec_;
    span_recorder trace_;
    span_recorder untraced_;
    failure_ledger ledger_;
    samples s_;
    std::optional<fingerprint> reference_;
    std::vector<whatif_batch> batches_;
    std::vector<sci::snapshot::whatif_result> whatif_reference_;
    std::vector<metric> layer_timings_;  ///< human-readable extras
};

void bench::reference_run() {
    // The pooled run every timed (serial) window is compared against: the
    // pool-vs-serial check.  Not gated; its window time is only printed.
    sci::engine_config config = spec_.config;
    config.threads = spec_.workers;
    sci::sim_engine engine(config);
    engine.setup();
    const auto begin = clock_type::now();
    engine.run_until(window_end());
    s_.reference_window_s.push_back(seconds_since(begin));
    reference_ = fingerprint_of(engine);
}

void bench::extra_setups() {
    for (int i = 0; i < spec_.extra_setups; ++i) {
        const auto begin = clock_type::now();
        const double cpu_begin = cpu_seconds();
        sci::sim_engine engine(spec_.config);
        engine.setup();
        s_.setup_s.push_back(cpu_seconds() - cpu_begin);
        s_.setup_wall_s.push_back(seconds_since(begin));
    }
}

void bench::watch_intervals(sci::sim_engine& engine, iteration& it,
                            span_recorder& trace) {
    sci::engine_probes probes;
    probes.after_scrape = [&engine, &it, &trace,
                           last = ns_t(-1)](sci::sim_time) mutable {
        const ns_t now = trace.now();
        if (last >= 0) {
            trace.add("core.interval", last, now);
            it.interval_ms.push_back(static_cast<double>(now - last) * 1e-6);
        }
        last = now;
        it.vm_samples += engine.active_vm_count();
        ++it.scrapes;
    };
    engine.set_probes(std::move(probes));
}

std::string bench::write_outputs(const sci::sim_engine& engine,
                                 span_recorder& trace) {
    output_result exported;
    {
        span_recorder::scope s(trace, "data.export");
        exported = export_outputs(
            engine, opt_.out_dir / ("export_" + std::to_string(::getpid())));
    }
    s_.export_s.push_back(exported.seconds);
    s_.export_mib.push_back(static_cast<double>(exported.bytes) /
                            (1024.0 * 1024.0));
    output_result figures;
    {
        span_recorder::scope s(trace, "analysis.figures");
        figures = build_figures(engine);
    }
    s_.figures_s.push_back(figures.seconds);
    return exported.problem.empty() ? figures.problem : exported.problem;
}

iteration bench::run_iteration(span_recorder& trace) {
    iteration it;
    reset_peak_rss();
    const auto begin = clock_type::now();
    const double cpu_begin = cpu_seconds();
    double excluded_s = 0.0, excluded_cpu_s = 0.0;
    {
        span_recorder::scope whole(trace, "iteration");
        {
            span_recorder::scope s(trace, "sim_engine.construct");
            it.engine = std::make_unique<sci::sim_engine>(spec_.config);
        }
        if (trace.enabled()) watch_intervals(*it.engine, it, trace);
        {
            span_recorder::scope s(trace, "sim_engine.setup");
            it.engine->setup();
        }
        s_.setup_s.push_back(cpu_seconds() - cpu_begin);
        s_.setup_wall_s.push_back(seconds_since(begin));
        if (plays_window()) {
            const auto window_begin = clock_type::now();
            {
                span_recorder::scope s(trace, "sim_engine.run_until");
                it.engine->run_until(window_end());
            }
            it.window_s = seconds_since(window_begin);
            s_.samples_per_s.push_back(
                static_cast<double>(it.engine->store().total_samples()) /
                it.window_s);
            it.output_problem = write_outputs(*it.engine, trace);
        }
        for (int r = 0; r < spec_.snapshot_reps; ++r) {
            const double roundtrip_cpu_begin = cpu_seconds();
            roundtrip_result rt = snapshot_roundtrip(*it.engine, trace);
            s_.roundtrip_s.push_back(cpu_seconds() - roundtrip_cpu_begin);
            s_.roundtrip_wall_s.push_back(rt.total_s());
            s_.capture_ms.push_back(rt.capture_s * 1e3);
            s_.serialize_ms.push_back(rt.serialize_s * 1e3);
            s_.deserialize_ms.push_back(rt.deserialize_s * 1e3);
            s_.restore_ms.push_back(rt.restore_s * 1e3);
            s_.snapshot_mib.push_back(static_cast<double>(rt.bytes) /
                                      (1024.0 * 1024.0));
            // checked now (the engine is dropped next round), not timed
            const auto check_begin = clock_type::now();
            const double check_cpu_begin = cpu_seconds();
            it.restored_fingerprints.push_back(fingerprint_of(*rt.restored));
            excluded_s += seconds_since(check_begin);
            excluded_cpu_s += cpu_seconds() - check_cpu_begin;
            it.restored = std::move(rt.restored);
        }
        std::optional<sci::snapshot::whatif_planner> planner;
        {
            span_recorder::scope s(trace, "whatif_planner.build");
            planner.emplace(*it.restored);
        }
        {
            span_recorder::scope s(trace, "whatif_planner.closed_loop");
            it.loop = run_closed_loop(*planner, batches_, whatif_clients);
        }
        s_.whatif_ms.insert(s_.whatif_ms.end(), it.loop.latency_ms.begin(),
                            it.loop.latency_ms.end());
        s_.whatif_batches_per_s.push_back(
            static_cast<double>(batches_.size()) / it.loop.wall_s);
    }
    it.run_s = seconds_since(begin) - excluded_s;
    it.run_cpu_s = cpu_seconds() - cpu_begin - excluded_cpu_s;
    s_.peak_rss_mib.push_back(peak_rss_mib());
    s_.run_wall_s.push_back(it.run_s);
    s_.run_cpu_s.push_back(it.run_cpu_s);
    std::cout << "iteration run_cpu_s=" << it.run_cpu_s
              << " run_wall_s=" << it.run_s << " window_s=" << it.window_s
              << " peak_rss_mib=" << s_.peak_rss_mib.back()
              << " samples=" << it.engine->store().total_samples()
              << " series=" << it.engine->store().series_count()
              << " active_vms=" << it.engine->active_vm_count()
              << " events=" << it.engine->events().size() << '\n';
    check(it, trace);
    return it;
}

void bench::check(iteration& it, span_recorder& trace) {
    if (whatif_reference_.empty()) {
        // The same batches planned serially on the original engine, once
        // per invocation and outside check_ms: the single-client replay.
        span_recorder::scope s(trace, "whatif_planner.single_client");
        const sci::snapshot::whatif_planner original(*it.engine);
        for (const whatif_batch& batch : batches_) {
            const auto plan_begin = clock_type::now();
            whatif_reference_.push_back(original.plan(batch));
            s_.whatif_single_ms.push_back(seconds_since(plan_begin) * 1e3);
        }
    }
    const auto begin = clock_type::now();
    span_recorder::scope s(trace, "harness.check");
    const fingerprint fp = fingerprint_of(*it.engine);
    // Without a pooled reference run the first iteration is the reference.
    if (!reference_) reference_ = fp;
    // Built after the run, the monitor evaluates the end state only.
    const sci::harness::invariant_monitor monitor(*it.engine, spec_.checks);
    std::string problem = failed_invariants(monitor.evaluate());
    for (const std::string& p :
         {compare_fingerprints(fp, *reference_), it.output_problem}) {
        if (!p.empty()) problem += (problem.empty() ? "" : "; ") + p;
    }
    ledger_.record(plays_window() ? op_kind::window : op_kind::setup, problem);
    for (const fingerprint& restored : it.restored_fingerprints) {
        ledger_.record(op_kind::restore, compare_fingerprints(restored, fp));
    }
    for (std::size_t b = 0; b < batches_.size(); ++b) {
        ledger_.record(op_kind::whatif_batch,
                       compare_landings(it.loop.results[b],
                                        whatif_reference_[b]));
    }
    s_.check_ms.push_back(seconds_since(begin) * 1e3);
    // The interval probe and the monitor's probes refer to objects that
    // die before the engine does; it never runs again, so drop them.
    it.engine->set_probes({});
}

std::vector<metric> bench::end_to_end() const {
    // The what-if latencies and samples_per_s are printed as timings but
    // not gated: the 2-client loop's medians spread 15-23% between runs on
    // a shared 4-vCPU host, and a window's whatif p99 read either ~0.4 or
    // ~4.3 ms (1% of ~0.2 ms batches losing a 4 ms scheduler tick or not).
    // run_cpu_s holds the what-if loop and the window, so it still gates
    // both.  The wall-clock times are printed as timings too.  The peak
    // resident set is the first iteration's: later ones inherit the
    // allocator's fragmentation from the earlier ones and read 105-118 MiB
    // on storm_window where the first reads 94-99 MiB.
    return {
        {"setup_s", median(s_.setup_s), "s"},
        {"run_cpu_s", median(s_.run_cpu_s), "s"},
        {"peak_rss_mib", s_.peak_rss_mib.front(), "MiB"},
        {"snapshot_roundtrip_cpu_s", median(s_.roundtrip_s), "s"},
    };
}

std::vector<metric> bench::per_layer(iteration& traced,
                                     double untraced_run_cpu_s) {
    sci::sim_engine* window_engine = traced.engine.get();
    double window_s = traced.window_s;
    int replay_day = spec_.days - 1;
    std::uint64_t samples_before_window = 0;
    if (!plays_window()) {
        // region_setup plays no window; its interval and ingest layers
        // are measured on one simulated day continued from the restored
        // set-up, outside every end-to-end metric.
        span_recorder::scope s(trace_, "region.continue_one_day");
        window_engine = traced.restored.get();
        samples_before_window = window_engine->store().total_samples();
        watch_intervals(*window_engine, traced, trace_);
        const auto begin = clock_type::now();
        {
            span_recorder::scope r(trace_, "sim_engine.run_until");
            window_engine->run_until(sci::seconds_per_day);
        }
        window_s = seconds_since(begin);
        replay_day = 0;
        write_outputs(*window_engine, trace_);
    }
    const sci::metric_store& store = window_engine->store();
    const std::uint64_t window_samples =
        store.total_samples() - samples_before_window;
    const double window_ns = window_s * 1e9;

    behavior_replay behavior;
    {
        span_recorder::scope s(trace_, "replay.vm_behavior");
        behavior = replay_behavior(
            *window_engine, sci::sim_time(replay_day) * sci::seconds_per_day);
    }
    double node_ns = 0.0;
    {
        span_recorder::scope s(trace_, "replay.evaluate_node");
        node_ns = replay_evaluate_node(*window_engine, behavior);
    }
    double append_ns = 0.0;
    {
        span_recorder::scope s(trace_, "replay.append_batch");
        append_ns = replay_append(store, replay_day,
                                  spec_.config.sampling_interval,
                                  spec_.workers);
    }
    std::vector<double> handoff_us;
    {
        span_recorder::scope s(trace_, "replay.parallel_for");
        handoff_us = measure_handoff(spec_.workers, handoff_calls);
    }
    std::vector<double> plan_ms;
    {
        span_recorder::scope s(trace_, "replay.plan_rebalance");
        const sci::sim_time at =
            plays_window() ? window_end() - spec_.config.sampling_interval : 0;
        for (int i = 0; i < 5; ++i) {
            plan_ms.push_back(time_drs_plan(*traced.engine, at));
        }
    }

    const sci::run_stats& st = traced.engine->stats();
    const double node_samples =
        static_cast<double>(traced.scrapes) *
        static_cast<double>(window_engine->infrastructure().node_count());
    const double workload_share =
        behavior.ns_per_vm_sample * static_cast<double>(traced.vm_samples) /
        window_ns;
    const double hypervisor_share = node_ns * node_samples / window_ns;
    const double telemetry_share =
        append_ns * static_cast<double>(window_samples) / window_ns;
    const sci::sim_duration simulated =
        plays_window() ? window_end() : sci::seconds_per_day;
    const double drs_share = median(plan_ms) * 1e6 *
                             static_cast<double>(simulated) /
                             static_cast<double>(spec_.config.drs_interval) /
                             window_ns;
    // Placement drains time themselves inside the engine (run_stats).
    const sci::run_stats& window_stats = window_engine->stats();
    const double drain_share = (window_stats.churn_placement_wall_ms +
                                window_stats.recovery_placement_wall_ms) *
                               1e6 / window_ns;
    const summary interval = summarize(traced.interval_ms);
    const summary handoff = summarize(handoff_us);
    const std::uint64_t initial_spec =
        st.speculative_placements + st.speculation_misses;

    std::vector<metric> m = {
        {"core.interval_ms.p50", interval.median, "ms"},
        {"core.interval_ms.p99", percentile(traced.interval_ms, 99.0), "ms"},
        {"core.samples_per_s", static_cast<double>(window_samples) / window_s,
         "samples/s"},
        {"workload.eval_ns", behavior.ns_per_vm_sample, "ns"},
        {"workload.share", workload_share, "ratio"},
        {"hypervisor.eval_ns", node_ns, "ns"},
        {"hypervisor.share", hypervisor_share, "ratio"},
        {"telemetry.append_ns", append_ns, "ns"},
        {"telemetry.share", telemetry_share, "ratio"},
        {"telemetry.samples", static_cast<double>(store.total_samples()),
         "count"},
        {"telemetry.series", static_cast<double>(store.series_count()),
         "count"},
        {"simcore.handoff_us.p50", handoff.median, "us"},
        {"simcore.handoff_us.p99", percentile(handoff_us, 99.0), "us"},
        {"sched.whatif_batch_ms", median(s_.whatif_single_ms), "ms"},
        {"sched.whatif_p50_ms", median(s_.whatif_ms), "ms"},
        {"sched.whatif_p99_ms", percentile(s_.whatif_ms, 99.0), "ms"},
        {"sched.whatif_batches_per_s", median(s_.whatif_batches_per_s),
         "1/s"},
        {"sched.spec_hit_ratio.initial",
         ratio(st.speculative_placements, initial_spec), "ratio"},
        {"sched.spec_base.initial", static_cast<double>(initial_spec),
         "count"},
        {"sched.spec_hit_ratio.window",
         ratio(st.window_speculative_placements, st.window_speculations),
         "ratio"},
        {"sched.spec_base.window", static_cast<double>(st.window_speculations),
         "count"},
        {"sched.spec_hit_ratio.recovery",
         ratio(st.recovery_speculative_placements, st.recovery_speculations),
         "ratio"},
        {"sched.spec_base.recovery",
         static_cast<double>(st.recovery_speculations), "count"},
        {"sched.invalidated_ratio.window",
         ratio(st.window_speculation_invalidated, st.window_speculations),
         "ratio"},
        {"sched.invalidated_ratio.recovery",
         ratio(st.recovery_speculation_invalidated, st.recovery_speculations),
         "ratio"},
        {"sched.placements", static_cast<double>(st.placements), "count"},
        {"sched.failures", static_cast<double>(st.placement_failures),
         "count"},
        {"sched.retries", static_cast<double>(st.scheduler_retries), "count"},
        {"sched.bp_enqueued", static_cast<double>(st.bp_enqueued), "count"},
        {"sched.bp_placed_ratio", ratio(st.bp_queue_placed, st.bp_enqueued),
         "ratio"},
        {"sched.bp_peak_queue", static_cast<double>(st.bp_peak_queue_len),
         "count"},
        {"drs.plan_ms", median(plan_ms), "ms"},
        {"drs.migrations", static_cast<double>(st.drs_migrations), "count"},
        {"drs.aborts", static_cast<double>(st.migration_aborts), "count"},
        {"rebalancer.moves", static_cast<double>(st.cross_bb_moves), "count"},
        {"rebalancer.target_hit_ratio",
         ratio(st.rebalance_targets_used, st.rebalance_target_speculations),
         "ratio"},
        {"fault.crashes", static_cast<double>(st.host_crashes), "count"},
        {"fault.ha_restarts", static_cast<double>(st.ha_restarts), "count"},
        {"fault.ha_success_ratio", ratio(st.ha_restarts, st.crash_victims),
         "ratio"},
        {"fault.ha_give_ups", static_cast<double>(st.ha_give_ups), "count"},
        {"data.export_s", s_.export_s.back(), "s"},
        {"data.export_mib", s_.export_mib.back(), "MiB"},
        {"analysis.figures_s", s_.figures_s.back(), "s"},
        {"snapshot.capture_ms", s_.capture_ms.back(), "ms"},
        {"snapshot.serialize_ms", s_.serialize_ms.back(), "ms"},
        {"snapshot.deserialize_ms", s_.deserialize_ms.back(), "ms"},
        {"snapshot.restore_ms", s_.restore_ms.back(), "ms"},
        {"snapshot.bytes_mib", s_.snapshot_mib.back(), "MiB"},
        {"harness.check_ms", s_.check_ms.back(), "ms"},
        {"trace.coverage",
         workload_share + hypervisor_share + telemetry_share + drs_share +
             drain_share,
         "ratio"},
        {"trace.overhead", traced.run_cpu_s / untraced_run_cpu_s - 1.0,
         "ratio"},
    };
    layer_timings_ = {
        {"  interval tail p" + number(interval.tail_q) + " (n=" +
             std::to_string(interval.n) + ")",
         interval.tail_value, "ms"},
        {"  handoff tail p" + number(handoff.tail_q) + " (n=" +
             std::to_string(handoff.n) + ")",
         handoff.tail_value, "us"},
        {"  drain share (engine timers)", drain_share, "ratio"},
        {"  drs share", drs_share, "ratio"},
    };
    return m;
}

std::map<std::string, std::string> bench::meta() const {
    std::ostringstream scale;
    scale << spec_.config.scenario.scale;
    return {
        {"workload", to_string(spec_.kind)},
        {"seed", std::to_string(opt_.seed)},
        {"seconds", std::to_string(opt_.seconds)},
        {"trace", opt_.trace ? "1" : "0"},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"workers", std::to_string(spec_.workers)},
        {"scale", scale.str()},
        {"sim_days", std::to_string(spec_.days)},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"compiler", PERFBENCH_COMPILER},
        {"source", opt_.source_id},
    };
}

void bench::print(const std::vector<metric>& metrics) const {
    std::cout << "# perfbench";
    for (const auto& [key, value] : meta()) {
        std::cout << ' ' << key << '=' << value;
    }
    std::cout << '\n';
    for (const metric& m : metrics) {
        std::cout << "metric " << m.name << " = " << number(m.value) << ' '
                  << m.unit << '\n';
    }
    for (const metric& m : layer_timings_) {
        std::cout << "layer " << m.name << " = " << number(m.value) << ' '
                  << m.unit << '\n';
    }
    for (const auto& [name, seconds] : trace_.self_seconds_by_name()) {
        std::cout << "self " << name << " = " << number(seconds) << " s\n";
    }
    // Sample counts and tails of every timing (human-readable).
    struct timing {
        const char* name;
        const char* unit;
        const std::vector<double>* values;
    };
    const timing timings[] = {
        {"setup_s", "s", &s_.setup_s},
        {"setup_wall_s", "s", &s_.setup_wall_s},
        {"run_cpu_s", "s", &s_.run_cpu_s},
        {"run_wall_s", "s", &s_.run_wall_s},
        {"samples_per_s", "samples/s", &s_.samples_per_s},
        {"snapshot_roundtrip_cpu_s", "s", &s_.roundtrip_s},
        {"snapshot_roundtrip_wall_s", "s", &s_.roundtrip_wall_s},
        {"whatif_ms", "ms", &s_.whatif_ms},
        {"whatif_batches_per_s", "1/s", &s_.whatif_batches_per_s},
        {"whatif_single_ms", "ms", &s_.whatif_single_ms},
        {"export_s", "s", &s_.export_s},
        {"figures_s", "s", &s_.figures_s},
        {"check_ms", "ms", &s_.check_ms},
        {"reference_window_s", "s", &s_.reference_window_s},
    };
    for (const timing& t : timings) {
        if (t.values->empty()) continue;
        const summary sum = summarize(*t.values);
        std::cout << "timing " << t.name << " [" << t.unit
                  << "] median=" << number(sum.median) << " n=" << sum.n;
        if (sum.tail_q > 0.0) {
            std::cout << " p" << sum.tail_q << '=' << number(sum.tail_value);
        } else {
            std::cout << " tail=none(n<20)";
        }
        std::cout << '\n';
    }
    std::cout << "failed_share = " << number(ledger_.failed_share()) << " ("
              << ledger_.failed() << " of " << ledger_.attempted();
    for (const op_kind k : {op_kind::window, op_kind::setup,
                            op_kind::whatif_batch, op_kind::restore}) {
        if (ledger_.attempted(k) == 0) continue;
        std::cout << "; " << to_string(k) << ' ' << ledger_.failed(k) << '/'
                  << ledger_.attempted(k);
    }
    std::cout << ")\n";
    for (const std::string& p : ledger_.problems()) {
        std::cout << "FAILED " << p << '\n';
    }
    std::cout << "{\"correct\": " << (ledger_.failed() == 0 ? "true" : "false")
              << ", \"attempted\": " << ledger_.attempted()
              << ", \"failed\": " << ledger_.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i == 0 ? "" : ", ") << '"' << metrics[i].name
                  << "\": {\"value\": " << number(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

int bench::run() {
    std::filesystem::create_directories(opt_.out_dir);
    // The engine builds the same scenario from the same configuration.
    batches_ = make_whatif_batches(
        sci::make_regional_scenario(spec_.config.scenario), opt_.seed,
        spec_.whatif_batches, whatif_batch_size);
    // A serial reference run would repeat a timed iteration exactly, so
    // serial workloads check against their first iteration instead.
    if (spec_.workers > 0) reference_run();
    if (!opt_.trace) {
        const auto begin = clock_type::now();
        double last = 0.0;
        for (int i = 0; i < spec_.min_iterations ||
                        seconds_since(begin) + last <= opt_.seconds;
             ++i) {
            const auto iteration_begin = clock_type::now();
            extra_setups();
            run_iteration(untraced_);
            last = seconds_since(iteration_begin);
        }
        print(end_to_end());
        return 0;
    }
    const double untraced_run_cpu_s = run_iteration(untraced_).run_cpu_s;
    iteration traced = run_iteration(trace_);
    const std::vector<metric> metrics = per_layer(traced, untraced_run_cpu_s);
    trace_.write_json(opt_.out_dir / ("trace_" + std::string(to_string(
                                                     spec_.kind)) +
                                      "_seed" + std::to_string(opt_.seed) +
                                      ".json"),
                      meta());
    print(metrics);
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    const auto options = perfbench::parse_args(argc, argv);
    if (!options) return 2;
    try {
        perfbench::bench b(*options);
        return b.run();
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
