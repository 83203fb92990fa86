// scisim — command-line driver for the SAP Cloud Infrastructure
// reproduction.
//
//   scisim simulate [--scale S] [--seed N] [--out DIR]   run + export dataset
//   scisim report   [--scale S] [--seed N]               run + key findings
//       both accept --regions N: run N regions (seeds derived per region)
//       concurrently on one shared pool and aggregate across the fleet
//   scisim analyze  --out DIR                            analyze an exported
//                                                        dataset (no sim)
//   scisim advisor  [--scale S] [--seed N]               overcommit advice
//   scisim fleet                                         Table 5 overview
//
// Scale 1.0 reproduces the paper's full region (1,800 nodes / 48,000 VMs);
// the default 0.05 runs in seconds on a laptop.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include <fstream>

#include "analysis/advisor.hpp"
#include "analysis/figures.hpp"
#include "analysis/render.hpp"
#include "core/engine.hpp"
#include "core/report.hpp"
#include "data/dataset.hpp"
#include "harness/invariants.hpp"
#include "harness/scenario_dsl.hpp"
#include "multiregion/region_set.hpp"
#include "simcore/parse.hpp"
#include "simcore/thread_pool.hpp"
#include "snapshot/snapshot.hpp"

namespace {

/// A flag that sets a config field: the scenario DSL key it stands for.
struct config_flag {
    std::string_view flag, section, key;
};

constexpr config_flag config_flags[] = {
    {"--scale", "engine", "scale"},
    {"--seed", "engine", "seed"},
    {"--crash-rate", "fault", "crash_rate_per_day"},
    {"--claim-fail", "fault", "claim_failure_probability"},
    {"--mig-abort", "fault", "migration_abort_probability"},
    {"--degraded", "fault", "degraded_node_fraction"},
    {"--degraded-cpu-factor", "fault", "degraded_cpu_factor"},
    {"--maintenance", "fault", "maintenance_windows"},
};

struct cli_options {
    std::filesystem::path out_dir = "sci_dataset";
    std::filesystem::path markdown_file;  ///< report: write markdown here
    /// The config flags given, with their values, in order.  They win
    /// over a --scenario file; any fault flag replaces the file's whole
    /// [fault] section.
    std::vector<std::pair<const config_flag*, std::string>> set;
    /// --backpressure: overload mode for ad-hoc runs.  A --scenario
    /// file's [backpressure] section always wins over this flag — a
    /// scenario IS its overload physics, unlike --scale/--seed which are
    /// run-shape knobs.
    std::optional<sci::backpressure_mode> backpressure;
    std::filesystem::path scenario_file;  ///< --scenario: run a .scn file
    int regions = 1;                      ///< --regions: multi-region run
    bool check_invariants = false;
    /// --snapshot-at: checkpoint the run at this event time (seconds).
    std::optional<sci::sim_time> snapshot_at;
    /// --snapshot-out: where the checkpoint goes (multi-region runs
    /// write one file per region: PATH.<region>).
    std::filesystem::path snapshot_out = "scisim.snap";
    /// --restore: resume from checkpoint file(s) instead of a fresh
    /// setup (pass once per region, in region order).
    std::vector<std::filesystem::path> restore_files;
    /// Simulated days to play: the observation window, or the
    /// SCI_BENCH_DAYS cap.
    int days = sci::observation_days;
};

/// `config` with the given config flags applied.
sci::engine_config with_flags(sci::engine_config config,
                              const cli_options& options) {
    for (const auto& [flag, value] : options.set) {
        sci::harness::set_config_key(config, flag->section, flag->key, value,
                                     flag->flag);
    }
    return config;
}

/// The config of a run without a scenario file: scale 0.05 runs in
/// seconds.
sci::engine_config ad_hoc_config(const cli_options& options) {
    sci::engine_config config;
    config.scenario.scale = 0.05;
    return with_flags(config, options);
}

cli_options parse_options(int argc, char** argv, int first) {
    cli_options options;
    try {
        if (const int cap = sci::bench_days_cap(); cap > 0) options.days = cap;
        (void)sci::thread_pool::env_threads();  // a bad SCI_THREADS exits 2
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto next = [&]() -> const char* {
                if (i + 1 >= argc) {
                    std::cerr << "missing value for " << arg << "\n";
                    std::exit(2);
                }
                return argv[++i];
            };
            const auto* flag =
                std::ranges::find(config_flags, arg, &config_flag::flag);
            if (flag != std::end(config_flags)) {
                options.set.emplace_back(flag, next());
            } else if (arg == "--out") {
                options.out_dir = next();
            } else if (arg == "--markdown") {
                options.markdown_file = next();
            } else if (arg == "--scenario") {
                options.scenario_file = next();
            } else if (arg == "--regions") {
                options.regions = sci::parse_number<int>(next(), arg);
            } else if (arg == "--check-invariants") {
                options.check_invariants = true;
            } else if (arg == "--snapshot-at") {
                options.snapshot_at =
                    sci::parse_number<sci::sim_time>(next(), arg);
            } else if (arg == "--snapshot-out") {
                options.snapshot_out = next();
            } else if (arg == "--restore") {
                options.restore_files.emplace_back(next());
            } else if (arg == "--backpressure") {
                const char* token = next();
                options.backpressure = sci::backpressure_mode_from(token);
                if (!options.backpressure.has_value()) {
                    std::cerr << "--backpressure expects degrade, queue or "
                                 "shed (got '"
                              << token << "')\n";
                    std::exit(2);
                }
            } else {
                std::cerr << "unknown option: " << arg << "\n";
                std::exit(2);
            }
        }
        if (ad_hoc_config(options).scenario.scale <= 0.0) {
            std::cerr << "--scale must be positive\n";
            std::exit(2);
        }
    } catch (const sci::error& e) {
        std::cerr << e.what() << "\n";
        std::exit(2);
    }
    if (options.regions < 1) {
        std::cerr << "--regions must be at least 1\n";
        std::exit(2);
    }
    if (options.snapshot_at.has_value() &&
        (*options.snapshot_at <= 0 ||
         *options.snapshot_at >= sci::days(options.days))) {
        std::cerr << "--snapshot-at must fall inside the " << options.days
                  << "-day window\n";
        std::exit(2);
    }
    return options;
}

/// Base config + invariants resolved from the scenario file / CLI flags
/// (shared by the single-engine and multi-region paths), plus the
/// region specs when the run is multi-region.
struct resolved_run {
    sci::engine_config config;
    sci::harness::invariant_config inv;
    /// Non-empty = multi-region ([region.N] sections or --regions N > 1).
    std::vector<sci::region_spec> region_specs;
};

resolved_run resolve_run(const cli_options& options) {
    resolved_run run;
    if (!options.scenario_file.empty()) {
        sci::harness::scenario_spec spec =
            sci::harness::load_scenario_file(options.scenario_file);
        run.config = spec.config;
        run.inv = spec.invariants;
        std::cout << "scenario " << spec.name
                  << (spec.description.empty() ? "" : ": " + spec.description)
                  << "\n";
        // explicit CLI flags win over the scenario file
        if (std::ranges::any_of(options.set, [](const auto& given) {
                return given.first->section == "fault";
            })) {
            run.config.fault = {};
        }
        run.config = with_flags(run.config, options);
        if (!spec.regions.empty()) {
            spec.config = run.config;  // overrides become the regions' base
            run.region_specs = sci::harness::region_specs_of(spec);
        }
    } else {
        run.config = ad_hoc_config(options);
        if (options.backpressure.has_value()) {
            run.config.backpressure =
                sci::backpressure_config::with_default_queue(
                    *options.backpressure);
        }
    }
    if (run.region_specs.empty() && options.regions > 1) {
        run.region_specs = sci::make_region_specs(
            run.config, static_cast<std::size_t>(options.regions));
    }
    if (options.check_invariants && run.inv.count() == 0) {
        // No scenario (or one without an [invariants] section): check the
        // always-applicable physics.
        run.inv.admission_accounting = true;
        run.inv.no_silent_drops = true;
        run.inv.conservation = true;
        if (!run.region_specs.empty()) run.inv.cross_region_conservation = true;
    }
    return run;
}

/// A finished run: its regions (one unless multi-region) on one shared
/// pool, behind a pointer because the invariant monitors hold references
/// into the engines for the whole window.
struct finished_run {
    std::unique_ptr<sci::region_set> set;
    bool invariants_ok = true;
};

finished_run run_regions(const cli_options& options,
                         const resolved_run& resolved) {
    const bool solo = resolved.region_specs.empty();
    const sci::engine_config& config = resolved.config;
    finished_run run;
    if (!options.restore_files.empty()) {
        // resume from checkpoints (one per region, in region order): the
        // snapshots' embedded configs win over --scale/--seed
        if (solo && options.restore_files.size() > 1) {
            std::cerr << "--restore given " << options.restore_files.size()
                      << " files, but the run has one region: pass "
                         "--regions N or a scenario with [region.N] "
                         "sections to restore a multi-region checkpoint\n";
            std::exit(2);
        }
        std::vector<sci::snapshot::engine_state> states;
        for (const std::filesystem::path& file : options.restore_files) {
            states.push_back(sci::snapshot::load_file(file));
        }
        if (solo) {
            std::cout << "restoring checkpoint "
                      << options.restore_files.front().string();
        } else {
            std::cout << "restoring " << states.size() << "-region checkpoint";
        }
        std::cout << ", resuming the " << options.days << "-day window ...\n";
        run.set = sci::snapshot::restore_regions(states);
    } else if (solo) {
        std::cout << "simulating " << options.days << " days at scale "
                  << config.scenario.scale << " (seed " << config.scenario.seed
                  << ") ...\n";
        run.set = std::make_unique<sci::region_set>(
            sci::make_region_specs(config, 1));
    } else {
        std::cout << "simulating " << options.days << " days across "
                  << resolved.region_specs.size() << " regions (base seed "
                  << config.scenario.seed << ") ...\n";
        run.set = std::make_unique<sci::region_set>(resolved.region_specs);
    }
    sci::region_set& set = *run.set;
    // per-region monitors; the fleet-wide conservation check runs last
    sci::harness::invariant_config per_region = resolved.inv;
    per_region.cross_region_conservation = false;
    std::vector<std::unique_ptr<sci::harness::invariant_monitor>> monitors;
    for (std::size_t r = 0; options.check_invariants && r < set.region_count();
         ++r) {
        monitors.push_back(std::make_unique<sci::harness::invariant_monitor>(
            set.region(r), per_region));
    }
    if (options.snapshot_at.has_value()) {
        // one event-time barrier checkpoints all regions consistently; a
        // multi-region run writes one file per region, suffixed with the
        // region's name
        set.run_until(*options.snapshot_at);
        for (const sci::snapshot::engine_state& state :
             solo ? std::vector{sci::snapshot::capture(set.region(0))}
                  : sci::snapshot::capture(set)) {
            std::filesystem::path file = options.snapshot_out;
            if (!solo) file += "." + state.region;
            sci::snapshot::save_file(state, file);
            std::cout << "  checkpoint written to " << file.string()
                      << " at t=" << *options.snapshot_at << "s\n";
        }
    }
    set.run_until(sci::days(options.days));
    if (solo) {
        const sci::sim_engine& engine = set.region(0);
        const sci::run_stats& stats = engine.stats();
        std::cout << "  " << engine.infrastructure().node_count()
                  << " nodes, " << stats.placements << " placements, "
                  << stats.deletions << " deletions, " << stats.drs_migrations
                  << " DRS migrations, " << stats.scrapes << " scrapes\n";
        if (config.fault.enabled()) {
            std::cout << "  faults: " << stats.host_crashes
                      << " host crashes, " << stats.crash_victims
                      << " victims, " << stats.ha_restarts << " HA restarts, "
                      << stats.migration_aborts << " migration aborts\n";
        }
    } else {
        std::size_t nodes = 0;
        for (std::size_t r = 0; r < set.region_count(); ++r) {
            const sci::run_stats& rs = set.region(r).stats();
            std::cout << "  " << set.spec(r).name << ": "
                      << set.region(r).infrastructure().node_count()
                      << " nodes, " << rs.placements << " placements, "
                      << rs.drs_migrations << " DRS migrations, "
                      << rs.host_crashes << " host crashes\n";
            nodes += set.region(r).infrastructure().node_count();
        }
        const sci::run_stats merged = set.merged_stats();
        std::cout << "  fleet: " << nodes << " nodes, " << merged.placements
                  << " placements, " << merged.deletions << " deletions, "
                  << merged.drs_migrations << " DRS migrations, "
                  << merged.scrapes << " scrapes\n";
    }
    if (options.check_invariants) {
        std::cout << "  invariants:\n";
        const auto show = [&](const sci::harness::invariant_result& r) {
            std::cout << "    " << to_string(r) << "\n";
            run.invariants_ok = run.invariants_ok && r.passed;
        };
        for (std::size_t r = 0; r < set.region_count(); ++r) {
            for (sci::harness::invariant_result result :
                 monitors[r]->evaluate()) {
                if (!solo) result.name = set.spec(r).name + "." + result.name;
                show(result);
            }
        }
        if (!solo && resolved.inv.cross_region_conservation) {
            std::vector<sci::harness::conservation_snapshot> snaps;
            for (std::size_t r = 0; r < set.region_count(); ++r) {
                snaps.push_back(
                    sci::harness::collect_conservation(set.region(r)));
            }
            show(sci::harness::check_cross_region_conservation(snaps));
        }
    }
    return run;
}

/// Worst contention and the VM utilization classes of a store (Figures 9
/// and 14); `contention_note` ends the contention line.
void print_utilization(const sci::metric_store& store,
                       std::string_view contention_note, bool vm_count) {
    double worst_mean = 0.0, worst_max = 0.0;
    for (const auto& day : sci::fig9_contention_by_day(store)) {
        worst_mean = std::max(worst_mean, day.mean_pct);
        worst_max = std::max(worst_max, day.max_pct);
    }
    std::cout << "-- contention -- worst daily mean "
              << sci::format_double(worst_mean) << "%, worst node max "
              << sci::format_double(worst_max) << "%" << contention_note
              << "\n";
    const auto print = [](std::string_view resource, const auto& classes) {
        std::cout << "-- VM " << resource << " util -- "
                  << sci::format_double(classes.under_pct) << "% under / "
                  << sci::format_double(classes.optimal_pct) << "% optimal / "
                  << sci::format_double(classes.over_pct) << "% over";
    };
    const auto cpu = sci::fig14a_cpu_utilization(store);
    print("CPU", cpu.classes);
    if (vm_count) std::cout << " (" << cpu.classes.vm_count << " VMs)";
    std::cout << "\n";
    print("mem", sci::fig14b_memory_utilization(store).classes);
    std::cout << "\n";
}

int cmd_simulate(const cli_options& options) {
    const resolved_run resolved = resolve_run(options);
    const finished_run run = run_regions(options, resolved);
    sci::region_set& set = *run.set;
    if (resolved.region_specs.empty()) {
        std::cout << "exporting dataset to " << options.out_dir << " ...\n";
        const auto report =
            sci::export_dataset(set.region(0).store(), options.out_dir);
        const std::size_t events = sci::export_events_csv(
            set.region(0).events(), options.out_dir / "events.csv");
        std::cout << "  " << report.metrics_exported << " metrics, "
                  << report.series_exported << " series, "
                  << report.daily_rows << " daily rows, " << events
                  << " scheduling events\n";
        return run.invariants_ok ? 0 : 1;
    }
    std::cout << "exporting per-region datasets + fleet aggregation to "
              << options.out_dir << " ...\n";
    const sci::region_export_report report =
        set.export_datasets(options.out_dir);
    std::size_t events = 0;
    for (std::size_t r = 0; r < set.region_count(); ++r) {
        events += sci::export_events_csv(
            set.region(r).events(),
            options.out_dir / set.spec(r).name / "events.csv");
    }
    std::cout << "  " << report.combined.metrics_exported << " metrics, "
              << report.combined.series_exported << " series, "
              << report.combined.daily_rows << " daily rows, " << events
              << " scheduling events across " << set.region_count()
              << " regions\n";
    return run.invariants_ok ? 0 : 1;
}

int cmd_report(const cli_options& options) {
    const resolved_run resolved = resolve_run(options);
    const finished_run run = run_regions(options, resolved);
    sci::region_set& set = *run.set;
    const bool solo = resolved.region_specs.empty();
    if (solo) {
        sci::sim_engine& engine = set.region(0);
        if (!options.markdown_file.empty()) {
            std::ofstream out(options.markdown_file);
            if (!out.good()) {
                std::cerr << "cannot write " << options.markdown_file << "\n";
                return 1;
            }
            sci::write_markdown_report(out, engine);
            std::cout << "wrote markdown report to " << options.markdown_file
                      << "\n";
            return run.invariants_ok ? 0 : 1;
        }
        const sci::fleet& fleet = engine.infrastructure();
        const sci::dc_id dc = fleet.dcs().front().id;
        std::cout << "\n-- Figure 5: % free CPU per node ("
                  << fleet.get(dc).name << ") --\n"
                  << render_heatmap_ascii(
                         sci::fig5_free_cpu_per_node(engine.store(), fleet, dc));
        std::cout << "\n";
        print_utilization(engine.store(), " (paper: <5% / >40%)", false);
    }
    // a multi-region report stops at the scheduling summaries: the
    // per-node figures stay a single-region view
    std::uint64_t creates = 0, removes = 0, migrations = 0, evacs = 0;
    for (std::size_t r = 0; r < set.region_count(); ++r) {
        const sci::event_log& events = set.region(r).events();
        creates += events.count(sci::lifecycle_event_kind::create);
        removes += events.count(sci::lifecycle_event_kind::remove);
        migrations += events.count(sci::lifecycle_event_kind::migrate);
        evacs += events.count(sci::lifecycle_event_kind::evacuate);
    }
    std::cout << (solo ? "-- events" : "-- fleet events") << " -- creates "
              << creates << ", deletes " << removes << ", migrations "
              << migrations << ", evacuations " << evacs << "\n";
    return run.invariants_ok ? 0 : 1;
}

int cmd_analyze(const cli_options& options) {
    std::cout << "importing dataset from " << options.out_dir << " ...\n";
    const sci::metric_store store = sci::import_dataset(options.out_dir);
    std::cout << "  " << store.series_count() << " series, "
              << store.total_samples() << " samples (daily aggregates)\n\n";

    print_utilization(store, "", true);
    // events, if exported
    const auto events_file = options.out_dir / "events.csv";
    if (std::filesystem::exists(events_file)) {
        const auto events = sci::import_events_csv(events_file);
        std::cout << "-- events -- " << events.size()
                  << " scheduling events in events.csv\n";
    }
    return 0;
}

int cmd_advisor(const cli_options& options) {
    const resolved_run resolved = resolve_run(options);
    if (!resolved.region_specs.empty()) {
        std::cerr << "advisor is a per-region analysis; run it without "
                     "--regions\n";
        return 2;
    }
    const finished_run run = run_regions(options, resolved);
    const sci::sim_engine& engine = run.set->region(0);
    const auto recs = sci::recommend_cpu_overcommit(
        engine.store(), engine.infrastructure(), engine.placement(), {});
    sci::table_printer table({"building block", "purpose", "current ratio",
                              "p95 util %", "max contention %", "recommended"});
    for (const auto& r : recs) {
        table.add_row({r.bb_name, std::string(to_string(r.purpose)),
                       sci::format_double(r.current_ratio),
                       sci::format_double(r.observed_p95_util_pct),
                       sci::format_double(r.observed_max_contention_pct),
                       sci::format_double(r.recommended_ratio)});
    }
    std::cout << "\n" << table.to_string();
    return run.invariants_ok ? 0 : 1;
}

int cmd_fleet() {
    const sci::scenario global = sci::make_global_scenario();
    sci::table_printer table({"region", "dc", "hypervisors", "VMs (paper)"});
    std::size_t index = 0;
    for (const sci::dc_spec& spec : sci::table5_datacenters()) {
        const sci::datacenter& dc = global.infrastructure.dcs()[index++];
        table.add_row({std::to_string(spec.region_id), spec.dc_name,
                       std::to_string(
                           global.infrastructure.nodes_of_dc(dc.id).size()),
                       std::to_string(spec.vms)});
    }
    std::cout << table.to_string();
    return 0;
}

void usage() {
    std::cout << "usage: scisim <simulate|report|analyze|advisor|fleet> "
                 "[--scale S] [--seed N] [--out DIR] [--markdown FILE]\n"
                 "  SCI_BENCH_DAYS=N          play only the first N days of "
                 "the window\n"
                 "scenario harness (sci::harness):\n"
                 "  --scenario FILE           run a *.scn scenario file "
                 "(engine + fault\n"
                 "                            config from the file; explicit "
                 "CLI flags win)\n"
                 "  --regions N               simulate/report: run N regions "
                 "concurrently on\n"
                 "                            one shared pool (per-region "
                 "derived seeds) and\n"
                 "                            aggregate stats + datasets "
                 "fleet-wide\n"
                 "  --check-invariants        evaluate the scenario's "
                 "invariants after the\n"
                 "                            run (without a scenario: "
                 "admission accounting,\n"
                 "                            no silent drops, conservation); "
                 "exit 1 on any\n"
                 "                            violation\n"
                 "checkpointing (sci::snapshot):\n"
                 "  --snapshot-at T           checkpoint the run at event "
                 "time T seconds\n"
                 "                            (multi-region: one file per "
                 "region)\n"
                 "  --snapshot-out PATH       checkpoint file (default "
                 "scisim.snap)\n"
                 "  --restore PATH            resume from a checkpoint "
                 "instead of a fresh\n"
                 "                            setup (repeat once per region, "
                 "in region order)\n"
                 "fault injection (sci::fault; all default off):\n"
                 "  --crash-rate R            host crashes per node per day\n"
                 "  --claim-fail P            transient placement-claim failure "
                 "probability\n"
                 "  --mig-abort P             live-migration abort probability\n"
                 "  --degraded F              fraction of nodes degraded "
                 "in-window\n"
                 "  --degraded-cpu-factor C   effective CPU factor while "
                 "degraded (default 0.6)\n"
                 "  --maintenance N           unplanned maintenance windows\n"
                 "backpressure (sci::sched):\n"
                 "  --backpressure MODE       overload handling: degrade "
                 "(default, immediate\n"
                 "                            NoValidHost), queue (bounded "
                 "deadline queue,\n"
                 "                            capacity 256 / deadline 3600s), "
                 "or shed (queue +\n"
                 "                            priority eviction); a --scenario "
                 "file's\n"
                 "                            [backpressure] section wins "
                 "over this flag\n";
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string command = argv[1];
    try {
        if (command == "simulate") return cmd_simulate(parse_options(argc, argv, 2));
        if (command == "report") return cmd_report(parse_options(argc, argv, 2));
        if (command == "analyze") return cmd_analyze(parse_options(argc, argv, 2));
        if (command == "advisor") return cmd_advisor(parse_options(argc, argv, 2));
        if (command == "fleet") return cmd_fleet();
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    usage();
    return 2;
}
