// sciverify — the scenario + invariants harness ("physics CI").
//
//   sciverify [options] <scenario.scn | directory>...
//
// Loads every named scenario (directories are scanned for *.scn, sorted
// by filename), runs each through a fresh engine with its invariants
// attached, and prints one JSON summary to stdout — progress and the
// human-readable verdict go to stderr, so `sciverify scenarios/ >
// summary.json` is all CI needs.  Exit code 0 iff every scenario passes
// (all invariants hold and every declared replay trace matches).
//
//   --record          write/refresh replay traces instead of comparing
//   --days N          cap each run to the first N simulated days
//                     (default: the SCI_BENCH_DAYS environment variable,
//                     else the full 30-day observation window)
//   --threads N       worker-thread override (default: SCI_THREADS)
//   --watch           assert the scrape-checkable invariants at every
//                     scrape barrier instead of spot-checking
//
// Replay traces are recorded, not committed: the fingerprints cover
// floating-point history, reproducible per-toolchain but not across
// libm versions.  CI records and replays within one job.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "harness/harness.hpp"
#include "harness/scenario_dsl.hpp"
#include "simcore/parse.hpp"
#include "simcore/thread_pool.hpp"

namespace {

void usage() {
    std::cerr
        << "usage: sciverify [options] <scenario.scn | directory>...\n"
           "  --record      write/refresh replay traces instead of comparing\n"
           "  --days N      cap each run to the first N simulated days\n"
           "                (default: SCI_BENCH_DAYS env, else full window)\n"
           "  --threads N   worker-thread override (default: SCI_THREADS)\n"
           "  --watch       assert scrape-checkable invariants at every\n"
           "                scrape barrier instead of spot-checking\n"
           "\n"
           "Prints a JSON pass/fail summary to stdout; progress goes to\n"
           "stderr.  Exit 0 iff every scenario passes.\n";
}

std::vector<std::filesystem::path> collect_scenarios(
    const std::vector<std::filesystem::path>& inputs) {
    std::vector<std::filesystem::path> files;
    for (const auto& input : inputs) {
        if (std::filesystem::is_directory(input)) {
            std::vector<std::filesystem::path> found;
            for (const auto& entry :
                 std::filesystem::directory_iterator(input)) {
                if (entry.is_regular_file() &&
                    entry.path().extension() == ".scn") {
                    found.push_back(entry.path());
                }
            }
            std::sort(found.begin(), found.end());
            files.insert(files.end(), found.begin(), found.end());
        } else {
            files.push_back(input);
        }
    }
    return files;
}

}  // namespace

int main(int argc, char** argv) {
    sci::harness::run_options options;
    std::vector<std::filesystem::path> inputs;
    try {
        options.days = sci::bench_days_cap();
        (void)sci::thread_pool::env_threads();  // a bad SCI_THREADS exits 2
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto next = [&]() -> const char* {
                if (i + 1 >= argc) {
                    std::cerr << "missing value for " << arg << "\n";
                    std::exit(2);
                }
                return argv[++i];
            };
            if (arg == "--record") {
                options.record_trace = true;
            } else if (arg == "--days") {
                options.days = sci::parse_number<int>(next(), arg);
            } else if (arg == "--threads") {
                options.threads = sci::parse_number<unsigned>(next(), arg);
            } else if (arg == "--watch") {
                options.watch = true;
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else if (!arg.empty() && arg[0] == '-') {
                std::cerr << "unknown option: " << arg << "\n";
                usage();
                return 2;
            } else {
                inputs.emplace_back(arg);
            }
        }
    } catch (const sci::error& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    if (inputs.empty()) {
        usage();
        return 2;
    }

    const auto files = collect_scenarios(inputs);
    if (files.empty()) {
        std::cerr << "no *.scn scenarios found\n";
        return 2;
    }

    std::vector<sci::harness::scenario_outcome> outcomes;
    bool all_passed = true;
    for (const auto& file : files) {
        try {
            const auto spec = sci::harness::load_scenario_file(file);
            std::cerr << "running " << spec.name << " ("
                      << spec.invariants.count() << " invariants) ...\n";
            auto outcome = sci::harness::run_scenario(spec, options);
            for (const auto& r : outcome.invariants) {
                std::cerr << "  " << to_string(r) << "\n";
            }
            if (outcome.replay != sci::harness::replay_status::none) {
                std::cerr << "  replay: " << to_string(outcome.replay)
                          << " — " << outcome.replay_detail << "\n";
            }
            all_passed = all_passed && outcome.passed();
            outcomes.push_back(std::move(outcome));
        } catch (const std::exception& e) {
            std::cerr << "error: " << file.string() << ": " << e.what()
                      << "\n";
            return 2;
        }
    }

    std::cout << sci::harness::outcomes_json(outcomes);
    std::cerr << (all_passed ? "all scenarios passed"
                             : "scenario violations detected")
              << " (" << outcomes.size() << " scenarios)\n";
    return all_passed ? 0 : 1;
}
