#include "ledger.hpp"

#include <sstream>

#include "harness/harness.hpp"

namespace perfbench {
namespace {

std::string describe(const fingerprint& fp) {
    std::ostringstream os;
    os << "events=" << fp.event_count << " events_hash=" << std::hex
       << fp.events_hash << " stats_hash=" << fp.stats_hash;
    return os.str();
}

}  // namespace

const char* to_string(op_kind kind) {
    switch (kind) {
        case op_kind::window: return "window";
        case op_kind::setup: return "setup";
        case op_kind::whatif_batch: return "whatif_batch";
        case op_kind::restore: return "restore";
    }
    return "?";
}

fingerprint fingerprint_of(const sci::sim_engine& engine) {
    return fingerprint{engine.events().size(),
                       sci::harness::events_fingerprint(engine.events()),
                       sci::harness::stats_fingerprint(engine.stats())};
}

std::string compare_fingerprints(const fingerprint& actual,
                                 const fingerprint& expected) {
    if (actual == expected) return {};
    return "fingerprint " + describe(actual) + " != reference " +
           describe(expected);
}

std::string compare_landings(const sci::snapshot::whatif_result& actual,
                             const sci::snapshot::whatif_result& expected) {
    if (actual.landings.size() != expected.landings.size()) {
        return "landing count " + std::to_string(actual.landings.size()) +
               " != reference " + std::to_string(expected.landings.size());
    }
    for (std::size_t i = 0; i < actual.landings.size(); ++i) {
        if (actual.landings[i] != expected.landings[i]) {
            const auto show = [](const std::optional<sci::bb_id>& bb) {
                return bb ? std::to_string(bb->value()) : std::string("none");
            };
            return "query " + std::to_string(i) + " landed on bb " +
                   show(actual.landings[i]) + ", reference bb " +
                   show(expected.landings[i]);
        }
    }
    return {};
}

std::string failed_invariants(
    const std::vector<sci::harness::invariant_result>& verdicts) {
    std::string out;
    for (const auto& v : verdicts) {
        if (v.passed) continue;
        out += (out.empty() ? "" : "; ") + v.name + ": " + v.detail;
    }
    return out;
}

void failure_ledger::record(op_kind kind, const std::string& problem) {
    const auto k = static_cast<std::size_t>(kind);
    ++attempted_[k];
    if (problem.empty()) return;
    ++failed_[k];
    if (problems_.size() < max_problems) {
        problems_.push_back(std::string(to_string(kind)) + ": " + problem);
    }
}

std::uint64_t failure_ledger::attempted() const {
    std::uint64_t total = 0;
    for (const auto a : attempted_) total += a;
    return total;
}

std::uint64_t failure_ledger::failed() const {
    std::uint64_t total = 0;
    for (const auto f : failed_) total += f;
    return total;
}

std::uint64_t failure_ledger::attempted(op_kind kind) const {
    return attempted_[static_cast<std::size_t>(kind)];
}

std::uint64_t failure_ledger::failed(op_kind kind) const {
    return failed_[static_cast<std::size_t>(kind)];
}

double failure_ledger::failed_share() const {
    const std::uint64_t a = attempted();
    return a == 0 ? 0.0
                  : static_cast<double>(failed()) / static_cast<double>(a);
}

}  // namespace perfbench
