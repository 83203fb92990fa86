#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::vector<ns_t> self_times(const std::vector<span>& spans) {
    std::vector<std::vector<std::pair<ns_t, ns_t>>> children(spans.size());
    for (const span& s : spans) {
        if (s.parent < 0) continue;
        const span& p = spans[static_cast<std::size_t>(s.parent)];
        const ns_t lo = std::max(s.start, p.start);
        const ns_t hi = std::min(s.end, p.end);
        if (hi > lo) {
            children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
        }
    }
    std::vector<ns_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& cs = children[i];
        std::sort(cs.begin(), cs.end());
        ns_t covered = 0;
        ns_t reach = spans[i].start;
        for (const auto& [lo, hi] : cs) {
            const ns_t from = std::max(lo, reach);
            if (hi > from) covered += hi - from;
            reach = std::max(reach, hi);
        }
        self[i] = (spans[i].end - spans[i].start) - covered;
    }
    return self;
}

span_recorder::span_recorder(bool enabled)
    : enabled_(enabled), epoch_(clock_type::now()) {}

ns_t span_recorder::now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               clock_type::now() - epoch_)
        .count();
}

int span_recorder::open(std::string name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    const ns_t t = now();
    spans_.push_back(span{std::move(name), t, t, parent});
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
}

void span_recorder::close(int index) {
    if (index < 0) return;
    if (open_.empty() || open_.back() != index) {
        throw std::logic_error("span_recorder: spans closed out of order");
    }
    spans_[static_cast<std::size_t>(index)].end = now();
    open_.pop_back();
}

void span_recorder::add(std::string name, ns_t start, ns_t end) {
    if (!enabled_) return;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(span{std::move(name), start, end, parent});
}

std::map<std::string, double> span_recorder::self_seconds_by_name() const {
    std::map<std::string, double> out;
    const std::vector<ns_t> self = self_times(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
    }
    return out;
}

void span_recorder::write_json(
    const std::filesystem::path& file,
    const std::map<std::string, std::string>& meta) const {
    std::ofstream os(file);
    if (!os) throw std::runtime_error("cannot write " + file.string());
    const std::vector<ns_t> self = self_times(spans_);
    os << "{\"meta\": {";
    bool first = true;
    for (const auto& [key, value] : meta) {
        os << (first ? "" : ", ") << '"' << key << "\": \"" << value << '"';
        first = false;
    }
    os << "},\n\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span& s = spans_[i];
        os << "{\"id\": " << i << ", \"name\": \"" << s.name
           << "\", \"parent\": " << s.parent << ", \"start_ns\": " << s.start
           << ", \"end_ns\": " << s.end << ", \"self_ns\": " << self[i] << '}'
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
}

}  // namespace perfbench
