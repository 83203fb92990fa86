#include "harness/scenario_dsl.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "simcore/error.hpp"
#include "simcore/parse.hpp"

namespace sci::harness {

namespace {

std::string line_where(int line) {
    return "scenario parse: line " + std::to_string(line);
}

[[noreturn]] void parse_fail(int line, const std::string& message) {
    throw error(line_where(line) + ": " + message);
}

/// Shortest decimal that round-trips the double (so rendered files stay
/// as readable as hand-written ones and parse back bit-identically).
std::string format_double(double value) {
    char buf[32];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    ensures(ec == std::errc{}, "format_double: to_chars failed");
    return std::string(buf, ptr);
}

template <typename T>
constexpr bool is_optional = false;
template <typename T>
constexpr bool is_optional<std::optional<T>> = true;

/// The one typed setter per value kind: `field` = the DSL text `value`.
template <typename T>
void assign(T& field, std::string_view key, std::string_view value,
            std::string_view where) {
    const auto fail = [&](const std::string& message) {
        throw error(std::string(where) + ": " + message);
    };
    if constexpr (is_optional<T>) {
        typename T::value_type inner{};
        assign(inner, key, value, where);
        field = inner;
    } else if constexpr (std::is_same_v<T, bool>) {
        if (value != "true" && value != "false") {
            fail("expected true/false, got '" + std::string(value) + "'");
        }
        field = value == "true";
    } else if constexpr (std::is_floating_point_v<T>) {
        field = parse_number<double>(value, where);
    } else if constexpr (std::is_enum_v<T>) {
        static_assert(std::is_same_v<T, backpressure_mode>);
        const std::optional<backpressure_mode> mode =
            backpressure_mode_from(value);
        if (!mode.has_value()) {
            fail("expected degrade/queue/shed, got '" + std::string(value) +
                 "'");
        }
        field = *mode;
    } else {
        if (std::is_unsigned_v<T> &&
            to_number<std::int64_t>(value).value_or(0) < 0) {
            fail(std::string(key) + " must be >= 0");
        }
        field = parse_number<T>(value, where);
    }
}

/// Canonical DSL text of a value (an optional renders its value).
template <typename T>
std::string format_value(const T& value) {
    if constexpr (is_optional<T>) {
        return format_value(*value);
    } else if constexpr (std::is_same_v<T, bool>) {
        return value ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<T>) {
        return format_double(value);
    } else if constexpr (std::is_enum_v<T>) {
        return std::string(to_string(value));
    } else {
        return std::to_string(value);
    }
}

/// `key = value` lines of the fields listed under [section], in list
/// order; mirrors and unset optionals are left out.
template <typename Config>
void render_section(std::ostream& out, const Config& config,
                    std::string_view section) {
    out << "\n[" << section << "]\n";
    Config::for_each_field(config, [&](const config_key& entry,
                                       const auto& field) {
        if (entry.section != section || entry.mirror) return;
        if constexpr (is_optional<std::remove_cvref_t<decltype(field)>>) {
            if (!field.has_value()) return;
        }
        out << entry.name << " = " << format_value(field) << "\n";
    });
}

/// Assign `value` to every field listed under `key` whose entry `match`
/// accepts; the value's canonical text, or nullopt when none matched.
template <typename Config, typename Match>
std::optional<std::string> assign_key(Config& config, std::string_view key,
                                      std::string_view value,
                                      std::string_view where, Match match) {
    std::optional<std::string> canonical;
    Config::for_each_field(config, [&](const config_key& entry, auto& field) {
        if (entry.name != key || !match(entry)) return;
        assign(field, key, value, where);
        canonical = format_value(field);
    });
    return canonical;
}

template <typename Config>
void set_key(Config& config, std::string_view section, std::string_view key,
             std::string_view value, std::string_view where) {
    const auto in_section = [&](const config_key& e) {
        return e.section == section;
    };
    if (!assign_key(config, key, value, where, in_section)) {
        throw error(std::string(where) + ": unknown [" + std::string(section) +
                    "] key '" + std::string(key) + "'");
    }
}

bool overridable(const config_key& entry) { return entry.per_region; }

/// The engine_config sections, in rendered order.
constexpr std::array<std::string_view, 3> config_sections{
    "engine", "fault", "backpressure"};

enum class section {
    none, scenario, config, invariants, snapshot, region, replay
};

}  // namespace

void set_config_key(engine_config& config, std::string_view section,
                    std::string_view key, std::string_view value,
                    std::string_view where) {
    set_key(config, section, key, value, where);
}

scenario_spec parse_scenario(std::string_view text) {
    scenario_spec spec;
    section current = section::none;
    std::string_view config_section;  // which of config_sections is open
    std::size_t current_region = 0;  // index into spec.regions while parsing
    int line_no = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t eol = text.find('\n', pos);
        std::string_view line = text.substr(
            pos, eol == std::string_view::npos ? text.size() - pos
                                               : eol - pos);
        pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
        ++line_no;

        if (const std::size_t hash = line.find('#');
            hash != std::string_view::npos) {
            line = line.substr(0, hash);
        }
        line = trim(line);
        if (line.empty()) continue;

        if (line.front() == '[') {
            if (line.back() != ']') parse_fail(line_no, "unterminated section");
            const std::string_view name = line.substr(1, line.size() - 2);
            if (name == "scenario") current = section::scenario;
            else if (std::ranges::find(config_sections, name) !=
                     config_sections.end()) {
                current = section::config;
                config_section = name;
            }
            else if (name == "invariants") current = section::invariants;
            else if (name == "snapshot") current = section::snapshot;
            else if (name == "replay") current = section::replay;
            else if (name.starts_with("region.")) {
                const std::int64_t index = parse_number<std::int64_t>(
                    name.substr(7), line_where(line_no));
                if (index < 0) parse_fail(line_no, "negative region index");
                for (const region_override& r : spec.regions) {
                    if (r.index == static_cast<std::size_t>(index)) {
                        parse_fail(line_no, "duplicate section '[" +
                                                std::string(name) + "]'");
                    }
                }
                region_override region;
                region.index = static_cast<std::size_t>(index);
                current_region = spec.regions.size();
                spec.regions.push_back(region);
                current = section::region;
            }
            else parse_fail(line_no,
                            "unknown section '" + std::string(name) + "'");
            continue;
        }

        const std::size_t eq = line.find('=');
        if (eq == std::string_view::npos) {
            parse_fail(line_no, "expected 'key = value'");
        }
        const std::string_view key = trim(line.substr(0, eq));
        const std::string_view value = trim(line.substr(eq + 1));
        if (key.empty()) parse_fail(line_no, "empty key");

        const std::string where = line_where(line_no);
        switch (current) {
            case section::none:
                parse_fail(line_no, "key outside any [section]");
            case section::scenario:
                if (key == "name") spec.name = std::string(value);
                else if (key == "description") {
                    spec.description = std::string(value);
                } else {
                    parse_fail(line_no, "unknown [scenario] key '" +
                                            std::string(key) + "'");
                }
                break;
            case section::config:
                set_key(spec.config, config_section, key, value, where);
                break;
            case section::invariants:
                set_key(spec.invariants, "invariants", key, value, where);
                break;
            case section::snapshot:
                if (key == "at") {
                    const auto at = parse_number<std::int64_t>(value, where);
                    if (at <= 0) {
                        parse_fail(line_no,
                                   "snapshot barrier must be positive");
                    }
                    spec.snapshot_at = static_cast<sim_duration>(at);
                } else {
                    parse_fail(line_no, "unknown [snapshot] key '" +
                                            std::string(key) + "'");
                }
                break;
            case section::region: {
                region_override& region = spec.regions[current_region];
                if (key == "name") {
                    region.name = std::string(value);
                    break;
                }
                // validated and made canonical on a scratch config, applied
                // to the region's real base by region_specs_of
                engine_config scratch;
                std::optional<std::string> canonical =
                    assign_key(scratch, key, value, where, overridable);
                if (!canonical.has_value()) {
                    parse_fail(line_no, "unknown [region] key '" +
                                            std::string(key) + "'");
                }
                region.assignments.insert_or_assign(std::string(key),
                                                    std::move(*canonical));
                break;
            }
            case section::replay:
                if (key == "trace") {
                    spec.trace = std::filesystem::path(std::string(value));
                } else {
                    parse_fail(line_no, "unknown [replay] key '" +
                                            std::string(key) + "'");
                }
                break;
        }
    }
    if (spec.name.empty()) {
        throw error("scenario parse: missing [scenario] name");
    }
    // canonical region order: by index, and the indexes must be exactly
    // 0..K-1 (a gap would silently drop a region the author counted on)
    std::sort(spec.regions.begin(), spec.regions.end(),
              [](const region_override& a, const region_override& b) {
                  return a.index < b.index;
              });
    for (std::size_t r = 0; r < spec.regions.size(); ++r) {
        if (spec.regions[r].index != r) {
            throw error("scenario parse: region indexes must be contiguous "
                        "from 0; missing [region." +
                        std::to_string(r) + "]");
        }
    }
    return spec;
}

std::vector<region_spec> region_specs_of(const scenario_spec& spec) {
    std::vector<region_spec> out = make_region_specs(
        spec.config, std::max<std::size_t>(spec.regions.size(), 1));
    for (const region_override& region : spec.regions) {
        region_spec& rs = out[region.index];
        if (!region.name.empty()) rs.name = region.name;
        for (const auto& [key, value] : region.assignments) {
            assign_key(rs.config, key, value, "region_specs_of", overridable);
        }
    }
    for (std::size_t a = 0; a < out.size(); ++a) {
        for (std::size_t b = a + 1; b < out.size(); ++b) {
            if (out[a].name == out[b].name) {
                throw error("region_specs_of: duplicate region name '" +
                            out[a].name + "'");
            }
        }
    }
    return out;
}

std::string render_scenario(const scenario_spec& spec) {
    std::ostringstream out;
    out << "[scenario]\n";
    out << "name = " << spec.name << "\n";
    out << "description = " << spec.description << "\n";
    for (const std::string_view section : config_sections) {
        render_section(out, spec.config, section);
    }
    render_section(out, spec.invariants, "invariants");
    if (spec.snapshot_at.has_value()) {
        out << "\n[snapshot]\n";
        out << "at = " << *spec.snapshot_at << "\n";
    }
    for (const region_override& region : spec.regions) {
        out << "\n[region." << region.index << "]\n";
        if (!region.name.empty()) out << "name = " << region.name << "\n";
        // the assignments in field-list order
        const engine_config list_order;
        engine_config::for_each_field(
            list_order, [&](const config_key& entry, const auto&) {
                if (!entry.per_region || entry.mirror) return;
                const auto set = region.assignments.find(entry.name);
                if (set != region.assignments.end()) {
                    out << set->first << " = " << set->second << "\n";
                }
            });
    }
    if (!spec.trace.empty()) {
        out << "\n[replay]\n";
        out << "trace = " << spec.trace.generic_string() << "\n";
    }
    return out.str();
}

scenario_spec load_scenario_file(const std::filesystem::path& file) {
    std::ifstream in(file);
    if (!in.good()) {
        throw not_found_error("load_scenario_file: cannot read " +
                              file.string());
    }
    std::ostringstream text;
    text << in.rdbuf();
    scenario_spec spec;
    try {
        spec = parse_scenario(text.str());
    } catch (const error& e) {
        throw error(file.string() + ": " + e.what());
    }
    if (!spec.trace.empty() && spec.trace.is_relative()) {
        spec.trace = file.parent_path() / spec.trace;
    }
    return spec;
}

}  // namespace sci::harness
