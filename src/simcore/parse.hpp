#pragma once

// Checked numbers from text: scenario files, command-line flags, CSV
// imports, trace files and the environment all read numbers through
// these, so "abc", "2x" or "" is an error that names its source instead
// of a silent 0.

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "simcore/error.hpp"
#include "simcore/time.hpp"

namespace sci {

/// `text` without leading blanks/tabs and trailing blanks/tabs/CRs.
inline std::string_view trim(std::string_view text) {
    const std::size_t last = text.find_last_not_of(" \t\r");
    if (last == std::string_view::npos) return {};
    const std::size_t first = text.find_first_not_of(" \t");
    return text.substr(first, last - first + 1);
}

/// `text` as a T when it is exactly one in-range number (std::from_chars:
/// no surrounding whitespace, no leading '+', nothing after it).  `base`
/// applies to integral T.
template <typename T>
    requires std::is_arithmetic_v<T>
std::optional<T> to_number(std::string_view text, int base = 10) {
    T out{};
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = [&] {
        if constexpr (std::is_integral_v<T>) {
            return std::from_chars(text.data(), end, out, base);
        } else {
            return std::from_chars(text.data(), end, out);
        }
    }();
    if (ec != std::errc{} || ptr != end) {
        return std::nullopt;
    }
    return out;
}

/// to_number, or sci::error("<where>: expected a number, got '<text>'")
/// ("an integer" for integral T).
template <typename T>
    requires std::is_arithmetic_v<T>
T parse_number(std::string_view text, std::string_view where, int base = 10) {
    if (const std::optional<T> value = to_number<T>(text, base)) return *value;
    throw error(std::string(where) +
                (std::is_integral_v<T> ? ": expected an integer, got '"
                                       : ": expected a number, got '") +
                std::string(text) + "'");
}

/// SCI_BENCH_DAYS, the smoke-run cap on the simulated window: 0 (play the
/// full window) when unset or empty, else the number of days, at most
/// observation_days.  A value that is not an integer throws sci::error.
inline int bench_days_cap() {
    const char* value = std::getenv("SCI_BENCH_DAYS");
    if (value == nullptr || *value == '\0') return 0;
    return std::clamp(parse_number<int>(value, "SCI_BENCH_DAYS"), 0,
                      observation_days);
}

}  // namespace sci
