#pragma once

// Field lists: a config struct lists every field once, as
// Config::for_each_field(config, fn) calling fn(config_key, field), and
// the scenario DSL, the snapshot codec and the tools walk that list.
// leaf_count is the tripwire that keeps a list complete.

#include <cstddef>
#include <string_view>
#include <type_traits>

namespace sci {

/// Where a listed config field lives in the scenario DSL.
struct config_key {
    /// DSL section ("engine", "fault", "backpressure"); empty when the
    /// field travels only in snapshots.
    std::string_view section;
    std::string_view name;  ///< key within the section
    /// A [region.N] section may override it.
    bool per_region = false;
    /// Second field set by a key another entry already renders.
    bool mirror = false;

    bool codec_only() const { return section.empty(); }
};

/// Converts to any scalar, so `T{any_scalar{}...}` brace-elides into
/// nested aggregates and initializes one scalar (or optional) per element.
struct any_scalar {
    template <typename T>
        requires std::is_scalar_v<T>
    constexpr operator T() const {
        return T{};
    }
};

/// Number of scalar/optional leaves of an aggregate, nested aggregates
/// flattened: the most initializers T{...} accepts.
template <typename T, typename... Leaves>
constexpr std::size_t leaf_count() {
    if constexpr (requires { T{Leaves{}..., any_scalar{}}; }) {
        return leaf_count<T, Leaves..., any_scalar>();
    } else {
        return sizeof...(Leaves);
    }
}

/// Entries of a config's field list.
template <typename Config>
constexpr std::size_t listed_field_count() {
    Config probe{};
    std::size_t n = 0;
    Config::for_each_field(probe, [&](auto&&...) { ++n; });
    return n;
}

}  // namespace sci
