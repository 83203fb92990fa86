#pragma once

// Test helpers over the config field lists (engine_config and
// invariant_config ::for_each_field): move every field off its value, and
// print every field so two configs compare as one vector.

#include <cstddef>
#include <ios>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/engine.hpp"

namespace sci::testing_fields {

template <typename T>
constexpr bool is_optional = false;
template <typename T>
constexpr bool is_optional<std::optional<T>> = true;

/// Move `field` to a value other than its current one (n >= 1 spreads
/// the values apart; doubles get a fraction so every bit must travel).
template <typename T>
void set_other(T& field, int n) {
    if constexpr (is_optional<T>) {
        typename T::value_type inner = field.value_or(typename T::value_type{});
        set_other(inner, n);
        field = inner;
    } else if constexpr (std::is_same_v<T, bool>) {
        field = !field;
    } else if constexpr (std::is_floating_point_v<T>) {
        field += n + 0.25;
    } else if constexpr (std::is_enum_v<T>) {
        static_assert(std::is_same_v<T, backpressure_mode>);
        field = field == backpressure_mode::queue ? backpressure_mode::shed
                                                  : backpressure_mode::queue;
    } else {
        field += static_cast<T>(n);
    }
}

/// "section.key=value" per listed field ("#index=value" for codec-only
/// fields), values exact (doubles in hex).
template <typename Config>
std::vector<std::string> field_values(const Config& config) {
    std::vector<std::string> out;
    Config::for_each_field(config, [&](const config_key& key,
                                       const auto& field) {
        std::ostringstream line;
        if (key.codec_only()) {
            line << "#" << out.size();
        } else {
            line << key.section << "." << key.name;
        }
        line << "=" << std::hexfloat;
        const auto print = [&](const auto& value) {
            using V = std::remove_cvref_t<decltype(value)>;
            if constexpr (std::is_enum_v<V>) {
                line << static_cast<int>(value);
            } else {
                line << value;
            }
        };
        if constexpr (is_optional<std::remove_cvref_t<decltype(field)>>) {
            if (field.has_value()) print(*field);
            else line << "unset";
        } else {
            print(field);
        }
        out.push_back(line.str());
    });
    return out;
}

}  // namespace sci::testing_fields
