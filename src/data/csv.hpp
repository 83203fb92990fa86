#pragma once

// Minimal RFC-4180-ish CSV reading/writing (the published dataset is
// "anonymized telemetry data in CSV format", Appendix B).

#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simcore/parse.hpp"

namespace sci {

/// Quote/escape a field if needed (commas, quotes, newlines).
std::string csv_escape(std::string_view field);

/// Parse one CSV line into fields (handles quoted fields with embedded
/// commas and doubled quotes).  Throws sci::error on malformed input.
std::vector<std::string> csv_parse_line(std::string_view line);

class csv_writer {
public:
    explicit csv_writer(std::ostream& os) : os_(os) {}

    void write_row(std::span<const std::string> fields);
    void write_row(std::initializer_list<std::string_view> fields);

    std::size_t rows_written() const { return rows_; }

private:
    std::ostream& os_;
    std::size_t rows_ = 0;
};

class csv_reader {
public:
    /// `source` names the input in errors (e.g. "reader_fn: file").
    explicit csv_reader(std::istream& is, std::string source = {})
        : is_(is), source_(std::move(source)) {}

    /// Read the next row; false at end of input.  Skips blank lines.
    bool next_row(std::vector<std::string>& fields);

    std::size_t rows_read() const { return rows_; }

    /// A cell of the row last read as a T; a malformed number throws
    /// sci::error naming the source and the row.
    template <typename T>
    T number(const std::string& cell) const {
        if (const std::optional<T> value = to_number<T>(cell)) return *value;
        return parse_number<T>(cell, source_ + " row " + std::to_string(rows_));
    }

private:
    std::istream& is_;
    std::string source_;
    std::size_t rows_ = 0;
};

}  // namespace sci
