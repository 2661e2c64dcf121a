// Small string helpers shared by the MiniC front end, trace formats and
// table printers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cmarkov {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Joins items with the separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// True if `text` ends with `suffix`.
bool ends_with(std::string_view text, std::string_view suffix);

/// Formats a double with fixed precision (no locale surprises).
std::string format_double(double value, int precision);

/// Parses a TCP port: all of `text` must be a decimal number in
/// [0, 65535]. Throws std::invalid_argument otherwise (a wider value is
/// never truncated to 16 bits).
std::uint16_t parse_port(std::string_view text);

}  // namespace cmarkov
