#include "util/strnum.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <system_error>

namespace remspan {

std::optional<std::int64_t> parse_full_int(const std::string& text) {
  try {
    std::size_t pos = 0;
    const std::int64_t parsed = std::stoll(text, &pos);
    if (pos == text.size()) return parsed;
  } catch (const std::invalid_argument&) {
  } catch (const std::out_of_range&) {
  }
  return std::nullopt;
}

std::optional<double> parse_full_double(const std::string& text) {
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(text, &pos);
    if (pos == text.size() && std::isfinite(parsed)) return parsed;
  } catch (const std::invalid_argument&) {
  } catch (const std::out_of_range&) {
  }
  return std::nullopt;
}

std::optional<std::uint64_t> parse_full_uint(std::string_view text, std::uint64_t max) {
  std::uint64_t parsed = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (text.empty() || ec != std::errc{} || ptr != end || parsed > max) return std::nullopt;
  return parsed;
}

std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  const auto blank = [](char c) { return c == ' ' || c == '\t' || c == '\r'; };
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && blank(line[i])) ++i;
    const std::size_t start = i;
    while (i < line.size() && !blank(line[i])) ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

}  // namespace remspan
