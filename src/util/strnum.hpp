// Strict whole-string number parsing shared by the option and spec-string
// parsers: the entire token must be consumed ("12abc" is rejected, unlike
// raw stoll/stod), non-finite doubles ("nan", "inf") are rejected — no
// option or spec parameter legitimately takes one, and NaN silently defeats
// range checks downstream — and both non-numeric and out-of-range inputs
// yield nullopt; callers attach their own error type and wording.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace remspan {

[[nodiscard]] std::optional<std::int64_t> parse_full_int(const std::string& text);
[[nodiscard]] std::optional<double> parse_full_double(const std::string& text);

/// A whole token as an unsigned decimal integer no larger than `max`:
/// digits only, so a sign ("-1", "+1") or any suffix yields nullopt.
[[nodiscard]] std::optional<std::uint64_t> parse_full_uint(std::string_view text,
                                                           std::uint64_t max);

/// The blank-separated tokens of one line (blanks: space, tab, '\r'): the
/// tokenizer of the line-oriented text readers, which then parse each token
/// whole.
[[nodiscard]] std::vector<std::string_view> split_tokens(std::string_view line);

}  // namespace remspan
