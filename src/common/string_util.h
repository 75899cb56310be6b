// Small string helpers shared by graph I/O and the label similarity
// functions.
#ifndef FSIM_COMMON_STRING_UTIL_H_
#define FSIM_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace fsim {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string_view> Split(std::string_view s, char delim);

/// Splits `s` on any run of whitespace, dropping empty fields.
std::vector<std::string_view> SplitWhitespace(std::string_view s);

/// Removes leading and trailing whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lower-casing (labels are treated case-insensitively by the edit
/// distance / Jaro-Winkler similarity functions, following common practice).
std::string ToLower(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Checked numeric parsers for CLI/file input. Unlike atoi/atof they reject
/// empty input and trailing garbage ("12abc") with a Status::InvalidArgument
/// naming the offending text, and overflowing values with OutOfRange,
/// instead of silently returning 0 or saturating. ParseDouble keeps an
/// underflowing value (a subnormal such as 4.9406564584124654e-324, or
/// zero): it is the nearest double, and what %.17g writes for one.
Result<int64_t> ParseInt64(std::string_view s);
Result<uint64_t> ParseUint64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

}  // namespace fsim

#endif  // FSIM_COMMON_STRING_UTIL_H_
