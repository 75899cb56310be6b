#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace fsim {

std::vector<std::string_view> Split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string_view> SplitWhitespace(std::string_view s) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

namespace {

/// True when strtod's ERANGE reports underflow rather than overflow: the
/// result is finite and no larger in magnitude than the smallest normal
/// double (a subnormal or zero), and it is the nearest double to the text.
template <typename T>
bool IsUnderflow(T value) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::isfinite(value) &&
           std::abs(value) <= std::numeric_limits<T>::min();
  } else {
    return false;
  }
}

/// Shared strto* harness: NUL-terminates the trimmed input (strto* needs a C
/// string), runs `parse`, and rejects empty input, trailing garbage, and
/// ERANGE overflow uniformly; a floating-point underflow stands.
template <typename T, typename Parse>
Result<T> ParseWith(std::string_view s, const char* kind, Parse parse) {
  const std::string text(Trim(s));
  if (text.empty()) {
    return Status::InvalidArgument(StrFormat("empty %s", kind));
  }
  errno = 0;
  char* end = nullptr;
  const T value = parse(text.c_str(), &end);
  if (end == text.c_str()) {
    return Status::InvalidArgument(
        StrFormat("'%s' is not a valid %s", text.c_str(), kind));
  }
  if (end != text.c_str() + text.size()) {
    return Status::InvalidArgument(
        StrFormat("'%s' is not a valid %s (garbage after '%s')", text.c_str(),
                  kind,
                  std::string(text.c_str(),
                              static_cast<const char*>(end))
                      .c_str()));
  }
  if (errno == ERANGE && !IsUnderflow(value)) {
    return Status::OutOfRange(
        StrFormat("'%s' overflows the %s range", text.c_str(), kind));
  }
  return value;
}

}  // namespace

Result<int64_t> ParseInt64(std::string_view s) {
  return ParseWith<int64_t>(s, "integer", [](const char* p, char** end) {
    return static_cast<int64_t>(std::strtoll(p, end, 10));
  });
}

Result<uint64_t> ParseUint64(std::string_view s) {
  // strtoull silently wraps "-1" to ULLONG_MAX - reject signs up front.
  const std::string_view trimmed = Trim(s);
  if (!trimmed.empty() && (trimmed.front() == '-' || trimmed.front() == '+')) {
    return Status::InvalidArgument(
        StrFormat("'%.*s' is not a valid unsigned integer",
                  static_cast<int>(trimmed.size()), trimmed.data()));
  }
  return ParseWith<uint64_t>(
      s, "unsigned integer", [](const char* p, char** end) {
        return static_cast<uint64_t>(std::strtoull(p, end, 10));
      });
}

Result<double> ParseDouble(std::string_view s) {
  return ParseWith<double>(s, "number", [](const char* p, char** end) {
    return std::strtod(p, end);
  });
}

}  // namespace fsim
