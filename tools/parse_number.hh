/**
 * @file
 * Strict numeric option parsing shared by the command-line tools.
 */

#ifndef WSL_TOOLS_PARSE_NUMBER_HH
#define WSL_TOOLS_PARSE_NUMBER_HH

#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <type_traits>

namespace wsl {

/**
 * Parse an entire option value as a T (an integer type, or double).
 * Empty input, a non-numeric value, trailing characters, a sign on an
 * unsigned type, overflow and non-finite reals all fail: the function
 * prints "TOOL: WHAT: 'TEXT' is not a valid number" to stderr and
 * returns nothing, and the caller then exits through its usage text.
 */
template <typename T>
std::optional<T>
parseNumber(const std::string &text, const char *tool, const char *what)
{
    T value{};
    const char *first = text.data();
    const char *last = first + text.size();
    const auto [end, ec] = std::from_chars(first, last, value);
    bool ok = ec == std::errc{} && end == last;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(value);
    if (!ok) {
        std::fprintf(stderr, "%s: %s: '%s' is not a valid number\n", tool,
                     what, text.c_str());
        return std::nullopt;
    }
    return value;
}

} // namespace wsl

#endif // WSL_TOOLS_PARSE_NUMBER_HH
