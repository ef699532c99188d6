#ifndef UQSIM_EXAMPLES_CLI_FLAGS_H_
#define UQSIM_EXAMPLES_CLI_FLAGS_H_

/**
 * @file
 * Strict parsing of the numeric arguments that load_sweep and
 * uqsim_cli take.  A malformed number must fail loudly: read
 * leniently, "--reps 2x" would be 2 replications, "--seed abc" seed
 * 0, "--max-events 1e4" a budget of 1 and "--stall-timeout 0.2s" a
 * window of 0.2 seconds.
 */

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

#include "uqsim/core/engine/run_control.h"

/** The range a numeric argument must fall in. */
enum class Range { NonNegative, Positive };

/**
 * Parses all of @p value as a @p T: an integer type takes only an
 * integer literal in its range, a floating-point type only a finite
 * number.  The value must also fall in @p range.  Otherwise prints
 * an error naming @p name and the value and exits with status 1.
 */
template <typename T>
T
parseNumber(const std::string& name, const char* value, Range range)
{
    T parsed{};
    const char* end = value + std::strlen(value);
    const auto [ptr, ec] = std::from_chars(value, end, parsed);
    bool ok = ec == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(parsed);
    if constexpr (std::is_signed_v<T>)
        ok = ok && !(parsed < T{0});
    if (range == Range::Positive)
        ok = ok && parsed > T{0};
    if (!ok) {
        std::fprintf(stderr, "error: %s expects a %s %s, got \"%s\"\n",
                     name.c_str(),
                     range == Range::Positive ? "positive"
                                              : "non-negative",
                     std::is_integral_v<T> ? "integer" : "number",
                     value);
        std::exit(1);
    }
    return parsed;
}

/** True for the flags parseLimitFlag() accepts. */
inline bool
isLimitFlag(const std::string& flag)
{
    return flag == "--max-events" || flag == "--wall-timeout" ||
           flag == "--stall-timeout";
}

/**
 * Parses @p value of limit flag @p flag into @p limits: --max-events
 * as an integer event count, each timeout as a number of seconds,
 * all non-negative.
 */
inline void
parseLimitFlag(const std::string& flag, const char* value,
               uqsim::RunLimits& limits)
{
    if (flag == "--max-events") {
        limits.maxEvents = parseNumber<std::uint64_t>(
            flag, value, Range::NonNegative);
    } else if (flag == "--wall-timeout") {
        limits.wallTimeoutSeconds =
            parseNumber<double>(flag, value, Range::NonNegative);
    } else {
        limits.stallWindowSeconds =
            parseNumber<double>(flag, value, Range::NonNegative);
    }
}

#endif  // UQSIM_EXAMPLES_CLI_FLAGS_H_
