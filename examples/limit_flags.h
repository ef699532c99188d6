#ifndef UQSIM_EXAMPLES_LIMIT_FLAGS_H_
#define UQSIM_EXAMPLES_LIMIT_FLAGS_H_

/**
 * @file
 * Strict parsing of the per-replication limit flags that load_sweep
 * and uqsim_cli share.  A malformed limit must fail loudly: read
 * leniently, "--max-events 1e4" would be a budget of 1 and
 * "--stall-timeout 0.2s" a window of 0.2 seconds.
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>

#include "uqsim/core/engine/run_control.h"

/** True for the flags parseLimitFlag() accepts. */
inline bool
isLimitFlag(const std::string& flag)
{
    return flag == "--max-events" || flag == "--wall-timeout" ||
           flag == "--stall-timeout";
}

/**
 * Parses @p value of limit flag @p flag into @p limits.  The whole
 * token must parse: --max-events as a non-negative integer, each
 * timeout as a non-negative finite number of seconds.  Otherwise
 * prints an error naming the flag and the value and exits with
 * status 1.
 */
inline void
parseLimitFlag(const std::string& flag, const char* value,
               uqsim::RunLimits& limits)
{
    const char* end = value + std::strlen(value);
    bool ok = false;
    if (flag == "--max-events") {
        const auto [ptr, ec] =
            std::from_chars(value, end, limits.maxEvents);
        ok = ec == std::errc() && ptr == end;
    } else {
        double& seconds = flag == "--wall-timeout"
                              ? limits.wallTimeoutSeconds
                              : limits.stallWindowSeconds;
        const auto [ptr, ec] = std::from_chars(value, end, seconds);
        ok = ec == std::errc() && ptr == end && std::isfinite(seconds) &&
             seconds >= 0.0;
    }
    if (!ok) {
        std::fprintf(stderr, "error: %s expects %s, got \"%s\"\n",
                     flag.c_str(),
                     flag == "--max-events"
                         ? "a non-negative integer event count"
                         : "a non-negative number of seconds",
                     value);
        std::exit(1);
    }
}

#endif  // UQSIM_EXAMPLES_LIMIT_FLAGS_H_
