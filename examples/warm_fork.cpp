/**
 * @file
 * Warm-state forking: explore many continuations from one warm
 * state.  Each fork replays the warm-up from event 0, so it costs
 * about as much wall time as a cold run to the same point.
 *
 * The tool builds the 2-tier NGINX-memcached application once per
 * offered-load scale, runs each build to the warm-up boundary with
 * the segmented-run API (Simulation::advanceToTime), and only then
 * scales the clients' offered load (and, with --reseed T, re-seeds
 * their workload streams) before finishing the run.
 *
 * Two properties are demonstrated and checked:
 *   - an unmodified fork (scale 1.0, no reseed) finishes with the
 *     exact trace digest of an uninterrupted straight-through run —
 *     pausing at the warm-up boundary is invisible to the event
 *     stream;
 *   - reseeded forks (--reseed T) decorrelate the client workload
 *     streams while keeping the warm server state, the
 *     warm-start-many-what-ifs workflow.
 *
 * Usage:
 *   warm_fork [--qps Q] [--seed S] [--duration D] [--reseed T]
 *
 * Every number must parse whole (cli_flags.h).  Exit status: 0 on
 * success (including the digest check), 1 on any error or digest
 * mismatch.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "cli_flags.h"
#include "uqsim/core/sim/simulation.h"
#include "uqsim/models/applications.h"

using namespace uqsim;

int
main(int argc, char** argv)
{
    double qps = 20000.0;
    std::uint64_t seed = 1;
    double duration = 3.0;
    std::uint64_t reseed = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "usage: %s [--qps Q] [--seed S] "
                             "[--duration D] [--reseed T]\n",
                             argv[0]);
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--qps") {
            qps = parseNumber<double>(arg, next_value(), Range::Positive);
        } else if (arg == "--seed") {
            seed = parseNumber<std::uint64_t>(arg, next_value(),
                                              Range::NonNegative);
        } else if (arg == "--duration") {
            duration =
                parseNumber<double>(arg, next_value(), Range::Positive);
        } else if (arg == "--reseed") {
            reseed = parseNumber<std::uint64_t>(arg, next_value(),
                                                Range::NonNegative);
        } else {
            std::fprintf(stderr, "error: unknown option \"%s\"\n",
                         arg.c_str());
            return 1;
        }
    }

    models::TwoTierParams params;
    params.run.qps = qps;
    params.run.seed = seed;
    params.run.warmupSeconds = 1.0;
    params.run.durationSeconds = duration;
    const auto build = [&params]() {
        return Simulation::fromBundle(models::twoTierBundle(params));
    };

    try {
        // Straight-through reference run (for the digest check).
        auto reference = build();
        reference->run();
        const std::uint64_t reference_digest =
            reference->sim().traceDigest();

        // 3-point load sweep, each point diverging at the warm-up
        // boundary.
        const double scales[] = {0.75, 1.0, 1.25};
        std::printf("%10s %12s %10s %10s\n", "scale", "offered",
                    "p99_ms", "achieved");
        for (double scale : scales) {
            auto forked = build();
            forked->advanceToTime(
                secondsToSimTime(params.run.warmupSeconds));
            for (auto& client : forked->clients()) {
                if (reseed != 0)
                    client->reseed(reseed);
                if (scale != 1.0)
                    client->scaleLoad(scale);
            }
            const RunReport report = forked->finishRun();
            std::printf("%10.2f %12.0f %10.3f %10.0f\n", scale,
                        qps * scale, report.endToEnd.p99Ms,
                        report.achievedQps);
            // The unmodified fork is the original run, paused once.
            if (scale == 1.0 && reseed == 0 &&
                forked->sim().traceDigest() != reference_digest) {
                std::fprintf(stderr,
                             "error: unmodified fork diverged from "
                             "the straight-through run\n");
                return 1;
            }
        }
        std::printf("unmodified fork digest matches the "
                    "straight-through run\n");
    } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    return 0;
}
