/**
 * @file
 * Warm-state forking: explore many continuations from one validated
 * warm state.  Each fork replays the warm-up from event 0, so it
 * costs about as much wall time as a cold run to the same point.
 *
 * The tool runs the 2-tier NGINX-memcached application to its
 * warm-up boundary, snapshots the warm state
 * (snapshot/checkpoint.h), and then forks three continuations from
 * that single snapshot — one per offered-load scale — each restored
 * by deterministic replay and diverged only after the restore
 * validated bit-for-bit against the original configuration.
 *
 * Two properties are demonstrated and checked:
 *   - an unmodified fork (scale 1.0, no reseed) finishes with the
 *     exact trace digest of an uninterrupted straight-through run —
 *     checkpoint/restore is invisible to the event stream;
 *   - reseeded forks (--reseed T) decorrelate the client workload
 *     streams while keeping the warm server state, the
 *     warm-start-many-what-ifs workflow.
 *
 * Usage:
 *   warm_fork [--qps Q] [--seed S] [--duration D]
 *             [--dir CHECKPOINT_DIR] [--reseed T]
 *
 * Exit status: 0 on success (including the digest check), 1 on any
 * error or digest mismatch.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "uqsim/models/applications.h"
#include "uqsim/snapshot/checkpoint.h"

using namespace uqsim;

int
main(int argc, char** argv)
{
    double qps = 20000.0;
    std::uint64_t seed = 1;
    double duration = 3.0;
    std::string dir = "warm_fork_checkpoints";
    std::uint64_t reseed = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "usage: %s [--qps Q] [--seed S] "
                             "[--duration D] [--dir DIR] "
                             "[--reseed T]\n",
                             argv[0]);
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--qps") {
            qps = std::atof(next_value());
        } else if (arg == "--seed") {
            seed = static_cast<std::uint64_t>(std::atoll(next_value()));
        } else if (arg == "--duration") {
            duration = std::atof(next_value());
        } else if (arg == "--dir") {
            dir = next_value();
        } else if (arg == "--reseed") {
            reseed =
                static_cast<std::uint64_t>(std::atoll(next_value()));
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

    // The fork factory must rebuild the *identical* configuration:
    // restore validates the snapshot's config digest against it.
    const auto factory = [&params]() {
        return Simulation::fromBundle(models::twoTierBundle(params));
    };

    try {
        // Straight-through reference run (for the digest check).
        auto reference = factory();
        reference->run();
        const std::uint64_t reference_digest =
            reference->sim().traceDigest();

        // Warm run: advance to the warm-up boundary, snapshot.
        auto warm = factory();
        warm->advanceToTime(
            secondsToSimTime(params.run.warmupSeconds));
        const std::string path =
            snapshot::writeCheckpoint(*warm, dir, "warm");
        std::printf("warm state at t=%.2fs (%llu events) -> %s\n",
                    simTimeToSeconds(warm->sim().now()),
                    static_cast<unsigned long long>(
                        warm->sim().executedEvents()),
                    path.c_str());

        // Continue the warm run too: it must match the reference.
        warm->finishRun();
        if (warm->sim().traceDigest() != reference_digest) {
            std::fprintf(stderr,
                         "error: checkpointed run diverged from the "
                         "straight-through run\n");
            return 1;
        }

        // 3-point load sweep forked from the one warm snapshot.
        const double scales[] = {0.75, 1.0, 1.25};
        std::printf("%10s %12s %10s %10s\n", "scale", "offered",
                    "p99_ms", "achieved");
        for (double scale : scales) {
            snapshot::ForkOptions fork;
            fork.loadScale = scale;
            fork.reseedToken = reseed;
            auto forked =
                snapshot::forkFromSnapshot(factory, path, fork);
            const RunReport report = forked->finishRun();
            std::printf("%10.2f %12.0f %10.3f %10.0f\n", scale,
                        qps * scale, report.endToEnd.p99Ms,
                        report.achievedQps);
            // The unmodified fork is the restored original run.
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
