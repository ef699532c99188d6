/**
 * @file
 * Generic load-sweep tool: sweeps offered load for one of the
 * bundled applications and prints the load-latency curve.  Runs the
 * (load × seed replication) grid on the parallel SweepRunner; with
 * more than one replication the table shows across-replication
 * confidence intervals.
 *
 * Usage:
 *   load_sweep <app> [lo hi points [duration_s]]
 *             [--jobs N] [--reps R] [--seed S]
 *             [--journal FILE] [--resume FILE] [--strict]
 *             [--wall-timeout S] [--stall-timeout S] [--max-events N]
 *             [--checkpoint-every N] [--checkpoint-seconds S]
 *             [--checkpoint-dir DIR] [--checkpoint-keep K]
 *             [--resume-from-snapshot]
 *
 * where <app> is one of: two_tier, three_tier, lb4, lb8, lb16,
 * fanout4, fanout8, fanout16, thrift, social.  --jobs 0 (default)
 * uses all hardware threads.
 *
 * Robustness flags (docs/ARCHITECTURE.md §"Harness failure-handling
 * contract"): --journal appends every job's fate to a JSONL run
 * journal; --resume skips jobs an earlier journal already recorded
 * ok and re-runs only failed/missing ones; --strict restores the
 * legacy fail-fast behaviour (first error aborts the sweep); the
 * watchdog flags kill stalled or runaway replications and report
 * them as timeouts.
 *
 * Checkpoint flags (docs/ARCHITECTURE.md §"Checkpoint / restore"):
 * --checkpoint-every N writes a snapshot of every in-flight
 * replication each N executed events (--checkpoint-seconds uses a
 * simulated-time cadence instead) under --checkpoint-dir (default
 * "checkpoints"), keeping the newest --checkpoint-keep per job;
 * --resume-from-snapshot restores each job from its newest valid
 * snapshot, so a SIGKILL'd sweep resumes with the replay verified
 * against the snapshot's trace digest and layer folds, and prints
 * how many jobs resumed.  The scan skips snapshots of another format
 * version, so those jobs run fresh.  Restore replays from event 0,
 * so resuming saves no wall time.  Checkpointing never changes
 * results — trace digests match an uncheckpointed run exactly.
 *
 * Exit status: 0 all replications ok; 1 usage/config error or (with
 * --strict) a failed job; 2 the sweep completed but some
 * replications failed and were salvaged around (see the journal or
 * stderr for the per-job taxonomy).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "uqsim/json/validation.h"
#include "uqsim/models/applications.h"
#include "uqsim/runner/sweep_runner.h"

using namespace uqsim;

namespace {

models::RunParams
runParams(double qps, std::uint64_t seed, double duration)
{
    models::RunParams run;
    run.qps = qps;
    run.seed = seed;
    // durationSeconds is the total horizon; keep a measurement
    // window even when the user asks for a very short run.
    run.warmupSeconds = std::min(0.5, duration * 0.2);
    run.durationSeconds = duration;
    return run;
}

std::unique_ptr<Simulation>
makeApp(const std::string& app, double qps, std::uint64_t seed,
        double duration)
{
    if (app == "two_tier") {
        models::TwoTierParams params;
        params.run = runParams(qps, seed, duration);
        return Simulation::fromBundle(models::twoTierBundle(params));
    }
    if (app == "three_tier") {
        models::ThreeTierParams params;
        params.run = runParams(qps, seed, duration);
        return Simulation::fromBundle(models::threeTierBundle(params));
    }
    if (app.rfind("lb", 0) == 0) {
        models::LoadBalancerParams params;
        params.run = runParams(qps, seed, duration);
        params.webServers = std::atoi(app.c_str() + 2);
        return Simulation::fromBundle(
            models::loadBalancerBundle(params));
    }
    if (app.rfind("fanout", 0) == 0) {
        models::FanoutParams params;
        params.run = runParams(qps, seed, duration);
        params.fanout = std::atoi(app.c_str() + 6);
        return Simulation::fromBundle(models::fanoutBundle(params));
    }
    if (app == "thrift") {
        models::ThriftEchoParams params;
        params.run = runParams(qps, seed, duration);
        return Simulation::fromBundle(models::thriftEchoBundle(params));
    }
    if (app == "social") {
        models::SocialNetworkParams params;
        params.run = runParams(qps, seed, duration);
        return Simulation::fromBundle(
            models::socialNetworkBundle(params));
    }
    throw std::invalid_argument("unknown app: " + app);
}

void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s <app> [lo hi points [duration_s]] "
                 "[--jobs N] [--reps R] [--seed S] "
                 "[--journal FILE] [--resume FILE] [--strict] "
                 "[--wall-timeout S] [--stall-timeout S] "
                 "[--max-events N] "
                 "[--checkpoint-every N] [--checkpoint-seconds S] "
                 "[--checkpoint-dir DIR] [--checkpoint-keep K] "
                 "[--resume-from-snapshot]\n",
                 argv0);
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        usage(argv[0]);
        return 1;
    }
    const std::string app = argv[1];
    double lo = 1000.0, hi = 50000.0;
    int points = 8;
    double duration = 2.5;
    runner::RunnerOptions options;
    options.jobs = 0;  // all hardware threads

    std::vector<const char*> positional;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--jobs") {
            options.jobs = std::atoi(next_value());
        } else if (arg == "--reps") {
            options.replications = std::atoi(next_value());
        } else if (arg == "--seed") {
            options.baseSeed =
                static_cast<std::uint64_t>(std::atol(next_value()));
        } else if (arg == "--journal") {
            options.journalPath = next_value();
        } else if (arg == "--resume") {
            options.resumePath = next_value();
        } else if (arg == "--strict") {
            options.failurePolicy = runner::FailurePolicy::Propagate;
        } else if (arg == "--wall-timeout") {
            options.watchdog.wallTimeoutSeconds =
                std::atof(next_value());
        } else if (arg == "--stall-timeout") {
            options.watchdog.stallWindowSeconds =
                std::atof(next_value());
        } else if (arg == "--max-events") {
            options.watchdog.maxEventsPerReplication =
                static_cast<std::uint64_t>(std::atoll(next_value()));
        } else if (arg == "--checkpoint-every") {
            options.checkpoint.everyEvents =
                static_cast<std::uint64_t>(std::atoll(next_value()));
            if (options.checkpoint.dir.empty())
                options.checkpoint.dir = "checkpoints";
        } else if (arg == "--checkpoint-seconds") {
            options.checkpoint.everySimSeconds =
                std::atof(next_value());
            if (options.checkpoint.dir.empty())
                options.checkpoint.dir = "checkpoints";
        } else if (arg == "--checkpoint-dir") {
            options.checkpoint.dir = next_value();
        } else if (arg == "--checkpoint-keep") {
            options.checkpoint.keep = std::atoi(next_value());
        } else if (arg == "--resume-from-snapshot") {
            options.resumeFromSnapshot = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::string message =
                "error: unknown option \"" + arg + "\"";
            const std::string suggestion = json::suggestClosest(
                arg, {"--jobs", "--reps", "--seed", "--journal",
                      "--resume", "--strict", "--wall-timeout",
                      "--stall-timeout", "--max-events",
                      "--checkpoint-every", "--checkpoint-seconds",
                      "--checkpoint-dir", "--checkpoint-keep",
                      "--resume-from-snapshot"});
            if (!suggestion.empty())
                message += "; did you mean \"" + suggestion + "\"?";
            std::fprintf(stderr, "%s\n", message.c_str());
            usage(argv[0]);
            return 1;
        } else {
            positional.push_back(argv[i]);
        }
    }
    if (positional.size() >= 3) {
        lo = std::atof(positional[0]);
        hi = std::atof(positional[1]);
        points = std::atoi(positional[2]);
    }
    if (positional.size() >= 4)
        duration = std::atof(positional[3]);

    try {
        runner::SweepRunner sweep_runner(options);
        sweep_runner.addSweep(
            app, linspace(lo, hi, points),
            [&](double qps, std::uint64_t seed) {
                return makeApp(app, qps, seed, duration);
            });
        const std::vector<runner::ReplicatedCurve> curves =
            sweep_runner.run();
        if (options.replications > 1) {
            std::cout << runner::formatReplicatedTable(curves);
        }
        const SweepCurve curve = curves.front().toSweepCurve();
        if (options.replications <= 1)
            std::cout << formatSweepTable({curve});
        std::cout << "saturation ~" << curve.saturationQps()
                  << " qps, p99 before saturation "
                  << curve.tailBeforeSaturationMs() << " ms ("
                  << sweep_runner.effectiveJobs() << " jobs, "
                  << options.replications << " replication(s))\n";
        if (sweep_runner.restoredJobs() > 0) {
            std::cout << sweep_runner.restoredJobs()
                      << " job(s) restored from " << options.resumePath
                      << "\n";
        }
        if (options.resumeFromSnapshot) {
            std::cout << sweep_runner.snapshotResumes()
                      << " job(s) resumed from snapshots\n";
        }
        if (sweep_runner.failedJobs() > 0) {
            std::fprintf(stderr,
                         "warning: %d job(s) failed and were salvaged "
                         "around:\n",
                         sweep_runner.failedJobs());
            for (const runner::ReplicatedCurve& failed_curve : curves) {
                for (const runner::ReplicatedPoint& point :
                     failed_curve.points) {
                    for (const runner::ReplicationResult& rep :
                         point.replications) {
                        if (rep.ok())
                            continue;
                        std::fprintf(
                            stderr, "  %s qps=%g rep seed=%llu [%s] %s\n",
                            failed_curve.label.c_str(), point.offeredQps,
                            static_cast<unsigned long long>(rep.seed),
                            runner::failureKindName(rep.failure),
                            rep.error.c_str());
                    }
                }
            }
            return 2;
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    return 0;
}
