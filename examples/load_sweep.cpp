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
 *
 * where <app> is one of: two_tier, three_tier, lb<N> (N web
 * servers, e.g. lb4, lb8, lb16), fanout<N> (N leaves, e.g. fanout4,
 * fanout8, fanout16), thrift, social.  --jobs 0 (default) uses all
 * hardware threads.  Every number must parse whole (cli_flags.h):
 * lo, hi, points and duration_s are positive, points, --reps, N and
 * --jobs are integers; a malformed one, an unknown app or a stray
 * positional argument exits 1.
 *
 * Robustness flags (docs/ARCHITECTURE.md §"Harness failure-handling
 * contract"): --journal appends every job's fate to a JSONL run
 * journal; --resume skips jobs an earlier journal already recorded
 * ok and re-runs only failed/missing ones, which is how a killed
 * sweep resumes; --strict restores the legacy fail-fast behaviour
 * (first error aborts the sweep); the limit flags kill runaway or
 * stalled replications and report them as timeouts.  Each limit is
 * checked between events, at most 1,024 events apart: --max-events
 * N caps the executed events, --wall-timeout S the wall time from
 * the replication's first event, and --stall-timeout S the wall
 * time the simulated clock may stand still.
 *
 * Exit status: 0 all replications ok; 1 usage/config error or (with
 * --strict) a failed job; 2 the sweep completed but some
 * replications failed and were salvaged around (see the journal or
 * stderr for the per-job taxonomy).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "cli_flags.h"
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

/**
 * The N of an lb<N> or fanout<N> app, 0 for the other apps.  A
 * malformed N or an unknown app prints an error and exits 1.
 */
int
appWidth(const std::string& app)
{
    if (app.rfind("lb", 0) == 0)
        return parseNumber<int>("lb<N>", app.c_str() + 2, Range::Positive);
    if (app.rfind("fanout", 0) == 0) {
        return parseNumber<int>("fanout<N>", app.c_str() + 6,
                                Range::Positive);
    }
    const std::vector<std::string> fixed = {"two_tier", "three_tier",
                                            "thrift", "social"};
    if (std::find(fixed.begin(), fixed.end(), app) != fixed.end())
        return 0;
    std::string message = "error: unknown app \"" + app + "\"";
    const std::string suggestion = json::suggestClosest(
        app, {"two_tier", "three_tier", "lb4", "fanout4", "thrift",
              "social"});
    if (!suggestion.empty())
        message += "; did you mean \"" + suggestion + "\"?";
    std::fprintf(stderr, "%s\n", message.c_str());
    std::exit(1);
}

std::unique_ptr<Simulation>
makeApp(const std::string& app, int width, double qps,
        std::uint64_t seed, double duration)
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
        params.webServers = width;
        return Simulation::fromBundle(
            models::loadBalancerBundle(params));
    }
    if (app.rfind("fanout", 0) == 0) {
        models::FanoutParams params;
        params.run = runParams(qps, seed, duration);
        params.fanout = width;
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
                 "[--max-events N]\n",
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
    const int width = appWidth(app);
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
            options.jobs =
                parseNumber<int>(arg, next_value(), Range::NonNegative);
        } else if (arg == "--reps") {
            options.replications =
                parseNumber<int>(arg, next_value(), Range::Positive);
        } else if (arg == "--seed") {
            options.baseSeed = parseNumber<std::uint64_t>(
                arg, next_value(), Range::NonNegative);
        } else if (arg == "--journal") {
            options.journalPath = next_value();
        } else if (arg == "--resume") {
            options.resumePath = next_value();
        } else if (arg == "--strict") {
            options.failurePolicy = runner::FailurePolicy::Propagate;
        } else if (isLimitFlag(arg)) {
            parseLimitFlag(arg, next_value(), options.limits);
        } else if (arg.rfind("--", 0) == 0) {
            std::string message =
                "error: unknown option \"" + arg + "\"";
            const std::string suggestion = json::suggestClosest(
                arg, {"--jobs", "--reps", "--seed", "--journal",
                      "--resume", "--strict", "--wall-timeout",
                      "--stall-timeout", "--max-events"});
            if (!suggestion.empty())
                message += "; did you mean \"" + suggestion + "\"?";
            std::fprintf(stderr, "%s\n", message.c_str());
            usage(argv[0]);
            return 1;
        } else {
            positional.push_back(argv[i]);
        }
    }
    if (positional.size() == 1 || positional.size() == 2 ||
        positional.size() > 4) {
        std::fprintf(stderr,
                     "error: expected lo hi points [duration_s] after "
                     "<app>, got %zu positional argument(s)\n",
                     positional.size());
        usage(argv[0]);
        return 1;
    }
    if (positional.size() >= 3) {
        lo = parseNumber<double>("lo", positional[0], Range::Positive);
        hi = parseNumber<double>("hi", positional[1], Range::Positive);
        points =
            parseNumber<int>("points", positional[2], Range::Positive);
    }
    if (positional.size() == 4) {
        duration = parseNumber<double>("duration_s", positional[3],
                                       Range::Positive);
    }

    try {
        runner::SweepRunner sweep_runner(options);
        sweep_runner.addSweep(
            app, linspace(lo, hi, points),
            [&](double qps, std::uint64_t seed) {
                return makeApp(app, width, qps, seed, duration);
            });
        const std::vector<runner::ReplicatedCurve> curves =
            sweep_runner.run();
        if (options.replications > 1) {
            std::cout << runner::formatReplicatedTable(curves);
        }
        const SweepCurve curve = curves.front().toSweepCurve();
        if (options.replications <= 1)
            std::cout << formatSweepTable({curve});
        std::cout << formatSaturation(curve) << " ("
                  << sweep_runner.effectiveJobs() << " jobs, "
                  << options.replications << " replication(s))\n";
        if (sweep_runner.restoredJobs() > 0) {
            std::cout << sweep_runner.restoredJobs()
                      << " job(s) restored from " << options.resumePath
                      << "\n";
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
