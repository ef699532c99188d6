/**
 * @file
 * Command-line simulator front-end: runs a configuration directory
 * (the five JSON inputs) end to end — the tool a downstream user
 * points at their own microservice descriptions.
 *
 * Usage:
 *   uqsim_cli <config-dir> [--qps N] [--duration S] [--seed N]
 *             [--warmup S] [--csv] [--json] [--reps R] [--jobs N]
 *             [--journal FILE] [--resume FILE] [--strict]
 *             [--wall-timeout S] [--stall-timeout S] [--max-events N]
 *
 * Overrides replace the corresponding fields of client.json /
 * options.json without editing the files.  --reps R runs R seed
 * replications (seeds split from --seed) on --jobs worker threads
 * (0 = all hardware threads) and reports pooled statistics with
 * across-replication confidence intervals.  --json emits the full
 * structured report (including fault counters) instead of text.
 *
 * Every run goes through the replication runner, so the robustness
 * flags apply at --reps 1 too: a failed replication is classified,
 * journaled (--journal), and salvaged around unless --strict asks
 * for fail-fast; --resume skips replications an earlier journal
 * recorded ok; the limit flags kill runaway or stalled replications
 * (reported as timeouts).  Each limit is checked between events, at
 * most 1,024 events apart: --max-events N caps the executed events,
 * --wall-timeout S the wall time from the replication's first event,
 * and --stall-timeout S the wall time the simulated clock may stand
 * still.  Exit status 2 marks a salvaged run with failures; 1 means
 * no usable result at all, or a malformed number.
 *
 * Every number must parse whole (cli_flags.h): --qps, --duration
 * and --reps are positive, --warmup, --seed, --jobs and the limits
 * non-negative, and --seed, --reps, --jobs and --max-events
 * integers.  "--qps abc" or "--duration 0.3s" exits 1 naming the
 * flag instead of simulating something else.
 *
 * Unknown flags and unknown JSON keys both fail with exit code 1 and
 * a did-you-mean suggestion; a typoed option must never silently
 * simulate something else.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "uqsim/core/sim/simulation.h"
#include "uqsim/json/validation.h"
#include "uqsim/runner/sweep_runner.h"

using namespace uqsim;

namespace {

const std::vector<std::string> kKnownFlags = {
    "--qps",     "--duration",     "--seed",         "--warmup",
    "--csv",     "--json",         "--reps",         "--jobs",
    "--journal", "--resume",       "--strict",       "--wall-timeout",
    "--stall-timeout", "--max-events",
};

void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s <config-dir> [--qps N] [--duration S] "
                 "[--seed N] [--warmup S] [--csv] [--json] [--reps R] "
                 "[--jobs N] [--journal FILE] [--resume FILE] "
                 "[--strict] [--wall-timeout S] [--stall-timeout S] "
                 "[--max-events N]\n",
                 argv0);
}

int
rejectUnknownFlag(const char* argv0, const std::string& arg)
{
    std::string message = "error: unknown option \"" + arg + "\"";
    const std::string suggestion =
        json::suggestClosest(arg, kKnownFlags);
    if (!suggestion.empty())
        message += "; did you mean \"" + suggestion + "\"?";
    std::fprintf(stderr, "%s\n", message.c_str());
    usage(argv0);
    return 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        usage(argv[0]);
        return 1;
    }
    const std::string directory = argv[1];
    std::optional<double> qps, duration, warmup;
    std::optional<std::uint64_t> seed;
    bool csv = false, json_out = false;
    int reps = 1, jobs = 0;
    bool strict = false;
    std::string journal_path, resume_path;
    RunLimits limits;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&]() -> const char* {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--qps") {
            qps = parseNumber<double>(arg, next_value(), Range::Positive);
        } else if (arg == "--duration") {
            duration =
                parseNumber<double>(arg, next_value(), Range::Positive);
        } else if (arg == "--warmup") {
            warmup = parseNumber<double>(arg, next_value(),
                                         Range::NonNegative);
        } else if (arg == "--seed") {
            seed = parseNumber<std::uint64_t>(arg, next_value(),
                                              Range::NonNegative);
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--json") {
            json_out = true;
        } else if (arg == "--reps") {
            reps = parseNumber<int>(arg, next_value(), Range::Positive);
        } else if (arg == "--jobs") {
            jobs = parseNumber<int>(arg, next_value(), Range::NonNegative);
        } else if (arg == "--journal") {
            journal_path = next_value();
        } else if (arg == "--resume") {
            resume_path = next_value();
        } else if (arg == "--strict") {
            strict = true;
        } else if (isLimitFlag(arg)) {
            parseLimitFlag(arg, next_value(), limits);
        } else {
            return rejectUnknownFlag(argv[0], arg);
        }
    }

    try {
        ConfigBundle bundle = ConfigBundle::fromDirectory(directory);
        if (qps) {
            json::JsonValue load = json::JsonValue::makeObject();
            load.asObject()["type"] = "constant";
            load.asObject()["qps"] = *qps;
            bundle.client.asObject()["load"] = std::move(load);
        }
        if (duration)
            bundle.options.durationSeconds = *duration;
        if (warmup)
            bundle.options.warmupSeconds = *warmup;
        if (seed)
            bundle.options.seed = *seed;

        // Every run, a single one too, is replicated: one isolated
        // simulation per seed split under the limit flags, executed
        // on the worker pool and pooled for the report.
        runner::RunnerOptions options;
        options.jobs = jobs;
        options.replications = reps;
        options.baseSeed = bundle.options.seed;
        options.failurePolicy = strict
                                    ? runner::FailurePolicy::Propagate
                                    : runner::FailurePolicy::Isolate;
        options.journalPath = journal_path;
        options.resumePath = resume_path;
        options.limits = limits;
        const runner::ReplicatedPoint point = runner::runReplicated(
            [&bundle](double, std::uint64_t rep_seed) {
                ConfigBundle replicated = bundle;
                replicated.options.seed = rep_seed;
                return Simulation::fromBundle(replicated);
            },
            qps.value_or(0.0), options);
        if (point.merged == 0) {
            std::fprintf(stderr,
                         "error: all %d replication(s) failed:\n",
                         point.planned);
            for (const runner::ReplicationResult& rep :
                 point.replications) {
                std::fprintf(stderr, "  seed=%llu [%s] %s\n",
                             static_cast<unsigned long long>(rep.seed),
                             runner::failureKindName(rep.failure),
                             rep.error.c_str());
            }
            return 1;
        }
        // A single simulated replication prints its own report, per-
        // tier lines and wall time included; a restored one has
        // neither and prints as a pooled point.
        const bool single =
            reps == 1 && !point.replications.front().restored;
        const RunReport report = single
                                     ? point.replications.front().report
                                     : point.mergedReport();
        if (json_out) {
            std::cout << report.toJsonString() << '\n';
        } else if (csv) {
            std::cout << RunReport::csvHeader() << '\n'
                      << report.toCsvRow() << '\n';
        } else if (single) {
            std::cout << report.toString();
            std::cout << "events: " << report.events << " ("
                      << static_cast<long>(
                             report.events /
                             std::max(report.wallSeconds, 1e-9))
                      << " events/s wall)\n";
            if (report.timeouts > 0)
                std::cout << "client timeouts: " << report.timeouts << '\n';
        } else {
            std::cout << report.toString();
            std::cout << "replications: " << reps << " (base seed "
                      << bundle.options.seed << ", "
                      << (jobs > 0 ? jobs : 0) << " jobs requested)\n"
                      << "mean latency ms: "
                      << point.meanCi.describe() << '\n'
                      << "p99 latency ms:  "
                      << point.p99Ci.describe() << '\n'
                      << "achieved qps:    "
                      << point.achievedCi.describe() << '\n';
        }
        if (point.degraded()) {
            std::fprintf(stderr,
                         "warning: %d of %d replication(s) failed; "
                         "pooled statistics are degraded:\n",
                         point.planned - point.merged, point.planned);
            for (const runner::ReplicationResult& rep :
                 point.replications) {
                if (rep.ok())
                    continue;
                std::fprintf(stderr, "  seed=%llu [%s] %s\n",
                             static_cast<unsigned long long>(rep.seed),
                             runner::failureKindName(rep.failure),
                             rep.error.c_str());
            }
            return 2;
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    return 0;
}
