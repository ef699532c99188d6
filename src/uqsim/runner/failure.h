#ifndef UQSIM_RUNNER_FAILURE_H_
#define UQSIM_RUNNER_FAILURE_H_

/**
 * @file
 * Harness error taxonomy.
 *
 * A multi-hour sweep must not die wholesale because one replication
 * threw: the SweepRunner catches every worker failure and classifies
 * it into this taxonomy so reports, journals, and exit paths can
 * treat them differently (docs/ARCHITECTURE.md §"Harness
 * failure-handling contract"):
 *
 *   - ConfigError: the inputs are wrong (malformed JSON, invalid
 *     option, a factory that violates the runner protocol).
 *     Deterministic — re-running cannot help.
 *   - InvariantViolation: the engine auditor caught corrupted
 *     bookkeeping, during the run or in the post-failure audit of
 *     classifyException.  A simulator bug; results of this
 *     replication are untrustworthy.
 *   - Timeout: the event budget, wall-clock budget or stall window
 *     of the run's RunControl, or an external abort request, killed
 *     the replication (SimulationAbortError).
 *   - InternalError: any other exception — unclassified bug.
 *
 * Journal status strings use the same names (failureKindName), so a
 * resumed run re-derives the taxonomy loss-free.
 */

#include <exception>
#include <string>

namespace uqsim {

class Simulator;

namespace runner {

/** How a replication failed; None means it completed. */
enum class FailureKind {
    None = 0,
    ConfigError,
    InvariantViolation,
    Timeout,
    InternalError,
};

/** Stable lowercase name ("ok", "config_error", "invariant",
 *  "timeout", "internal"); used as the journal status string. */
const char* failureKindName(FailureKind kind);

/** Inverse of failureKindName; throws std::invalid_argument on an
 *  unknown name. */
FailureKind failureKindFromName(const std::string& name);

/**
 * Classifies the in-flight exception held by @p error and renders
 * its message into @p message (best effort; "unknown exception" for
 * non-std exceptions).  @p error must not be null.
 *
 * With @p engine, the engine that was running when @p error was
 * thrown, also audits it: whatever threw, RAII must have released
 * the engine's pooled storage.  A finding escalates the failure to
 * InvariantViolation, because salvage would otherwise merge results
 * next to a corrupted pool, and appends "; post-failure engine
 * audit: " and the findings to @p message.
 */
FailureKind classifyException(const std::exception_ptr& error,
                              std::string* message,
                              const Simulator* engine = nullptr);

}  // namespace runner
}  // namespace uqsim

#endif  // UQSIM_RUNNER_FAILURE_H_
