#ifndef UQSIM_CORE_ENGINE_RUN_CONTROL_H_
#define UQSIM_CORE_ENGINE_RUN_CONTROL_H_

/**
 * @file
 * Cooperative run control: the per-run limits a Simulator enforces
 * between events, and an abort flag any thread may raise.
 *
 * A Simulator given a RunControl calls poll() before the first event
 * and then every Simulator::kControlPollEvents events.  poll() raises
 * SimulationAbortError when an abort was requested or a limit is
 * exhausted:
 *
 *   - the event budget, which is deterministic for a given event
 *     stream;
 *   - the wall-clock budget, counted from the first poll, so building
 *     the simulation is not counted;
 *   - the stall window: the wall time since the last poll at which
 *     the simulated clock had moved.  A zero-delay livelock and a run
 *     that needs longer than the window to fire kControlPollEvents
 *     events are both stalls.
 *
 * The error is raised *between* events, so RAII cleanup of the
 * previous event has already run and the engine's pooled storage
 * stays consistent (the harness verifies this with the invariant
 * auditor before salvaging sibling replications).
 *
 * Only the abort flag crosses threads: one relaxed atomic holding a
 * level-triggered request whose first reason wins.  The limits and
 * the clock marks are read and written by the run's own thread.  A
 * callback that never returns (e.g. host I/O that blocks forever)
 * cannot be interrupted, because no poll runs until it returns.
 * Process-level isolation is out of scope (docs/ARCHITECTURE.md
 * §"Harness failure-handling contract").
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "uqsim/core/engine/sim_time.h"

namespace uqsim {

/** Why a supervised run was aborted. */
enum class AbortReason : int {
    None = 0,
    /** The simulated clock stopped moving for the stall window. */
    Stall,
    /** The wall-clock budget for the run was exceeded. */
    WallTimeout,
    /** The executed-event budget was exceeded. */
    EventBudget,
    /** An external caller requested the abort. */
    External,
};

const char* abortReasonName(AbortReason reason);

/**
 * Thrown by Simulator::run() when a run is aborted.  The harness
 * classifies it as a timeout/stall failure, never as an internal
 * error.
 */
class SimulationAbortError : public std::runtime_error {
  public:
    SimulationAbortError(AbortReason reason, const std::string& detail)
        : std::runtime_error("simulation aborted (" +
                             std::string(abortReasonName(reason)) +
                             "): " + detail),
          reason_(reason)
    {
    }

    AbortReason reason() const { return reason_; }

  private:
    AbortReason reason_;
};

/** Per-run limits; 0 disables each. */
struct RunLimits {
    /** Executed-event budget, checked at poll granularity. */
    std::uint64_t maxEvents = 0;
    /** Wall-clock budget (seconds), counted from the first poll. */
    double wallTimeoutSeconds = 0.0;
    /** Wall time (seconds) the simulated clock may stand still. */
    double stallWindowSeconds = 0.0;
};

/** Limits and abort flag of one run (see the file comment). */
class RunControl {
  public:
    explicit RunControl(RunLimits limits = {}) : limits_(limits) {}

    RunControl(const RunControl&) = delete;
    RunControl& operator=(const RunControl&) = delete;

    const RunLimits& limits() const { return limits_; }

    /** Pending abort reason; AbortReason::None when none requested. */
    AbortReason
    abortRequested() const
    {
        return static_cast<AbortReason>(
            abort_.load(std::memory_order_relaxed));
    }

    /** Requests termination from any thread; the first reason wins. */
    void
    requestAbort(AbortReason reason)
    {
        int expected = static_cast<int>(AbortReason::None);
        abort_.compare_exchange_strong(expected,
                                       static_cast<int>(reason),
                                       std::memory_order_relaxed);
    }

    /**
     * Checks the abort flag and every limit after @p events executed
     * events with the clock at @p now; throws SimulationAbortError
     * (and records the reason) when the run must stop.  Called by the
     * run's own thread, between events.
     */
    void poll(std::uint64_t events, SimTime now);

  private:
    using Clock = std::chrono::steady_clock;

    /** The wall-clock verdict at this poll, or AbortReason::None. */
    AbortReason clockVerdict(SimTime now);

    RunLimits limits_;
    std::atomic<int> abort_{static_cast<int>(AbortReason::None)};
    /** Whether the first poll has started the wall clock. */
    bool started_ = false;
    Clock::time_point startedAt_;
    /** Sim time seen at the last poll where it had moved, and when. */
    SimTime progressTime_ = 0;
    Clock::time_point progressAt_;
};

}  // namespace uqsim

#endif  // UQSIM_CORE_ENGINE_RUN_CONTROL_H_
