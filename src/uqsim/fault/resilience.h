#ifndef UQSIM_FAULT_RESILIENCE_H_
#define UQSIM_FAULT_RESILIENCE_H_

/**
 * @file
 * Resilience policies on the RPC path.
 *
 * Real microservice meshes wrap every inter-tier hop in mitigation
 * machinery: per-attempt timeouts with bounded retry budgets and
 * exponential backoff, hedged (duplicate) requests fired after a
 * tail-latency delay, circuit breakers that fail fast when a
 * downstream is unhealthy, and admission control that sheds load at
 * the entry tier instead of queueing without bound.  This header
 * defines the policy configuration (parsed from per-edge blocks in
 * graph.json) and the circuit-breaker state machine; the Dispatcher
 * executes the policies on each hop.
 *
 * Everything here is deterministic: backoff jitter is drawn from a
 * seed-split RngStream owned by the dispatcher, and breaker state
 * advances only on simulation events.
 */

#include <cstdint>
#include <deque>
#include <string>

#include "uqsim/core/engine/sim_time.h"
#include "uqsim/json/json_value.h"
#include "uqsim/random/rng.h"

namespace uqsim {
namespace fault {

/** Why a job or request failed. */
enum class FailReason {
    /** Instance crashed with the job in flight (queued or running). */
    Crash,
    /** Delivery to an instance that is currently down. */
    Refused,
    /** Bounded stage queue was full (reject-on-full). */
    QueueFull,
    /** Admission control shed the request at the entry tier. */
    Shed,
    /** Message lost in a network fault window. */
    NetworkLoss,
    /** Per-hop timeout expired with the retry budget exhausted. */
    HopTimeout,
    /** Circuit breaker was open; the hop failed fast. */
    BreakerOpen,
    /** No surviving network route (every candidate path crosses a
     *  dead link, or a partition separates the endpoints). */
    Unreachable,
};

const char* failReasonName(FailReason reason);

/** Circuit-breaker configuration (graph.json "breaker" block). */
struct CircuitBreakerConfig {
    bool enabled = false;
    /** Rolling window of the last N hop outcomes. */
    int windowSize = 20;
    /** Open when failures/window >= ratio (once minSamples seen). */
    double failureRatio = 0.5;
    int minSamples = 10;
    /** Open duration before probing (seconds). */
    double openSeconds = 1.0;
    /** Consecutive half-open successes needed to close. */
    int halfOpenProbes = 3;

    static CircuitBreakerConfig fromJson(const json::JsonValue& doc);
};

/**
 * Per-downstream circuit breaker (closed / open / half-open).
 *
 * Closed: outcomes feed a rolling window; too many failures trips
 * the breaker open.  Open: every request is rejected until
 * openSeconds elapse.  Half-open: up to halfOpenProbes requests are
 * let through; if they all succeed the breaker closes, any failure
 * re-opens it.
 */
class CircuitBreaker {
  public:
    enum class State { Closed, Open, HalfOpen };

    explicit CircuitBreaker(const CircuitBreakerConfig& config);

    /** True when a request may proceed now (may move Open to
     *  HalfOpen when the open window has elapsed). */
    bool allowRequest(SimTime now);

    void recordSuccess(SimTime now);
    void recordFailure(SimTime now);

    State state() const { return state_; }
    /** Closed -> Open transitions so far. */
    std::uint64_t trips() const { return trips_; }

    /** Order-sensitive FNV-1a fold of the full breaker state
     *  (snapshot validation). */
    std::uint64_t stateDigest() const;

  private:
    void trip(SimTime now);

    CircuitBreakerConfig config_;
    State state_ = State::Closed;
    /** Rolling outcome window; true = failure. */
    std::deque<bool> window_;
    int windowFailures_ = 0;
    SimTime openedAt_ = 0;
    int probesInFlight_ = 0;
    int probeSuccesses_ = 0;
    std::uint64_t trips_ = 0;
};

/**
 * Resilience policy for one (upstream service -> downstream service)
 * edge, parsed from the upstream's "policies" block in graph.json.
 */
struct EdgePolicy {
    /** Per-attempt hop timeout (seconds); <= 0 disables timeouts
     *  and with them retries. */
    double timeoutSeconds = 0.0;
    /** Retry budget after the first attempt. */
    int retries = 0;
    /** Backoff before a retry resend (seconds); 0 = immediate. */
    double backoffBaseSeconds = 0.0;
    double backoffMultiplier = 2.0;
    /** Uniform jitter fraction added to each backoff in
     *  [0, jitter); drawn from the dispatcher's retry stream. */
    double jitter = 0.0;

    /** Fixed hedge delay (seconds); <= 0 disables fixed hedging. */
    double hedgeDelaySeconds = 0.0;
    /**
     * Adaptive hedging: hedge after this percentile of observed hop
     * latencies on the edge (e.g. 0.95).  Takes effect once
     * hedgeMinSamples completions have been observed; before that
     * the fixed delay (if any) applies.
     */
    double hedgePercentile = 0.0;
    /** Extra hedged attempts per hop. */
    int hedgeMax = 1;
    /** Observations before adaptive hedging engages; >= 1. */
    int hedgeMinSamples = 32;

    CircuitBreakerConfig breaker;

    bool retriesEnabled() const { return timeoutSeconds > 0.0; }
    bool hedgingEnabled() const
    {
        return hedgeDelaySeconds > 0.0 || hedgePercentile > 0.0;
    }
    /** True when the policy changes any hop behavior at all. */
    bool active() const
    {
        return retriesEnabled() || hedgingEnabled() || breaker.enabled;
    }

    static EdgePolicy fromJson(const json::JsonValue& doc);
};

/**
 * Backoff before retry @p retryIndex (0 for the first retry) of a
 * client or an edge policy: base * multiplier^retryIndex *
 * (1 + jitter * u), with u uniform in [0, 1) drawn from @p rng only
 * when jitter > 0.  0 when the base is not positive.
 */
double backoffSeconds(double baseSeconds, double multiplier,
                      int retryIndex, double jitter, random::Rng& rng);

/** Entry-tier admission control (graph.json "admission" block). */
struct AdmissionConfig {
    /** Maximum concurrently active root requests entering through
     *  this service; 0 = unlimited. */
    int maxInflight = 0;

    static AdmissionConfig fromJson(const json::JsonValue& doc);
};

}  // namespace fault
}  // namespace uqsim

#endif  // UQSIM_FAULT_RESILIENCE_H_
