#include "uqsim/fault/resilience.h"

#include <cmath>
#include <stdexcept>

#include "uqsim/json/validation.h"
#include "uqsim/snapshot/snapshot.h"

namespace uqsim {
namespace fault {

const char*
failReasonName(FailReason reason)
{
    switch (reason) {
      case FailReason::Crash:
        return "crash";
      case FailReason::Refused:
        return "refused";
      case FailReason::QueueFull:
        return "queue_full";
      case FailReason::Shed:
        return "shed";
      case FailReason::NetworkLoss:
        return "network_loss";
      case FailReason::HopTimeout:
        return "hop_timeout";
      case FailReason::BreakerOpen:
        return "breaker_open";
      case FailReason::Unreachable:
        return "unreachable";
    }
    return "unknown";
}

CircuitBreakerConfig
CircuitBreakerConfig::fromJson(const json::JsonValue& doc)
{
    json::requireKnownKeys(doc,
                           {"window", "failure_ratio", "min_samples",
                            "open_s", "half_open_probes"},
                           "breaker policy");
    CircuitBreakerConfig config;
    config.enabled = true;
    config.windowSize = doc.getOr("window", config.windowSize);
    config.failureRatio =
        doc.getOr("failure_ratio", config.failureRatio);
    config.minSamples = doc.getOr("min_samples", config.minSamples);
    config.openSeconds = doc.getOr("open_s", config.openSeconds);
    config.halfOpenProbes =
        doc.getOr("half_open_probes", config.halfOpenProbes);
    if (config.windowSize <= 0)
        throw json::JsonError("breaker window must be > 0");
    if (!(config.failureRatio > 0.0 && config.failureRatio <= 1.0))
        throw json::JsonError("breaker failure_ratio must be in (0, 1]");
    if (config.openSeconds <= 0.0)
        throw json::JsonError("breaker open_s must be > 0");
    if (config.halfOpenProbes <= 0)
        throw json::JsonError("breaker half_open_probes must be > 0");
    return config;
}

CircuitBreaker::CircuitBreaker(const CircuitBreakerConfig& config)
    : config_(config)
{
}

bool
CircuitBreaker::allowRequest(SimTime now)
{
    switch (state_) {
      case State::Closed:
        return true;
      case State::Open:
        if (now - openedAt_ <
            secondsToSimTime(config_.openSeconds)) {
            return false;
        }
        state_ = State::HalfOpen;
        probesInFlight_ = 0;
        probeSuccesses_ = 0;
        [[fallthrough]];
      case State::HalfOpen:
        if (probesInFlight_ >= config_.halfOpenProbes)
            return false;
        ++probesInFlight_;
        return true;
    }
    return true;
}

void
CircuitBreaker::recordSuccess(SimTime now)
{
    (void)now;
    if (state_ == State::HalfOpen) {
        ++probeSuccesses_;
        if (probeSuccesses_ >= config_.halfOpenProbes) {
            state_ = State::Closed;
            window_.clear();
            windowFailures_ = 0;
        }
        return;
    }
    if (state_ != State::Closed)
        return;
    window_.push_back(false);
    if (static_cast<int>(window_.size()) > config_.windowSize) {
        if (window_.front())
            --windowFailures_;
        window_.pop_front();
    }
}

void
CircuitBreaker::recordFailure(SimTime now)
{
    if (state_ == State::HalfOpen) {
        // A failed probe re-opens immediately.
        trip(now);
        return;
    }
    if (state_ != State::Closed)
        return;
    window_.push_back(true);
    ++windowFailures_;
    if (static_cast<int>(window_.size()) > config_.windowSize) {
        if (window_.front())
            --windowFailures_;
        window_.pop_front();
    }
    if (static_cast<int>(window_.size()) >= config_.minSamples &&
        static_cast<double>(windowFailures_) /
                static_cast<double>(window_.size()) >=
            config_.failureRatio) {
        trip(now);
    }
}

std::uint64_t
CircuitBreaker::stateDigest() const
{
    snapshot::Digest digest;
    digest.u32(static_cast<std::uint32_t>(state_));
    digest.u64(window_.size());
    for (const bool failed : window_)
        digest.boolean(failed);
    digest.i64(windowFailures_);
    digest.i64(openedAt_);
    digest.i64(probesInFlight_);
    digest.i64(probeSuccesses_);
    digest.u64(trips_);
    return digest.value();
}

void
CircuitBreaker::trip(SimTime now)
{
    state_ = State::Open;
    openedAt_ = now;
    ++trips_;
    window_.clear();
    windowFailures_ = 0;
    probesInFlight_ = 0;
    probeSuccesses_ = 0;
}

EdgePolicy
EdgePolicy::fromJson(const json::JsonValue& doc)
{
    json::requireKnownKeys(
        doc,
        {"timeout_s", "retries", "backoff_base_s", "backoff_mult",
         "jitter", "hedge_delay_s", "hedge_percentile", "hedge_max",
         "hedge_min_samples", "breaker"},
        "edge policy");
    EdgePolicy policy;
    policy.timeoutSeconds = doc.getOr("timeout_s", 0.0);
    policy.retries = doc.getOr("retries", 0);
    policy.backoffBaseSeconds = doc.getOr("backoff_base_s", 0.0);
    policy.backoffMultiplier =
        doc.getOr("backoff_mult", policy.backoffMultiplier);
    policy.jitter = doc.getOr("jitter", 0.0);
    policy.hedgeDelaySeconds = doc.getOr("hedge_delay_s", 0.0);
    policy.hedgePercentile = doc.getOr("hedge_percentile", 0.0);
    policy.hedgeMax = doc.getOr("hedge_max", policy.hedgeMax);
    policy.hedgeMinSamples =
        doc.getOr("hedge_min_samples", policy.hedgeMinSamples);
    if (const json::JsonValue* breaker = doc.find("breaker"))
        policy.breaker = CircuitBreakerConfig::fromJson(*breaker);
    if (policy.retries < 0)
        throw json::JsonError("policy retries must be >= 0");
    if (policy.hedgeMax < 0)
        throw json::JsonError("policy hedge_max must be >= 0");
    if (policy.hedgePercentile < 0.0 || policy.hedgePercentile >= 1.0)
        throw json::JsonError(
            "policy hedge_percentile must be a fraction in [0, 1)");
    if (policy.hedgeMinSamples < 1)
        throw json::JsonError("policy hedge_min_samples must be >= 1");
    if (policy.retries > 0 && policy.timeoutSeconds <= 0.0)
        throw json::JsonError("policy retries require timeout_s > 0");
    return policy;
}

double
backoffSeconds(double baseSeconds, double multiplier, int retryIndex,
               double jitter, random::Rng& rng)
{
    double backoff = 0.0;
    if (baseSeconds > 0.0) {
        backoff = baseSeconds *
                  std::pow(multiplier, static_cast<double>(retryIndex));
        if (jitter > 0.0)
            backoff *= 1.0 + jitter * rng.nextDouble();
    }
    return backoff;
}

AdmissionConfig
AdmissionConfig::fromJson(const json::JsonValue& doc)
{
    json::requireKnownKeys(doc, {"max_inflight"}, "admission policy");
    AdmissionConfig config;
    config.maxInflight = doc.getOr("max_inflight", 0);
    if (config.maxInflight < 0)
        throw json::JsonError("admission max_inflight must be >= 0");
    return config;
}

}  // namespace fault
}  // namespace uqsim
