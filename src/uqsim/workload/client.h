#ifndef UQSIM_WORKLOAD_CLIENT_H_
#define UQSIM_WORKLOAD_CLIENT_H_

/**
 * @file
 * Open-loop workload generator modeled after the paper's modified
 * wrk2 client: a fixed set of persistent connections to the
 * front-end tier, with request issue times drawn from an arrival
 * process regardless of completions (client.json, Table I).
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "uqsim/core/app/dispatcher.h"
#include "uqsim/core/engine/simulator.h"
#include "uqsim/random/distribution.h"
#include "uqsim/workload/arrival_process.h"
#include "uqsim/workload/load_pattern.h"

namespace uqsim {

namespace snapshot {
class Digest;
}  // namespace snapshot

namespace workload {

/** How the generator paces requests. */
enum class ClientMode {
    /** Open loop (wrk2-style): arrivals never wait for completions;
     *  the paper's validation setup. */
    Open,
    /** Closed loop: each connection holds one outstanding request
     *  and issues the next one a think time after the response. */
    Closed,
};

/** Client configuration (client.json). */
struct ClientConfig {
    /** Front-end service the client connects to. */
    std::string frontService;
    /** Number of persistent client connections. */
    int connections = 320;
    /** Open vs closed loop ("mode": "open" | "closed"). */
    ClientMode mode = ClientMode::Open;
    /** Closed-loop think time between response and next request
     *  (seconds); sampled exponentially when > 0. */
    double thinkTime = 0.0;
    /** Request payload size distribution (bytes). */
    random::DistributionPtr requestBytes;
    /** Inter-arrival process. */
    ArrivalProcessPtr arrivals;
    /** Offered load over time. */
    LoadPatternPtr load;
    /** Time generation starts (seconds). */
    double startTime = 0.0;
    /** Time generation stops (seconds); <= 0 = never. */
    double stopTime = 0.0;
    /**
     * Client-side request timeout (seconds); <= 0 disables.  A
     * request not answered within the timeout is recorded as timed
     * out; its eventual completion is ignored.  Models the
     * timeout/reconnect behavior the paper notes real clients add
     * beyond saturation (§IV-C).
     */
    double timeout = 0.0;
    /** Reissue attempts after a timeout or failure (requires
     *  timeout > 0 for the timeout path). */
    int retries = 0;
    /** First-retry backoff (seconds); <= 0 reissues immediately. */
    double retryBackoffSeconds = 0.0;
    /** Backoff growth per retry. */
    double retryBackoffMult = 2.0;
    /** Multiplicative jitter fraction on the backoff; 0 disables
     *  (and then no RNG is drawn for it). */
    double retryJitter = 0.0;

    /** Parses a client.json document. */
    static ClientConfig fromJson(const json::JsonValue& doc);
};

/** Open-loop request generator. */
class Client {
  public:
    /**
     * Creates the client's connections (spread round-robin across
     * the front service's instances) but does not start generating;
     * call start().
     */
    Client(Simulator& sim, Dispatcher& dispatcher,
           Deployment& deployment, ClientConfig config);

    /** Schedules the first arrival. */
    void start();

    /** Requests issued so far (including retry reissues). */
    std::uint64_t generated() const { return generated_; }

    /** Requests that exceeded the client timeout. */
    std::uint64_t timeouts() const { return timeouts_; }

    /** Requests reported failed by the dispatcher (crash, loss,
     *  shed, exhausted hop retries, open breaker). */
    std::uint64_t errors() const { return errors_; }

    /** Retry requests issued after timeouts or failures. */
    std::uint64_t retriesIssued() const { return retriesIssued_; }

    /**
     * Tag identifying this client's jobs (set by the owning
     * Simulation; -1 when unmanaged).
     */
    int tag() const { return tag_; }
    void setTag(int tag) { tag_ = tag; }

    /**
     * Notifies the client that one of its requests completed.  Used
     * by the timeout machinery; returns false when the request had
     * already timed out (its latency should not be recorded).
     */
    bool onCompletion(JobId root);

    /**
     * Notifies the client that one of its requests failed.  Cancels
     * the pending timeout, counts an error, reissues when the retry
     * budget allows, and keeps a closed loop running.
     */
    void onFailure(JobId root);

    const ClientConfig& config() const { return config_; }

    /** Instantaneous offered load at the current simulation time. */
    double currentOfferedLoad() const;

    /**
     * Folds this client into the CLIENTS layer: counters, arrival
     * cursor, RNG position, then the outstanding-request and
     * closed-loop maps in JobId order.
     */
    void foldState(snapshot::Digest& digest) const;

    /**
     * Re-derives the arrival RNG from a different master seed
     * (stream label unchanged).  Warm-state forking uses this after
     * restore so forks explore different arrival sequences from the
     * same warmed state; see snapshot/checkpoint.h.
     */
    void reseed(std::uint64_t master_seed);

    /** Wraps the configured load pattern in a ScaledLoad decorator
     *  (fork-time load perturbation; no-op pattern required). */
    void scaleLoad(double scale);

  private:
    void scheduleNext();
    void issueRequest();
    void issueOn(std::size_t endpoint_index, int retries_left);
    void onTimeout(JobId root);
    void reissueAfterBackoff(std::size_t endpoint_index,
                             int retries_left);
    void scheduleClosedLoopNext(std::size_t endpoint_index);

    struct Endpoint {
        MicroserviceInstance* instance;
        ConnectionId connection;
    };

    struct Outstanding {
        EventHandle timeout;
        std::size_t endpoint;
        int retriesLeft;
    };

    Simulator& sim_;
    Dispatcher& dispatcher_;
    ClientConfig config_;
    std::vector<Endpoint> endpoints_;
    std::size_t cursor_ = 0;
    random::RngStream rng_;
    std::uint64_t generated_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t errors_ = 0;
    std::uint64_t retriesIssued_ = 0;
    int tag_ = -1;
    std::map<JobId, Outstanding> outstanding_;
    /** Closed loop: root request -> issuing endpoint. */
    std::map<JobId, std::size_t> closedLoopEndpoints_;
};

}  // namespace workload
}  // namespace uqsim

#endif  // UQSIM_WORKLOAD_CLIENT_H_
