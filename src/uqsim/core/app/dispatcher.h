#ifndef UQSIM_CORE_APP_DISPATCHER_H_
#define UQSIM_CORE_APP_DISPATCHER_H_

/**
 * @file
 * The centralized scheduler dispatching requests to microservice
 * instances (paper §I, §III).
 *
 * The dispatcher walks each request through its sampled path
 * variant: it selects target instances (pinned, sticky per root
 * request, or load-balanced), moves messages through the network and
 * per-machine IRQ services, enforces fan-in synchronization,
 * acquires and releases inter-tier pooled connections, and applies
 * enter/leave blocking operations.
 *
 * Connection-pool protocol: a *forward* hop from instance A to
 * instance B acquires a connection from pool(A→B) and records it
 * under the root request.  When a later node routes from B back to
 * A, that recorded connection carries the response and is released
 * when the response arrives at A (HTTP/1.1-style reuse).  A leaf
 * node that never routes back releases its connection when the node
 * completes.
 *
 * Resilience: a hop whose (upstream, downstream) service edge has an
 * EdgePolicy becomes *managed* — the dispatcher arms a per-attempt
 * timeout with a retry budget (exponential backoff + jitter from the
 * "dispatcher/retry" stream), fires hedged duplicate attempts after
 * a fixed or adaptive-percentile delay, and gates sends on the
 * edge's circuit breaker.  The first attempt to respond wins; the
 * others are marked dead, their connections released, and their
 * late results dropped.  A request with no live attempts and no
 * retry budget left fails, as do requests hit by instance crashes,
 * bounded-queue rejection, network loss, or entry-tier admission
 * control.  Fan-in nodes stay unmanaged (a duplicate copy would
 * corrupt the arrival count).
 */

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "uqsim/core/app/deployment.h"
#include "uqsim/core/app/path_tree.h"
#include "uqsim/core/app/trace.h"
#include "uqsim/core/engine/simulator.h"
#include "uqsim/core/service/connection.h"
#include "uqsim/core/service/job.h"
#include "uqsim/core/sim/report.h"
#include "uqsim/fault/resilience.h"
#include "uqsim/hw/network.h"
#include "uqsim/stats/running_quantile.h"

namespace uqsim {

/** Central request router. */
class Dispatcher {
  public:
    /**
     * Wires every deployed instance's completion and failure
     * callbacks to this dispatcher and resolves the path tree's
     * execution-path names against the deployment's models.  Deploy
     * all instances before constructing the dispatcher.
     */
    Dispatcher(Simulator& sim, hw::Network& network, PathTree& tree,
               Deployment& deployment);

    Dispatcher(const Dispatcher&) = delete;
    Dispatcher& operator=(const Dispatcher&) = delete;

    /**
     * Begins a client request.  @p front is the front-end instance
     * the client connection terminates at; @p client_conn is that
     * connection's id, which must come from the deployment's
     * ConnectionIdAllocator so it cannot collide with pooled
     * connection ids.  The root node of the sampled variant must
     * belong to @p front's service.
     */
    void startRequest(JobPtr job, MicroserviceInstance& front,
                      ConnectionId client_conn);

    /** Fired when the response reaches the client. */
    void setOnRequestComplete(
        std::function<void(const Job&, SimTime)> callback)
    {
        onRequestComplete_ = std::move(callback);
    }

    /**
     * Fired when a request fails (crash, loss, exhausted retries,
     * breaker, shed) with the root id, issuing client tag, issue
     * time, and reason.
     */
    void setOnRequestFailed(
        std::function<void(JobId, int, SimTime, fault::FailReason)>
            callback)
    {
        onRequestFailed_ = std::move(callback);
    }

    /**
     * Fired when a job leaves a tier, with the tier's interned
     * service id (resolve via Deployment::names()) and the per-tier
     * latency in seconds (queueing + processing at that tier).  Used
     * by the power manager.
     */
    void setTierLatencyHook(
        std::function<void(std::uint32_t, double)> hook)
    {
        tierLatencyHook_ = std::move(hook);
    }

    /**
     * Attaches a trace recorder; pass nullptr to detach.  The
     * recorder receives start/enter/leave/complete events for the
     * root requests its sampler selects, and is bound to the
     * deployment's name interner for span rendering.
     */
    void attachTracer(TraceRecorder* tracer)
    {
        tracer_ = tracer;
        if (tracer_ != nullptr)
            tracer_->bindNames(&deployment_.names());
    }

    BlockRegistry& blocks() { return blocks_; }
    JobFactory& jobs() { return jobs_; }

    std::uint64_t requestsStarted() const { return started_; }
    std::uint64_t requestsCompleted() const { return completed_; }
    std::uint64_t requestsFailed() const { return failed_; }
    std::uint64_t requestsShed() const { return shed_; }
    std::uint64_t retriesSent() const { return retriesSent_; }
    std::uint64_t hedgesSent() const { return hedgesSent_; }
    /** Circuit-breaker trips summed over all edges. */
    std::uint64_t breakerTrips() const;
    /** Breakers currently not Closed (Open or HalfOpen); the
     *  breaker-recloses invariant checks this is zero post-run. */
    std::size_t openBreakers() const;
    std::size_t activeRequests() const { return roots_.size(); }

    /**
     * Per-tier failure counters accumulated so far, rendered to a
     * name-keyed map (tiers with no recorded faults are omitted).
     * Internally the counters live in a dense id-indexed array; this
     * is the report-render boundary.
     */
    std::map<std::string, TierFaultStats> tierFaults() const;

    /** Blocks/hops force-released at request completion (should stay
     *  zero for well-formed path configurations). */
    std::uint64_t leakedBlocks() const { return leakedBlocks_; }
    std::uint64_t leakedHops() const { return leakedHops_; }

    /**
     * Writes the DISPATCHER snapshot section: request counters, RNG
     * positions, deterministic folds of the active-root map, dead-job
     * set, per-edge breaker + latency state, per-tier fault counters,
     * and the deployment's pool/cursor state (snapshot.h).
     */
    void saveState(snapshot::SnapshotWriter& writer) const;

    /** Validates the live (replayed) state against a snapshot's
     *  DISPATCHER section; throws SnapshotStateError on divergence. */
    void loadState(snapshot::SnapshotReader& reader) const;

  private:
    struct ForwardHop {
        const MicroserviceInstance* upstream = nullptr;
        const MicroserviceInstance* downstream = nullptr;
        ConnectionId conn = kNoConnection;
        ConnectionPool* pool = nullptr;
    };

    /** One send (original, retry, or hedge) of a managed hop. */
    struct Attempt {
        JobId jobId = 0;
        SimTime sentAt = 0;
        ConnectionId conn = kNoConnection;
        bool live = true;
    };

    /** Per-(root, node) state of a managed hop.  `policy` doubles as
     *  the "engaged" flag; reset() recycles the record in place,
     *  keeping the attempts vector's capacity. */
    struct HopState {
        const fault::EdgePolicy* policy = nullptr;
        MicroserviceInstance* from = nullptr;
        /** Interned id of the downstream service. */
        std::uint32_t serviceId = 0xFFFFFFFFu;
        /** Pristine copy for minting retry/hedge attempts. */
        JobPtr prototype;
        std::vector<Attempt> attempts;
        int liveAttempts = 0;
        int retriesLeft = 0;
        int hedgesLeft = 0;
        bool done = false;
        EventHandle timeoutEvent;
        EventHandle hedgeEvent;
        EventHandle resendEvent;

        void
        reset()
        {
            policy = nullptr;
            from = nullptr;
            serviceId = 0xFFFFFFFFu;
            prototype.reset();
            attempts.clear();
            liveAttempts = 0;
            retriesLeft = 0;
            hedgesLeft = 0;
            done = false;
            timeoutEvent = EventHandle();
            hedgeEvent = EventHandle();
            resendEvent = EventHandle();
        }
    };

    /** Per-(upstream, downstream) service-edge runtime state. */
    struct EdgeRuntime {
        std::unique_ptr<fault::CircuitBreaker> breaker;
        /** Winner hop latencies (seconds) in completion order; the
         *  snapshot fold reads them. */
        std::vector<double> hopLatencies;
        /** Running hedge_percentile of hopLatencies, engaged when the
         *  edge's policy hedges adaptively. */
        std::optional<stats::RunningQuantile> hedgeQuantile;
    };

    /**
     * Per-root-request routing state.  RootStates are recycled with
     * their roots_ map nodes (rootPool_): every container below
     * keeps its capacity across requests, so steady-state request
     * turnover performs no heap allocation here.
     */
    struct RootState {
        int variant = 0;
        /** Sticky routing, indexed by interned service id. */
        std::vector<MicroserviceInstance*> affinity;
        /** Fan-in counters: (node id, copies arrived) pairs. */
        std::vector<std::pair<int, int>> syncArrived;
        /** Outstanding pooled connections. */
        std::vector<ForwardHop> hops;
        /** Managed-hop records indexed by path-node id; an entry is
         *  engaged while its policy pointer is set. */
        std::vector<HopState> hopStates;
        /** Node ids with engaged hopStates entries (reset targets). */
        std::vector<int> engagedHops;
        int terminalsDone = 0;
        int clientTag = -1;
        SimTime created = 0;
        /** Interned id of the front service. */
        std::uint32_t frontId = 0xFFFFFFFFu;
    };

    using RootMap = std::map<JobId, RootState>;

    /** Nullable lookup; null after the request completed or failed. */
    RootState* findRoot(JobId root);
    /** Inserts a recycled (or fresh) RootState under @p root, reset
     *  and sized for a variant with @p node_count nodes. */
    RootState& insertRoot(JobId root, std::size_t node_count);
    /** Parks a finished root's extracted node in rootPool_, dropping
     *  its job references. */
    void recycleRoot(RootMap::node_type node);
    MicroserviceInstance& selectInstance(RootState& state,
                                         const PathNode& node);
    void routeToNode(JobPtr job, int node_id,
                     MicroserviceInstance* from);
    void deliver(JobPtr job, int node_id, MicroserviceInstance& target);
    void onNodeComplete(JobPtr job, MicroserviceInstance& inst);
    void finishRequest(JobPtr job, MicroserviceInstance& last);
    void completeAtClient(JobPtr job);

    // Resilience machinery -------------------------------------------
    EdgeRuntime& edgeRuntime(std::uint32_t from_id, std::uint32_t to_id,
                             const fault::EdgePolicy& policy);
    void startManagedHop(RootState& state, JobPtr job, int node_id,
                         MicroserviceInstance* from,
                         const fault::EdgePolicy& policy);
    void launchAttempt(JobId root, int node_id, JobPtr job);
    void onHopTimeout(JobId root, int node_id);
    void scheduleResend(JobId root, int node_id);
    void onHedgeTimer(JobId root, int node_id);
    SimTime resolveHedgeDelay(EdgeRuntime& edge,
                              const fault::EdgePolicy& policy);
    /**
     * Extra delay for one resilience timer (timeout / hedge /
     * retry-backoff), decided by the simulator's attached Chooser
     * (TimerNudge choice points).  Zero with no chooser, with the
     * kind disabled, or when the chooser answers 0, so the default
     * schedule is unchanged.
     */
    SimTime timerNudge(const char* label);
    /** Job-level failure reported by an instance (crash, refusal,
     *  bounded-queue rejection). */
    void onJobFailed(JobPtr job, MicroserviceInstance& inst,
                     fault::FailReason reason);
    /** Message dropped in transit toward a managed hop: consumes a
     *  retry before failing the request. */
    void onTransferDropped(JobPtr job, int node_id,
                           hw::DropReason reason);
    /** Message dropped on an unmanaged edge (client legs, pooled
     *  response legs): fails the whole request, counting an
     *  unreachable verdict against the resolved tier. */
    void onEdgeDrop(JobId root, hw::DropReason reason,
                    std::uint32_t tier_id);
    /**
     * Routes one attempt failure: consumes a retry, lets surviving
     * racer attempts run, or fails the whole request.
     */
    void failAttemptOrRequest(JobId root, int node_id, JobId job_id,
                              fault::FailReason reason,
                              std::uint32_t tier_id);
    /** Releases the pooled connection an attempt holds (if any). */
    void releaseAttemptConn(RootState& state, Attempt& attempt);
    /** @p tier_id kNone charges the error to the front service. */
    void failRequest(JobId root, fault::FailReason reason,
                     std::uint32_t tier_id);
    void cancelHopEvents(RootState& state);
    void decrementInflight(std::uint32_t front_id);
    /** Id-indexed fault counters, grown on demand. */
    TierFaultStats& tierFault(std::uint32_t tier_id);

    /** Deterministic fold of the active-root map, dead-job set,
     *  per-edge runtime state, and per-tier fault counters
     *  (snapshot save + validate share this). */
    std::uint64_t activeStateDigest() const;

    Simulator& sim_;
    hw::Network& network_;
    PathTree& tree_;
    Deployment& deployment_;
    random::RngStream rng_;
    /** Backoff jitter; only drawn when a retry policy asks for it. */
    random::RngStream retryRng_;
    JobFactory jobs_;
    BlockRegistry blocks_;
    RootMap roots_;
    /** Extracted nodes of finished roots awaiting reuse under a new
     *  root id (each RootState's capacity retained). */
    std::vector<RootMap::node_type> rootPool_;
    /** Edge-keyed breaker + latency state, keyed by packed
     *  (from id << 32 | to id).  Only iterated for order-independent
     *  sums, so the unordered layout cannot affect determinism. */
    std::unordered_map<std::uint64_t, EdgeRuntime> edges_;
    /** Cancelled attempt jobs whose late results must be dropped. */
    std::set<JobId> deadJobs_;
    /** Admission control: active roots per front-service id. */
    std::vector<int> inflightByFront_;
    /** Fault counters indexed by interned tier id. */
    std::vector<TierFaultStats> tierFaults_;
    TraceRecorder* tracer_ = nullptr;
    std::function<void(const Job&, SimTime)> onRequestComplete_;
    std::function<void(JobId, int, SimTime, fault::FailReason)>
        onRequestFailed_;
    std::function<void(std::uint32_t, double)> tierLatencyHook_;
    std::uint64_t started_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t retriesSent_ = 0;
    std::uint64_t hedgesSent_ = 0;
    std::uint64_t leakedBlocks_ = 0;
    std::uint64_t leakedHops_ = 0;
};

}  // namespace uqsim

#endif  // UQSIM_CORE_APP_DISPATCHER_H_
