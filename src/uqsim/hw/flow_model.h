#ifndef UQSIM_HW_FLOW_MODEL_H_
#define UQSIM_HW_FLOW_MODEL_H_

/**
 * @file
 * Flow-level network model: named links with capacity and latency,
 * routed machine→machine paths, and max-min fair bandwidth sharing.
 *
 * Each cross-machine message becomes a *flow* that occupies every
 * link on its route for the duration of its transmission.  The
 * links are the resources of a FluidSolver (fluid_solver.h;
 * docs/ARCHITECTURE.md §Fluid sharing), which re-shares max-min
 * fair rates whenever a flow starts or finishes or a link changes
 * state.  Delivery fires one path latency after the last byte
 * leaves the sender.
 *
 * Topology-granular faults (docs/ARCHITECTURE.md §failure handling):
 * every link carries up/down and degradation state.  A transition
 * (setLinkDown / setLinkUp / setLinkDegradation) pushes the link's
 * new capacity to the solver and re-shares — a downed link
 * contributes zero capacity, a degraded one its capacity multiplied
 * down.  The re-share fills only the links that carry flows and
 * re-times only the flows whose rate changed.  New transfers whose
 * primary route crosses a dead link *fail over* deterministically to
 * the first all-up backup route (installed in fixed candidate
 * order); when no candidate survives, or a partition separates the
 * endpoints, the transfer gets an *unreachable* verdict (the drop
 * callback fires with DropReason::Unreachable).  Flows already in
 * flight across a link that dies follow the configured in-flight
 * policy: Drop (callback fires with DropReason::LinkDown, feeding
 * the dispatcher's retry/timeout machinery) or Stall (rate pinned to
 * zero until the link repairs; progressive filling does this
 * naturally).
 *
 * Everything advances through engine events ("net/flow" transmission
 * completions), so the determinism contract and the explorer's
 * same-timestamp choice points apply unchanged.  Fault-free runs
 * never touch the link-state branches: capacities and latencies
 * multiply by exactly 1.0, so digests stay bit-identical to builds
 * without fault support.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "uqsim/hw/fluid_solver.h"
#include "uqsim/hw/network_model.h"

namespace uqsim {
namespace hw {

/** Bandwidth-sharing flow model; see file comment. */
class FlowModel final : public NetworkModel {
  public:
    /** What happens to flows in flight across a link that dies. */
    enum class InFlightPolicy {
        /** Drop the flow; its drop callback fires with
         *  DropReason::LinkDown (default — feeds the dispatcher's
         *  timeout/retry/breaker machinery). */
        Drop,
        /** Keep the flow at rate zero until the link repairs; the
         *  transfer finishes late instead of failing. */
        Stall,
    };

    struct Config {
        /** Latency for same-machine (loopback) messages (seconds). */
        double loopbackLatency = 5e-6;
        /** Constant latency for legs that enter or leave the
         *  cluster (nullptr endpoints, e.g. the load generator);
         *  such legs do not consume fabric bandwidth. */
        double externalLatency = 20e-6;
        /** In-flight policy for link failures. */
        InFlightPolicy onLinkDown = InFlightPolicy::Drop;
    };

    /** One directional link. */
    struct LinkSpec {
        std::string name;
        /** Capacity in bytes per second; must be > 0. */
        double bytesPerSecond = 0.0;
        /** Propagation latency contributed to every route that
         *  crosses this link (seconds). */
        double latencySeconds = 0.0;
    };

    /** Per-link fault summary for reporting. */
    struct LinkFaultSummary {
        std::string name;
        /** Accumulated downtime (seconds), open intervals included. */
        double downSeconds = 0.0;
        /** In-flight flows dropped when this link died. */
        std::uint64_t drops = 0;
    };

    FlowModel();
    explicit FlowModel(const Config& config);

    static std::unique_ptr<FlowModel> make();
    static std::unique_ptr<FlowModel> make(const Config& config);

    const Config& config() const { return config_; }

    // ------------------------------------------ fabric construction
    // Links and routes must be installed before the simulation runs.
    // In-flight flows and failover picks point into route storage, so
    // setRoute() and addBackupRoute() throw std::logic_error once
    // transit() has carried a transfer.

    /** Adds a directional link; the name must be unique.  Returns
     *  the link id used in routes. */
    int addLink(const LinkSpec& spec);

    /** Link id for @p name, or -1 when absent. */
    int linkId(const std::string& name) const;

    std::size_t linkCount() const { return links_.size(); }
    const LinkSpec& link(int id) const { return links_.at(id); }

    /**
     * Installs the directional *primary* route between two machines,
     * identified by their cluster-assigned net ids
     * (Machine::netId()).  @p path lists link ids in traversal
     * order; it may be empty (zero-latency direct path).  Replaces
     * any previously installed candidates for the pair.
     */
    void setRoute(int fromId, int toId, std::vector<int> path);

    /**
     * Appends a backup candidate for the pair.  Failover tries
     * candidates in installation order — primary first, then each
     * backup — and uses the first whose links are all up.
     */
    void addBackupRoute(int fromId, int toId, std::vector<int> path);

    bool hasRoute(int fromId, int toId) const;
    /** The primary route (candidate 0). */
    const std::vector<int>& route(int fromId, int toId) const;
    /** All candidates in failover order; throws when absent. */
    const std::vector<std::vector<int>>& routeCandidates(
        int fromId, int toId) const;

    /**
     * Registers a named switch as the set of link ids that die with
     * it (switch_down faults fail them all).  Names must be unique.
     */
    void registerSwitch(const std::string& name,
                        std::vector<int> linkIds);
    bool hasSwitch(const std::string& name) const;
    /** Link ids of @p name; throws std::out_of_range when absent. */
    const std::vector<int>& switchLinks(const std::string& name) const;
    /** Registered switch names, in registration order. */
    const std::vector<std::string>& switchNames() const
    {
        return switchNames_;
    }

    // ---------------------------------------------- topology faults
    // Each transition triggers a max-min re-share.
    // Down states nest (a link downed twice needs two repairs), so
    // overlapping link_down and switch_down windows compose.

    void setLinkDown(int id);
    void setLinkUp(int id);
    /** Multiplies capacity by @p capacityFactor (in (0, 1]) and
     *  latency by @p latencyFactor (>= 1) until cleared. */
    void setLinkDegradation(int id, double capacityFactor,
                            double latencyFactor);
    void clearLinkDegradation(int id);
    bool linkUp(int id) const;

    /**
     * Opens a partition: machines in different groups (net ids)
     * cannot reach each other; machines in no group are unaffected.
     * A new partition replaces any active one.
     */
    void setPartition(const std::vector<std::vector<int>>& groups);
    void clearPartition();
    bool partitionActive() const { return partitionActive_; }

    /** True when a message from @p fromId to @p toId would be
     *  deliverable right now (some candidate route survives and no
     *  partition separates the pair). */
    bool reachable(int fromId, int toId) const;

    // ------------------------------------------------- NetworkModel

    const char* modelName() const override { return "flow"; }
    void bind(Simulator& sim) override;
    void onMachineAdded(const Machine& machine) override;
    void transit(const Machine* from, const Machine* to,
                 std::uint32_t bytes, double extraLatencySeconds,
                 Callback done, DropCallback dropped,
                 const char* label) override;
    void loopback(const Machine* machine, std::uint32_t bytes,
                  double extraLatencySeconds, Callback done,
                  const char* label) override;

    /** FlowModel state in the NETWORK section: flow counters,
     *  per-link nested-down/degradation state, partition and sticky
     *  failover-pick state, and an active-flow fold in id order. */
    void saveState(snapshot::SnapshotWriter& writer) const override;
    void loadState(snapshot::SnapshotReader& reader) const override;

    // ------------------------------------------------ observability

    std::uint64_t flowsStarted() const { return started_; }
    std::uint64_t flowsFinished() const { return finished_; }
    std::size_t activeFlowCount() const { return solver_.flows().size(); }
    /** Number of fair-share recomputations (flow starts and
     *  finishes, link transitions). */
    std::uint64_t reshareCount() const { return solver_.reshareCount(); }

    /** Transfers routed over a backup candidate (primary dead). */
    std::uint64_t failovers() const { return failovers_; }
    /** Transfers with an unreachable verdict (no surviving route or
     *  partition-blocked). */
    std::uint64_t unreachableMessages() const { return unreachable_; }
    /** In-flight flows dropped by link failures (policy Drop). */
    std::uint64_t linkDropsTotal() const { return linkDrops_; }
    /** Accumulated downtime of @p id in seconds; a still-open
     *  outage counts up to now. */
    double linkDownSeconds(int id) const;
    /** Per-link fault summaries for links that saw downtime or
     *  drops, in link-id order. */
    std::vector<LinkFaultSummary> linkFaultSummaries() const;
    /** Current rates of the active flows, in flow-id order (exposed
     *  so tests can pin exact allocation restore after repair). */
    std::vector<double> activeFlowRates() const;

  private:
    struct LinkState {
        /** Nested down count; the link is up when 0. */
        int downCount = 0;
        double capacityFactor = 1.0;
        double latencyFactor = 1.0;
        SimTime downSince = 0;
        double downSecondsTotal = 0.0;
        std::uint64_t drops = 0;
    };

    const std::vector<std::vector<int>>& routeOrThrow(
        const Machine& from, const Machine& to) const;
    /** Throws std::logic_error once a transfer has been carried. */
    void requireRoutesMutable() const;
    bool pathUp(const std::vector<int>& path) const;
    /** First all-up candidate (a RouteFailover choice point when
     *  several survive and a chooser is attached); nullptr when none
     *  survives. */
    const std::vector<int>* pickSurvivingPath(
        const std::vector<std::vector<int>>& candidates);
    bool crossesPartition(int fromId, int toId) const;
    double pathLatencySeconds(const std::vector<int>& path) const;
    void dropMessage(DropCallback dropped, DropReason reason,
                     const char* label);
    /** Pushes link @p id's effective capacity (0 while down) to the
     *  solver and re-shares. */
    void reshareLink(int id);

    Config config_;
    Simulator* sim_ = nullptr;
    std::vector<LinkSpec> links_;
    std::vector<LinkState> linkStates_;
    std::map<std::string, int> linkIds_;
    /** Candidate paths per (from, to) pair in failover order;
     *  index 0 is the primary. */
    std::map<std::pair<int, int>, std::vector<std::vector<int>>>
        routes_;
    std::map<std::string, std::vector<int>> switches_;
    std::vector<std::string> switchNames_;
    std::vector<std::string> machineNames_;

    /** Set by the first fabric transit(); the route setters throw
     *  from then on. */
    bool carried_ = false;
    /** Links currently down (downCount > 0); fast-path guard so
     *  fault-free transits never scan candidates. */
    int downLinkCount_ = 0;
    bool partitionActive_ = false;
    /** Partition group per net id; -1 = not in any group. */
    std::vector<int> partitionOf_;

    /** Resources are the links, by link id; flows carry their
     *  route as the resource list. */
    FluidSolver solver_;
    std::uint64_t started_ = 0;
    std::uint64_t finished_ = 0;
    std::uint64_t failovers_ = 0;
    std::uint64_t unreachable_ = 0;
    std::uint64_t linkDrops_ = 0;

    // Scratch reused across failover calls.
    std::vector<const std::vector<int>*> survivorScratch_;

    /** Failover pick per (from, to) pair, sticky until the next
     *  link up/down transition (nullptr = unreachable verdict) —
     *  one RouteFailover decision per route per outage epoch, like
     *  a router installing a backup route, rather than one per
     *  transfer. */
    std::map<std::pair<int, int>, const std::vector<int>*>
        failoverPicks_;
};

}  // namespace hw
}  // namespace uqsim

#endif  // UQSIM_HW_FLOW_MODEL_H_
