#ifndef UQSIM_FAULT_FAULT_PLAN_H_
#define UQSIM_FAULT_FAULT_PLAN_H_

/**
 * @file
 * Fault timelines parsed from faults.json.
 *
 * A plan is a list of fault specs.  Crashes target an instance (or
 * every instance of a service) and are either scripted (at_s +
 * recover_s) or stochastic (mtbf_s + mttr_s with exponential up/down
 * times from a per-instance seed-split stream).  Slow-node faults
 * inflate processing time by a factor over a window; network faults
 * add latency and message-loss probability cluster-wide over a
 * window.
 *
 * Topology-granular kinds (FlowModel runs only; docs/FORMATS.md):
 * link_down fails one named fabric link over a window (scripted or
 * stochastic, seed-split per link as "fault/link/<name>");
 * link_degraded scales a link's capacity/latency over a window;
 * switch_down fails every link of a registered fat-tree switch; and
 * partition makes named host groups mutually unreachable.
 */

#include <string>
#include <vector>

#include "uqsim/json/json_value.h"

namespace uqsim {
namespace fault {

/** One fault timeline entry. */
struct FaultSpec {
    enum class Kind {
        Crash,
        Slow,
        Network,
        LinkDown,
        LinkDegraded,
        SwitchDown,
        Partition,
    };

    Kind kind = Kind::Crash;

    /** Target "service.index" (e.g. "leaf.3"); empty when the spec
     *  targets a whole service or, for network faults, the cluster. */
    std::string instance;
    /** Target service name (all its instances); empty when a single
     *  instance is named. */
    std::string service;

    /** Scripted window: start_s/end_s, or a crash's at_s/recover_s.
     *  An end of 0 leaves a crash, slow or network window open. */
    double startSeconds = 0.0;
    double endSeconds = 0.0;

    // Stochastic crash or link_down (exponential up/down times).
    double mtbfSeconds = 0.0;
    double mttrSeconds = 0.0;

    /** Slow-node processing-time multiplier. */
    double factor = 1.0;

    // Network degradation.
    double extraLatencySeconds = 0.0;
    double lossProbability = 0.0;

    // Topology faults (FlowModel).
    /** Fabric link name (link_down / link_degraded). */
    std::string link;
    /** Registered switch name (switch_down). */
    std::string switchName;
    /** Host-name groups that lose mutual reachability (partition). */
    std::vector<std::vector<std::string>> groups;
    /** link_degraded capacity multiplier, in (0, 1]. */
    double capacityFactor = 1.0;
    /** link_degraded latency multiplier, >= 1. */
    double latencyFactor = 1.0;

    bool stochastic() const { return mtbfSeconds > 0.0; }

    /** True for the kinds that need a FlowModel fabric. */
    bool topologyFault() const
    {
        return kind == Kind::LinkDown || kind == Kind::LinkDegraded ||
               kind == Kind::SwitchDown || kind == Kind::Partition;
    }

    static FaultSpec fromJson(const json::JsonValue& doc);
};

/** The full fault timeline for a run. */
struct FaultPlan {
    std::vector<FaultSpec> faults;

    bool empty() const { return faults.empty(); }

    /** Parses a faults.json document: {"faults": [ ... ]}. */
    static FaultPlan fromJson(const json::JsonValue& doc);
};

}  // namespace fault
}  // namespace uqsim

#endif  // UQSIM_FAULT_FAULT_PLAN_H_
