#ifndef UQSIM_FAULT_FAULT_SCHEDULER_H_
#define UQSIM_FAULT_FAULT_SCHEDULER_H_

/**
 * @file
 * Executes a FaultPlan against a deployed simulation.
 *
 * Every fault kind is a toggle on its targets: a start action (crash
 * the instance, slow it, degrade the network, fail a link or a
 * switch's links, partition host groups), the end action that undoes
 * it, and the two event labels.  start() schedules each toggle one of
 * two ways.  A scripted spec is one window: the start fires at
 * start_s (a crash's at_s) and the end at end_s (recover_s), and an
 * end of 0 leaves the window open.  A stochastic spec (mtbf_s/mttr_s)
 * is an outage chain of exponential up/down intervals drawn from the
 * target's own seed-split stream: "fault/<instance>" for a crash,
 * "fault/link/<name>" for a link.
 *
 * Topology kinds (link_down, link_degraded, switch_down, partition)
 * drive per-link and partition state on the cluster's FlowModel;
 * planning one against a ConstantModel run is a configuration error
 * reported at start(), as are unknown links, switches and machines.
 *
 * Determinism: each stochastic timeline draws only from its own
 * stream, so adding a fault never perturbs service-time or client
 * arrival sampling, and an empty plan schedules nothing at all.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "uqsim/core/app/deployment.h"
#include "uqsim/core/engine/simulator.h"
#include "uqsim/fault/fault_plan.h"
#include "uqsim/hw/flow_model.h"
#include "uqsim/hw/network.h"
#include "uqsim/random/rng.h"

namespace uqsim {
namespace fault {

/** Drives fault injection for one run. */
class FaultScheduler {
  public:
    FaultScheduler(Simulator& sim, Deployment& deployment,
                   hw::Network& network, const FaultPlan& plan);

    FaultScheduler(const FaultScheduler&) = delete;
    FaultScheduler& operator=(const FaultScheduler&) = delete;

    /**
     * Schedules all fault events.  @p horizonSeconds bounds
     * stochastic timelines (no outage starts at or past it).
     */
    void start(double horizonSeconds);

    std::uint64_t crashesInjected() const { return crashes_; }

    /**
     * Folds the FAULTS layer into @p digest: injected-crash counter,
     * horizon, plan size, and every stochastic timeline stream's
     * label and RNG position (streams are created in plan order at
     * start(), so the order is deterministic).
     */
    void foldState(snapshot::Digest& digest) const;

  private:
    /** One fault kind applied to one target. */
    struct Toggle {
        std::function<void()> start;
        std::function<void()> end;
        const char* startLabel = nullptr;
        const char* endLabel = nullptr;
        /** Seed-split stream of a stochastic spec's outage chain;
         *  empty for the kinds that are never stochastic. */
        std::string stream = {};
    };

    /** A stochastic target's MTBF/MTTR chain; its events hold its
     *  address. */
    struct Outage {
        Toggle toggle;
        random::RngStream rng;
        const FaultSpec& spec;
    };

    /**
     * Onset shift for one spec's windows, decided by the simulator's
     * attached Chooser (choice.h).  Zero with no chooser, with the
     * FaultJitter kind disabled, or when the chooser answers 0 — so
     * default runs and all-default schedules are unshifted.  The
     * shift moves the *whole* window (onset and close together),
     * preserving its duration — a shifted window can therefore never
     * close before it opens.  @p windowEndSeconds is the window's
     * last scripted event: the shift is clamped so that event never
     * lands past the start() horizon (a window already at or past
     * the horizon is not shifted at all).
     */
    SimTime windowShift(const char* label, double windowEndSeconds);

    /**
     * The spec's toggles, one per target in target order.  Sets
     * @p shift to the spec's windowShift() first, so the choice
     * precedes target resolution, which throws std::runtime_error
     * for targets the run does not have.
     */
    std::vector<Toggle> toggles(const FaultSpec& spec, SimTime& shift);
    /** Instances matching a spec's instance/service target. */
    std::vector<MicroserviceInstance*>
    resolveTargets(const FaultSpec& spec) const;

    /** Fires @p toggle's start at the spec's start and its end at
     *  the spec's end (no end when that is 0), both + @p shift. */
    void scheduleWindow(const Toggle& toggle, const FaultSpec& spec,
                        SimTime shift);
    /**
     * Schedules @p outage's next (start, end) pair: both intervals
     * are drawn now, so the stream's consumption is a pure function
     * of the outage count, and the end event chains the next draw.
     * @p shift delays only the first outage; the chain after it is
     * relative, so the whole timeline slides together.
     */
    void scheduleOutage(Outage& outage, SimTime shift);

    void crash(MicroserviceInstance& target);

    Simulator& sim_;
    Deployment& deployment_;
    hw::Network& network_;
    FaultPlan plan_;
    SimTime horizon_ = 0;
    /** One chain per stochastic target, in plan order. */
    std::vector<std::unique_ptr<Outage>> outages_;
    std::uint64_t crashes_ = 0;
};

}  // namespace fault
}  // namespace uqsim

#endif  // UQSIM_FAULT_FAULT_SCHEDULER_H_
