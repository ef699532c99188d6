#ifndef UQSIM_HW_FLUID_SOLVER_H_
#define UQSIM_HW_FLUID_SOLVER_H_

/**
 * @file
 * Fluid bandwidth-sharing solver under the flow network model
 * (flow_model.h: the resources are links) and the disk (disk.h: the
 * read and write heads).  Each flow holds a max-min fair share of
 * every resource it crosses until its last byte moves; reshare()
 * recomputes the shares by progressive filling over the loaded
 * resources only (those some flow crosses, in ascending index order)
 * and re-keys only the completions whose rate changed.  Flows sit in
 * a flat table in id order, never hash order, so the arithmetic is
 * bit-reproducible.  Full contract: docs/ARCHITECTURE.md §Fluid
 * sharing.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include "uqsim/hw/network_model.h"

namespace uqsim {
namespace hw {

/** Max-min fair sharing of resources among flows; see file comment. */
class FluidSolver {
  public:
    struct Flow {
        /** Resource ids crossed; the storage is the adapter's and
         *  must outlive the flow. */
        const std::vector<int>* resources = nullptr;
        std::uint64_t sizeBytes = 0;
        /** Counts down from sizeBytes; set by insert(). */
        double remainingBytes = 0.0;
        /** Bytes per second; set by reshare(). */
        double rate = 0.0;
        /** Paid after the last byte, before @c done fires. */
        double tailLatency = 0.0;
        Callback done;
        /** FlowModel's abort notification for a link drop; the
         *  solver never fires it (erase() hands it back). */
        DropCallback dropped;
        /** Label of the tail event that fires @c done. */
        const char* label = nullptr;
        /** Last-byte event; set by reshare(). */
        EventHandle completion;
    };

    /** Active flows as (id, flow) pairs in ascending id order.  Ids
     *  only grow, so insert() appends and erase() binary-searches. */
    using FlowTable = std::vector<std::pair<std::uint64_t, Flow>>;

    /** Runs when a flow's last byte moves, after the flow left the
     *  table and before the re-share; flows it inserts join that
     *  re-share. */
    using FinishHook = InlineFunction<void(const Flow&), 16>;

    /** Completion events carry @p completionLabel. */
    FluidSolver(const char* completionLabel, FinishHook onFinish);

    FluidSolver(const FluidSolver&) = delete;
    FluidSolver& operator=(const FluidSolver&) = delete;

    /** Attaches the simulator; call before the first insert(). */
    void bind(Simulator& sim);

    /** Adds a resource and returns its id (0, 1, ...). */
    int addResource(double capacity);
    /** Takes effect at the next reshare(); 0 stalls crossing flows. */
    void setCapacity(int id, double capacity);

    /** Adds @p flow (advancing the others first) under the id
     *  nextId() returned before the call.  Rates change only at the
     *  next reshare(). */
    void insert(Flow flow);
    /** Removes a flow (advancing first) and cancels its completion;
     *  throws std::out_of_range, changing nothing, when @p id is not
     *  active. */
    Flow erase(std::uint64_t id);
    /** Advances to now, recomputes the max-min allocation, and
     *  re-times the completions whose rate changed. */
    void reshare();

    /** Active flows in id order. */
    const FlowTable& flows() const { return flows_; }
    std::uint64_t nextId() const { return nextId_; }
    SimTime lastUpdate() const { return lastUpdate_; }
    std::uint64_t reshareCount() const { return reshares_; }
    /** Ticks up to @p now with at least one flow active. */
    double busyTicks(SimTime now) const;

  private:
    /** The resources of flows_[i] and its newly computed rate, at
     *  shares_[i]. */
    struct Share {
        const int* first;
        const int* last;
        double rate;
    };

    /** Moves bytes and the busy integral to now at the old rates. */
    void advance();
    /** Adds @p delta to crossing_ of each resource of @p flow and
     *  keeps loaded_ in step. */
    void count(const Flow& flow, int delta);
    /** Points flow @p id's completion at @p when: re-keys the pending
     *  event, or schedules one when none is pending. */
    void retime(std::uint64_t id, Flow& flow, SimTime when);
    /** Completion event: the flow's last byte moved. */
    void finish(std::uint64_t id);

    const char* completionLabel_;
    FinishHook onFinish_;
    Simulator* sim_ = nullptr;
    std::vector<double> capacity_;
    /** Active flows crossing each resource. */
    std::vector<int> crossing_;
    /** Resources with crossing_ > 0, in ascending index order. */
    std::vector<int> loaded_;
    FlowTable flows_;
    std::uint64_t nextId_ = 0;
    SimTime lastUpdate_ = 0;
    double busyTicks_ = 0.0;
    std::uint64_t reshares_ = 0;

    // Scratch reused across reshare() calls: per resource, the
    // capacity left and the flows not yet fixed (set for loaded_
    // only); per flow, its share.
    std::vector<double> capLeft_;
    std::vector<int> flowsOn_;
    std::vector<Share> shares_;
    /** Indices into shares_ not yet fixed, and those the current
     *  round fixed. */
    std::vector<std::size_t> unfixed_;
    std::vector<std::size_t> fixed_;
};

}  // namespace hw
}  // namespace uqsim

#endif  // UQSIM_HW_FLUID_SOLVER_H_
