#ifndef UQSIM_HW_FLUID_SOLVER_H_
#define UQSIM_HW_FLUID_SOLVER_H_

/**
 * @file
 * Fluid bandwidth-sharing solver under the flow network model
 * (flow_model.h: the resources are links) and the disk (disk.h: the
 * read and write heads).  Each flow holds a max-min fair share of
 * every resource it crosses until its last byte moves; reshare()
 * recomputes the shares by progressive filling over the loaded
 * resources only (those some flow crosses: a bitset walked in
 * ascending index order) and re-times only the flows whose rate
 * changed.  When the tightest loaded resource carries every active
 * flow (one incast link, one busy disk head), that one round is the
 * whole answer and reshare() skips the per-flow path scan.  Flows
 * sit in a flat table in id order, never hash order, so the
 * arithmetic is bit-reproducible.  A flow's resource list must not
 * name a resource twice (FlowModel rejects such routes): the
 * per-resource flow counts are exact only then.
 *
 * Completions: a re-timed flow gets a due key, its finish time and a
 * sequence number reserved from the event queue at that moment, and
 * the solver keeps one pending timer at the earliest key, (time,
 * sequence) order.  The timer therefore fires each completion under
 * exactly the (time, sequence) the flow's own event would have had,
 * and a re-share moves one heap entry instead of one per flow.  Tail
 * events (the latency after the last byte) stay one per flow.  Full
 * contract: docs/ARCHITECTURE.md §Fluid sharing.
 */

#include <compare>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "uqsim/hw/network_model.h"

namespace uqsim {
namespace hw {

/** Max-min fair sharing of resources among flows; see file comment. */
class FluidSolver {
  public:
    /** A flow's place in the event order once its last byte is
     *  timed: the finish time and the sequence number reserved when
     *  the flow was last re-timed, compared in that order.  The
     *  default, none, sorts after every timed key. */
    struct DueKey {
        SimTime when = kSimTimeMax;
        std::uint64_t sequence = kUntimed;

        auto operator<=>(const DueKey&) const = default;
        bool timed() const { return sequence != kUntimed; }
    };
    static constexpr std::uint64_t kUntimed = ~std::uint64_t{0};

    struct Flow {
        /** Resource ids crossed, none twice; the storage is the
         *  adapter's and must outlive the flow. */
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
        /** Last-byte key; set by reshare(), none while the flow is
         *  new or stalled. */
        DueKey due;

        /** True when the last byte has a finish time. */
        bool timed() const { return due.timed(); }
    };

    /** Active flows as (id, flow) pairs in ascending id order.  Ids
     *  only grow, so insert() appends and erase() binary-searches. */
    using FlowTable = std::vector<std::pair<std::uint64_t, Flow>>;

    /** Runs when a flow's last byte moves, after the flow left the
     *  table and before the re-share; flows it inserts join that
     *  re-share. */
    using FinishHook = InlineFunction<void(const Flow&), 16>;

    /** The completion timer carries @p completionLabel. */
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
    /** Removes a flow (advancing first); when the timer was armed
     *  for it, re-arms the timer for the earliest flow left.  Throws
     *  std::out_of_range, changing nothing, when @p id is not
     *  active. */
    Flow erase(std::uint64_t id);
    /** Advances to now, recomputes the max-min allocation, re-times
     *  the flows whose rate changed, and arms the timer at the
     *  earliest due key. */
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
    /** Calls @p visit(r) for each loaded resource r, ascending. */
    template <typename Visit>
    void forEachLoaded(Visit&& visit) const;

    /** A filling round's tightest resource and its equal split. */
    struct Bottleneck {
        int resource = -1;
        double share = std::numeric_limits<double>::infinity();
    };
    /** The loaded resource r with flowsOn[r] > 0 and the smallest
     *  capacity[r] / flowsOn[r], lowest index on ties; resource -1
     *  when there is none. */
    Bottleneck tightest(const std::vector<double>& capacity,
                        const std::vector<int>& flowsOn) const;
    /** Fills shares_ by progressive filling from the first round's
     *  @p bottleneck. */
    void fill(Bottleneck bottleneck);
    /** Removes flow @p id (advancing first), leaving the timer as it
     *  is; throws like erase(). */
    Flow remove(std::uint64_t id);
    /** Points the timer at @p due, flow @p id's key: re-keys it, or
     *  schedules it when none is pending, or cancels it for none.
     *  Does nothing when the timer already sits at @p due. */
    void arm(DueKey due, std::uint64_t id);
    /** The timer fired: the armed flow's last byte moved. */
    void finish();

    const char* completionLabel_;
    FinishHook onFinish_;
    Simulator* sim_ = nullptr;
    std::vector<double> capacity_;
    /** Active flows crossing each resource. */
    std::vector<int> crossing_;
    /** Bit r set when crossing_[r] > 0 (64 resources per word). */
    std::vector<std::uint64_t> loaded_;
    FlowTable flows_;
    /** The one completion timer, pending at armed_ (flow armedId_)
     *  whenever some flow is timed. */
    EventHandle timer_;
    DueKey armed_;
    std::uint64_t armedId_ = 0;
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
