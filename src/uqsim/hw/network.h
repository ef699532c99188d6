#ifndef UQSIM_HW_NETWORK_H_
#define UQSIM_HW_NETWORK_H_

/**
 * @file
 * Cross-machine message transport façade.
 *
 * A transfer from machine A to machine B passes through A's IRQ
 * service (TX interrupt handling), an in-flight wire leg simulated
 * by a pluggable NetworkModel, and B's IRQ service (RX).  Transfers
 * within the same machine take the loopback path: a smaller latency
 * and a single pass through the local IRQ service (kernel loopback
 * work).
 *
 * The façade owns everything that is model-independent — IRQ
 * hand-off, fault/degradation windows, and counters — and delegates
 * latency/ordering to the model (network_model.h): ConstantModel
 * reproduces the paper's single constant hop bit-identically;
 * FlowModel (flow_model.h) adds routed links with max-min fair
 * bandwidth sharing.
 *
 * A FaultScheduler may open a degradation window: every transfer
 * then pays extra wire latency, and cross-machine messages are lost
 * with a configured probability (the @p dropped callback fires
 * instead of delivery).  Loss coin flips come from a seed-split
 * stream that is only drawn inside a window, so fault-free runs are
 * bitwise identical to builds without fault support.
 */

#include <cstdint>
#include <memory>

#include "uqsim/core/engine/simulator.h"
#include "uqsim/hw/machine.h"
#include "uqsim/hw/network_model.h"
#include "uqsim/random/rng.h"

namespace uqsim {
namespace hw {

/** Message transport between machines. */
class Network {
  public:
    /** Takes ownership of @p model; nullptr selects a default
     *  ConstantModel. */
    Network(Simulator& sim, std::unique_ptr<NetworkModel> model);

    /**
     * Moves a message of @p bytes from @p from to @p to, then calls
     * @p done.  Either endpoint may be nullptr, meaning "outside the
     * cluster" (e.g. the client); that leg then only pays wire
     * latency.  When the message is lost — a degradation-window coin
     * flip here in the façade, or a model-level verdict (dead link,
     * no surviving route, partition) — @p dropped fires exactly once
     * instead of @p done, carrying the DropReason (or the message
     * silently vanishes when no @p dropped is given).
     */
    void transfer(Machine* from, Machine* to, std::uint32_t bytes,
                  Callback done, DropCallback dropped = {});

    /** Opens a degradation window: adds @p extraLatencySeconds to
     *  every transfer and loses cross-machine messages with
     *  probability @p lossProbability. */
    void setDegradation(double extraLatencySeconds,
                        double lossProbability);
    void clearDegradation();
    bool degraded() const { return degraded_; }

    NetworkModel& model() { return *model_; }
    const NetworkModel& model() const { return *model_; }

    std::uint64_t transferCount() const { return transfers_; }
    std::uint64_t droppedMessages() const { return dropped_; }

    /**
     * Writes the NETWORK snapshot section: façade counters,
     * degradation-window state, loss-stream RNG position, and the
     * model's own state (NetworkModel::saveState).
     */
    void saveState(snapshot::SnapshotWriter& writer) const;

    /** Validates the live (replayed) state against a snapshot's
     *  NETWORK section; throws SnapshotStateError on divergence. */
    void loadState(snapshot::SnapshotReader& reader) const;

  private:
    void deliver(Machine* to, std::uint32_t bytes, Callback done);

    Simulator& sim_;
    std::unique_ptr<NetworkModel> model_;
    std::uint64_t transfers_ = 0;
    bool degraded_ = false;
    double extraLatency_ = 0.0;
    double lossProb_ = 0.0;
    std::uint64_t dropped_ = 0;
    random::RngStream faultRng_;
};

}  // namespace hw
}  // namespace uqsim

#endif  // UQSIM_HW_NETWORK_H_
