#ifndef UQSIM_HW_NETWORK_MODEL_H_
#define UQSIM_HW_NETWORK_MODEL_H_

/**
 * @file
 * Pluggable wire-level network models.
 *
 * The transport façade (hw::Network) owns everything a message hop
 * shares regardless of how the wire behaves: IRQ hand-off on both
 * ends, fault/degradation windows, and counters.  What happens *on*
 * the wire — how long a message is in flight and how concurrent
 * messages interact — is delegated to a NetworkModel:
 *
 *  - ConstantModel: every cross-machine hop pays one constant
 *    latency (the paper's model).  Bit-identical to the historical
 *    hw::Network behaviour: same event labels, same schedule order,
 *    same trace digests.
 *  - FlowModel (flow_model.h): routed links with capacities and
 *    max-min fair bandwidth sharing, for incast/oversubscription
 *    studies at cluster scale.
 *
 * Models simulate latency exclusively through engine events, so the
 * determinism contract (docs/ARCHITECTURE.md) and the explorer's
 * choice points apply to every model.
 */

#include <cstdint>
#include <memory>

#include "uqsim/core/engine/simulator.h"
#include "uqsim/hw/irq_service.h"

namespace uqsim {
namespace hw {

class Machine;

/** Why the wire leg of a message never delivered. */
enum class DropReason {
    /** Lost to a cluster-wide degradation window (façade coin
     *  flip). */
    FaultLoss,
    /** In-flight flow crossed a link that went down (FlowModel
     *  in-flight policy "drop"). */
    LinkDown,
    /** No surviving route — every candidate path has a dead link,
     *  or a partition separates the endpoints. */
    Unreachable,
};

/** Stable lowercase name ("fault_loss", "link_down",
 *  "unreachable"). */
const char* dropReasonName(DropReason reason);

/** Invoked exactly once, instead of the delivery callback, when the
 *  wire leg drops a message. */
using DropCallback = InlineFunction<void(DropReason), 64>;

/** Wire-level latency/ordering model; see file comment. */
class NetworkModel {
  public:
    virtual ~NetworkModel() = default;

    /** Short model name for logs and reports. */
    virtual const char* modelName() const = 0;

    /**
     * Binds the model to the simulator whose event queue carries its
     * wire events.  Called once, by the Network façade constructor,
     * before any traffic.
     */
    virtual void bind(Simulator& sim) = 0;

    /**
     * Notification that @p machine joined the cluster.  Routed
     * models use it to size tables and record names for
     * diagnostics; the default ignores it.
     */
    virtual void onMachineAdded(const Machine& machine);

    /**
     * Simulates the in-flight (wire) leg of a cross-machine message
     * and invokes @p done exactly once, via engine events, when the
     * last byte arrives.  Either endpoint may be nullptr ("outside
     * the cluster", e.g. the load generator).  @p extraLatencySeconds
     * is the fault-window penalty decided by the façade at send
     * time.  @p label names the scheduled event in traces.
     *
     * When the model itself cannot deliver the message — no
     * surviving route, a partition, or an in-flight link failure
     * with the drop policy — @p dropped fires exactly once instead
     * of @p done (or the message silently vanishes when @p dropped
     * is empty).  ConstantModel never drops.
     */
    virtual void transit(const Machine* from, const Machine* to,
                         std::uint32_t bytes,
                         double extraLatencySeconds, Callback done,
                         DropCallback dropped, const char* label) = 0;

    /** Same-machine (kernel loopback) leg; cannot lose messages. */
    virtual void loopback(const Machine* machine, std::uint32_t bytes,
                          double extraLatencySeconds, Callback done,
                          const char* label) = 0;

    /**
     * Folds model-specific state into the NETWORK layer
     * (snapshot.h).  The default folds nothing — correct for
     * stateless models like ConstantModel, whose in-flight messages
     * live entirely in the engine's event queue.
     */
    virtual void foldState(snapshot::Digest& digest) const
    {
        (void)digest;
    }
};

/**
 * Constant-latency model: one wire latency between distinct
 * machines, a smaller one for loopback, no bandwidth interaction.
 */
class ConstantModel final : public NetworkModel {
  public:
    /** Model parameters. */
    struct Config {
        /** One-way wire latency between distinct machines (seconds). */
        double wireLatency = 20e-6;
        /** Latency for same-machine (loopback) messages (seconds). */
        double loopbackLatency = 5e-6;
    };

    ConstantModel();
    explicit ConstantModel(const Config& config);

    /** Factory, for symmetry with FlowModel::make(). */
    static std::unique_ptr<ConstantModel> make();
    static std::unique_ptr<ConstantModel> make(const Config& config);

    const Config& config() const { return config_; }

    const char* modelName() const override { return "constant"; }
    void bind(Simulator& sim) override;
    void transit(const Machine* from, const Machine* to,
                 std::uint32_t bytes, double extraLatencySeconds,
                 Callback done, DropCallback dropped,
                 const char* label) override;
    void loopback(const Machine* machine, std::uint32_t bytes,
                  double extraLatencySeconds, Callback done,
                  const char* label) override;

  private:
    Config config_;
    Simulator* sim_ = nullptr;
};

}  // namespace hw
}  // namespace uqsim

#endif  // UQSIM_HW_NETWORK_MODEL_H_
