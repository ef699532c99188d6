#include "uqsim/hw/network.h"

#include <utility>

#include "uqsim/snapshot/state_io.h"

namespace uqsim {
namespace hw {

Network::Network(Simulator& sim, std::unique_ptr<NetworkModel> model)
    : sim_(sim),
      model_(model ? std::move(model) : ConstantModel::make()),
      faultRng_(sim.masterSeed(), "network/faults")
{
    model_->bind(sim_);
}

void
Network::setDegradation(double extraLatencySeconds,
                        double lossProbability)
{
    degraded_ = true;
    extraLatency_ = extraLatencySeconds;
    lossProb_ = lossProbability;
}

void
Network::clearDegradation()
{
    degraded_ = false;
    extraLatency_ = 0.0;
    lossProb_ = 0.0;
}

void
Network::transfer(Machine* from, Machine* to, std::uint32_t bytes,
                  Callback done, DropCallback dropped)
{
    ++transfers_;
    // Decide loss and latency at send time: a window that closes
    // mid-flight does not rescue messages already on the wire.
    const double extra = degraded_ ? extraLatency_ : 0.0;
    const bool lost = degraded_ && lossProb_ > 0.0 &&
                      faultRng_.nextBool(lossProb_);
    if (from != nullptr && from == to) {
        // Loopback: single pass through the local IRQ service.  The
        // kernel loopback path cannot lose messages, but a degraded
        // host still adds latency.
        model_->loopback(
            from, bytes, extra,
            [this, to, bytes, cb = std::move(done)]() mutable {
                deliver(to, bytes, std::move(cb));
            },
            "net/loopback");
        return;
    }
    if (lost) {
        ++dropped_;
        // The sender still pays TX IRQ work and the message occupies
        // the wire before vanishing.  The wire leg itself may also
        // fail (dead link, unreachable); the model guarantees exactly
        // one of done/dropped fires, so one shared callback serves
        // both outcomes with the reason that actually happened.
        auto shared =
            std::make_shared<DropCallback>(std::move(dropped));
        auto after_tx = [this, from, to, bytes, extra,
                         shared]() mutable {
            model_->transit(
                from, to, bytes, extra,
                [shared]() {
                    if (*shared)
                        (*shared)(DropReason::FaultLoss);
                },
                [shared](DropReason reason) {
                    if (*shared)
                        (*shared)(reason);
                },
                "net/drop");
        };
        if (from != nullptr && from->irq() != nullptr) {
            from->irq()->process(bytes, std::move(after_tx));
        } else {
            after_tx();
        }
        return;
    }
    auto after_tx = [this, from, to, bytes, extra,
                     cb = std::move(done),
                     drop = std::move(dropped)]() mutable {
        model_->transit(
            from, to, bytes, extra,
            [this, to, bytes, cb2 = std::move(cb)]() mutable {
                deliver(to, bytes, std::move(cb2));
            },
            std::move(drop), "net/wire");
    };
    if (from != nullptr && from->irq() != nullptr) {
        from->irq()->process(bytes, std::move(after_tx));
    } else {
        after_tx();
    }
}

void
Network::deliver(Machine* to, std::uint32_t bytes, Callback done)
{
    if (to != nullptr && to->irq() != nullptr) {
        to->irq()->process(bytes, std::move(done));
    } else if (done) {
        done();
    }
}

void
Network::saveState(snapshot::SnapshotWriter& writer) const
{
    writer.beginSection(snapshot::SectionId::Network);
    writer.putString(model_->modelName());
    writer.putU64(transfers_);
    writer.putU64(dropped_);
    writer.putBool(degraded_);
    writer.putF64(extraLatency_);
    writer.putF64(lossProb_);
    snapshot::putRngState(writer, faultRng_.state());
    model_->saveState(writer);
    writer.endSection();
}

void
Network::loadState(snapshot::SnapshotReader& reader) const
{
    reader.openSection(snapshot::SectionId::Network);
    reader.requireString("model", model_->modelName());
    reader.requireU64("transfers", transfers_);
    reader.requireU64("dropped", dropped_);
    reader.requireBool("degraded", degraded_);
    reader.requireF64("extra_latency", extraLatency_);
    reader.requireF64("loss_prob", lossProb_);
    snapshot::requireRngState(reader, "fault_rng", faultRng_.state());
    model_->loadState(reader);
    reader.closeSection();
}

}  // namespace hw
}  // namespace uqsim
