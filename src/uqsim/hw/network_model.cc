#include "uqsim/hw/network_model.h"

#include <utility>

#include "uqsim/hw/machine.h"

namespace uqsim {
namespace hw {

const char*
dropReasonName(DropReason reason)
{
    switch (reason) {
      case DropReason::FaultLoss:
        return "fault_loss";
      case DropReason::LinkDown:
        return "link_down";
      case DropReason::Unreachable:
        return "unreachable";
    }
    return "unknown";
}

void
NetworkModel::onMachineAdded(const Machine& machine)
{
    (void)machine;
}

ConstantModel::ConstantModel() : ConstantModel(Config{})
{
}

ConstantModel::ConstantModel(const Config& config) : config_(config)
{
}

std::unique_ptr<ConstantModel>
ConstantModel::make()
{
    return make(Config{});
}

std::unique_ptr<ConstantModel>
ConstantModel::make(const Config& config)
{
    return std::make_unique<ConstantModel>(config);
}

void
ConstantModel::bind(Simulator& sim)
{
    sim_ = &sim;
}

void
ConstantModel::transit(const Machine* from, const Machine* to,
                       std::uint32_t bytes,
                       double extraLatencySeconds, Callback done,
                       DropCallback dropped, const char* label)
{
    (void)from;
    (void)to;
    (void)bytes;
    (void)dropped;  // a constant wire cannot drop
    const SimTime wire =
        secondsToSimTime(config_.wireLatency + extraLatencySeconds);
    sim_->scheduleAfter(wire, std::move(done), label);
}

void
ConstantModel::loopback(const Machine* machine, std::uint32_t bytes,
                        double extraLatencySeconds, Callback done,
                        const char* label)
{
    (void)machine;
    (void)bytes;
    const SimTime wire =
        secondsToSimTime(config_.loopbackLatency + extraLatencySeconds);
    sim_->scheduleAfter(wire, std::move(done), label);
}

}  // namespace hw
}  // namespace uqsim
