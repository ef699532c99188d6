#include "uqsim/fault/fault_scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "uqsim/hw/cluster.h"
#include "uqsim/json/validation.h"
#include "uqsim/snapshot/state_io.h"

namespace uqsim {
namespace fault {

namespace {

/** Exponential variate with mean @p meanSeconds. */
SimTime
sampleExponential(random::Rng& rng, double meanSeconds)
{
    const double u = rng.nextDoubleOpenLeft();
    return secondsToSimTime(-meanSeconds * std::log(u));
}

/** Throws for a plan naming an unknown @p what, with a did-you-mean
 *  suggestion over @p known. */
[[noreturn]] void
throwUnknown(const char* what, const std::string& name,
             const std::vector<std::string>& known)
{
    std::string message = std::string("fault plan names unknown ") +
                          what + " \"" + name + "\"";
    const std::string suggestion = json::suggestClosest(name, known);
    if (!suggestion.empty())
        message += "; did you mean \"" + suggestion + "\"?";
    throw std::runtime_error(message);
}

/** The network's FlowModel; throws naming @p kind when the run uses
 *  a model without link state. */
hw::FlowModel&
requireFlowModel(hw::Network& network, const char* kind)
{
    auto* flow = dynamic_cast<hw::FlowModel*>(&network.model());
    if (flow == nullptr) {
        throw std::runtime_error(
            std::string(kind) +
            " faults need the flow network model (this run uses \"" +
            network.model().modelName() + "\"); see docs/FORMATS.md");
    }
    return *flow;
}

/** Link id for @p name; an unknown name throws. */
int
resolveLinkId(hw::FlowModel& flow, const std::string& name)
{
    const int id = flow.linkId(name);
    if (id < 0) {
        std::vector<std::string> names;
        for (std::size_t l = 0; l < flow.linkCount(); ++l)
            names.push_back(flow.link(static_cast<int>(l)).name);
        throwUnknown("link", name, names);
    }
    return id;
}

}  // namespace

FaultScheduler::FaultScheduler(Simulator& sim, Deployment& deployment,
                               hw::Network& network,
                               const FaultPlan& plan)
    : sim_(sim), deployment_(deployment), network_(network), plan_(plan)
{
}

SimTime
FaultScheduler::windowShift(const char* label,
                            double windowEndSeconds)
{
    const int pick = sim_.choose(ChoiceKind::FaultJitter,
                                 Chooser::kUncapped, label);
    if (pick == 0)
        return 0;
    SimTime shift = static_cast<SimTime>(pick) *
                    sim_.chooser()->jitterStep(ChoiceKind::FaultJitter);
    // Clamp so the window's last scripted event never slides past
    // the horizon: a jittered window must stay observable inside the
    // run it perturbs.  Windows already at/past the horizon keep
    // their (unreachable) nominal position.
    const SimTime lastEvent = secondsToSimTime(windowEndSeconds);
    if (shift > 0 && lastEvent + shift > horizon_)
        shift = lastEvent >= horizon_ ? 0 : horizon_ - lastEvent;
    return shift;
}

void
FaultScheduler::start(double horizonSeconds)
{
    horizon_ = secondsToSimTime(horizonSeconds);
    for (const FaultSpec& spec : plan_.faults) {
        SimTime shift = 0;
        for (Toggle& toggle : toggles(spec, shift)) {
            if (!spec.stochastic()) {
                scheduleWindow(toggle, spec, shift);
                continue;
            }
            random::RngStream rng(sim_.masterSeed(), toggle.stream);
            outages_.push_back(std::make_unique<Outage>(
                Outage{std::move(toggle), std::move(rng), spec}));
            scheduleOutage(*outages_.back(), shift);
        }
    }
}

std::vector<FaultScheduler::Toggle>
FaultScheduler::toggles(const FaultSpec& spec, SimTime& shift)
{
    // One onset-jitter choice per spec, made before its targets
    // resolve: every target shifts together, keeping the branching
    // factor tied to the plan size rather than the deployment size.
    const double lastEvent =
        spec.stochastic() ? 0.0
                          : std::max(spec.startSeconds, spec.endSeconds);
    std::vector<Toggle> out;
    switch (spec.kind) {
      case FaultSpec::Kind::Crash:
        shift = windowShift("fault-window/crash", lastEvent);
        for (MicroserviceInstance* target : resolveTargets(spec)) {
            out.push_back({[this, target] { crash(*target); },
                           [target] { target->recover(); },
                           "fault/crash", "fault/recover",
                           "fault/" + target->name()});
        }
        break;
      case FaultSpec::Kind::Slow:
        shift = windowShift("fault-window/slow", lastEvent);
        for (MicroserviceInstance* target : resolveTargets(spec)) {
            out.push_back({[target, factor = spec.factor] {
                               target->setSlowFactor(factor);
                           },
                           [target] { target->setSlowFactor(1.0); },
                           "fault/slow", "fault/slow-end"});
        }
        break;
      case FaultSpec::Kind::Network:
        shift = windowShift("fault-window/net", lastEvent);
        out.push_back({[this, extra = spec.extraLatencySeconds,
                        loss = spec.lossProbability] {
                           network_.setDegradation(extra, loss);
                       },
                       [this] { network_.clearDegradation(); },
                       "fault/net", "fault/net-end"});
        break;
      case FaultSpec::Kind::LinkDown: {
        shift = windowShift("fault-window/link", lastEvent);
        hw::FlowModel& flow = requireFlowModel(network_, "link_down");
        const int id = resolveLinkId(flow, spec.link);
        out.push_back({[&flow, id] { flow.setLinkDown(id); },
                       [&flow, id] { flow.setLinkUp(id); },
                       "fault/link-down", "fault/link-up",
                       "fault/link/" + spec.link});
        break;
      }
      case FaultSpec::Kind::LinkDegraded: {
        shift = windowShift("fault-window/link-degraded", lastEvent);
        hw::FlowModel& flow = requireFlowModel(network_, "link_degraded");
        const int id = resolveLinkId(flow, spec.link);
        out.push_back({[&flow, id, cap = spec.capacityFactor,
                        lat = spec.latencyFactor] {
                           flow.setLinkDegradation(id, cap, lat);
                       },
                       [&flow, id] { flow.clearLinkDegradation(id); },
                       "fault/link-degrade", "fault/link-degrade-end"});
        break;
      }
      case FaultSpec::Kind::SwitchDown: {
        shift = windowShift("fault-window/switch", lastEvent);
        hw::FlowModel& flow = requireFlowModel(network_, "switch_down");
        if (!flow.hasSwitch(spec.switchName))
            throwUnknown("switch", spec.switchName, flow.switchNames());
        const std::vector<int> links = flow.switchLinks(spec.switchName);
        out.push_back({[&flow, links] {
                           for (int link : links)
                               flow.setLinkDown(link);
                       },
                       [&flow, links] {
                           for (int link : links)
                               flow.setLinkUp(link);
                       },
                       "fault/switch-down", "fault/switch-up"});
        break;
      }
      case FaultSpec::Kind::Partition: {
        shift = windowShift("fault-window/partition", lastEvent);
        hw::FlowModel& flow = requireFlowModel(network_, "partition");
        // Resolve machine names now so a typo fails at start(), not
        // at the window onset deep into the run.
        hw::Cluster& cluster = deployment_.cluster();
        std::vector<std::vector<int>> groups;
        for (const std::vector<std::string>& names : spec.groups) {
            std::vector<int>& ids = groups.emplace_back();
            for (const std::string& name : names)
                ids.push_back(cluster.machine(name).netId());
        }
        out.push_back({[&flow, groups] { flow.setPartition(groups); },
                       [&flow] { flow.clearPartition(); },
                       "fault/partition", "fault/partition-end"});
        break;
      }
    }
    return out;
}

std::vector<MicroserviceInstance*>
FaultScheduler::resolveTargets(const FaultSpec& spec) const
{
    if (!spec.service.empty())
        return deployment_.instances(spec.service);
    const std::size_t dot = spec.instance.rfind('.');
    if (dot == std::string::npos)
        throw std::runtime_error(
            "fault target \"" + spec.instance +
            "\" is not of the form service.index");
    const std::string service = spec.instance.substr(0, dot);
    const int index = std::stoi(spec.instance.substr(dot + 1));
    return {&deployment_.instance(service, index)};
}

void
FaultScheduler::scheduleWindow(const Toggle& toggle,
                               const FaultSpec& spec, SimTime shift)
{
    sim_.scheduleAt(secondsToSimTime(spec.startSeconds) + shift,
                    toggle.start, toggle.startLabel);
    if (spec.endSeconds > 0.0) {
        sim_.scheduleAt(secondsToSimTime(spec.endSeconds) + shift,
                        toggle.end, toggle.endLabel);
    }
}

void
FaultScheduler::scheduleOutage(Outage& outage, SimTime shift)
{
    const SimTime up =
        sampleExponential(outage.rng, outage.spec.mtbfSeconds);
    const SimTime down =
        sampleExponential(outage.rng, outage.spec.mttrSeconds);
    const SimTime startAt = sim_.now() + up + shift;
    if (startAt >= horizon_)
        return;
    sim_.scheduleAt(
        startAt, [&outage]() { outage.toggle.start(); },
        outage.toggle.startLabel);
    sim_.scheduleAt(
        startAt + down,
        [this, &outage]() {
            outage.toggle.end();
            scheduleOutage(outage, 0);
        },
        outage.toggle.endLabel);
}

void
FaultScheduler::crash(MicroserviceInstance& target)
{
    if (target.isDown())
        return;
    ++crashes_;
    target.crash();
}

void
FaultScheduler::foldState(snapshot::Digest& digest) const
{
    digest.u64(crashes_);
    digest.i64(horizon_);
    digest.u64(plan_.faults.size());
    digest.u64(outages_.size());
    for (const auto& outage : outages_) {
        digest.str(outage->rng.label());
        snapshot::digestRngState(digest, outage->rng.state());
    }
}

}  // namespace fault
}  // namespace uqsim
