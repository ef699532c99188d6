#include "uqsim/hw/fluid_solver.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace uqsim {
namespace hw {

FluidSolver::FluidSolver(const char* completionLabel,
                         FinishHook onFinish)
    : completionLabel_(completionLabel), onFinish_(std::move(onFinish))
{
}

void
FluidSolver::bind(Simulator& sim)
{
    sim_ = &sim;
    lastUpdate_ = sim.now();
}

int
FluidSolver::addResource(double capacity)
{
    capacity_.push_back(capacity);
    crossing_.push_back(0);
    return static_cast<int>(capacity_.size() - 1);
}

void
FluidSolver::setCapacity(int id, double capacity)
{
    capacity_.at(static_cast<std::size_t>(id)) = capacity;
}

void
FluidSolver::insert(Flow flow)
{
    advance();
    count(flow, 1);
    flow.remainingBytes = static_cast<double>(flow.sizeBytes);
    flows_.emplace_hint(flows_.end(), nextId_++, std::move(flow));
}

FluidSolver::Flow
FluidSolver::erase(std::uint64_t id)
{
    advance();
    auto node = flows_.extract(id);
    if (node.empty())
        throw std::out_of_range("fluid solver: no active flow " +
                                std::to_string(id));
    Flow& flow = node.mapped();
    count(flow, -1);
    flow.completion.cancel();
    return std::move(flow);
}

void
FluidSolver::count(const Flow& flow, int delta)
{
    for (int r : *flow.resources)
        crossing_[static_cast<std::size_t>(r)] += delta;
}

void
FluidSolver::advance()
{
    const SimTime now = sim_->now();
    if (now <= lastUpdate_)
        return;
    if (!flows_.empty()) {
        busyTicks_ += static_cast<double>(now - lastUpdate_);
        const double dt = simTimeToSeconds(now - lastUpdate_);
        for (auto& [id, flow] : flows_) {
            flow.remainingBytes -= flow.rate * dt;
            if (flow.remainingBytes < 0.0)
                flow.remainingBytes = 0.0;
        }
    }
    lastUpdate_ = now;
}

void
FluidSolver::reshare()
{
    advance();
    ++reshares_;
    // Progressive filling: the tightest resource's equal split is a
    // rate no crossing flow can exceed, so those flows are fixed at
    // it; remove them and repeat.  Ties break toward the lowest
    // resource index and flows are fixed in id order, keeping the
    // arithmetic order deterministic.  A zero-capacity resource fixes
    // its flows at rate 0; flows crossing no resource keep rate 0.
    capLeft_ = capacity_;
    flowsOn_ = crossing_;
    shares_.clear();
    unfixed_.clear();
    for (auto& entry : flows_) {
        const std::vector<int>& path = *entry.second.resources;
        unfixed_.push_back(shares_.size());
        shares_.push_back(
            {&entry, path.data(), path.data() + path.size(), 0.0});
    }
    while (!unfixed_.empty()) {
        double best = std::numeric_limits<double>::infinity();
        int tightest = -1;
        for (std::size_t r = 0; r < capLeft_.size(); ++r) {
            if (flowsOn_[r] > 0 && capLeft_[r] / flowsOn_[r] < best) {
                best = capLeft_[r] / flowsOn_[r];
                tightest = static_cast<int>(r);
            }
        }
        if (tightest < 0)
            break;
        std::size_t kept = 0;
        for (const std::size_t i : unfixed_) {
            Share& share = shares_[i];
            if (std::find(share.first, share.last, tightest) ==
                share.last) {
                unfixed_[kept++] = i;
                continue;
            }
            share.rate = best;
            for (const int* r = share.first; r != share.last; ++r) {
                const auto ri = static_cast<std::size_t>(*r);
                capLeft_[ri] = std::max(capLeft_[ri] - best, 0.0);
                --flowsOn_[ri];
            }
        }
        unfixed_.resize(kept);
    }

    // Reschedule completions in id order.  A flow whose rate did not
    // change keeps its pending event: the remaining bytes shrank
    // exactly in step with the old schedule, so the old finish time
    // still holds (and skipping the reschedule avoids rounding
    // drift).
    for (const Share& share : shares_) {
        Flow& flow = share.entry->second;
        if (share.rate == flow.rate && flow.completion.pending())
            continue;
        flow.rate = share.rate;
        flow.completion.cancel();
        if (flow.rate <= 0.0 && flow.remainingBytes > 0.0)
            continue;  // stalled until a re-share gives it a rate
        const SimTime remaining =
            flow.rate > 0.0
                ? secondsToSimTime(flow.remainingBytes / flow.rate)
                : 0;
        const std::uint64_t id = share.entry->first;
        flow.completion = sim_->scheduleAfter(
            remaining, [this, id]() { finish(id); }, completionLabel_);
    }
}

void
FluidSolver::finish(std::uint64_t id)
{
    Flow flow = erase(id);
    if (onFinish_)
        onFinish_(flow);
    // Release the flow's share first, then pay the tail: the others
    // speed up the moment the last byte moves.
    reshare();
    sim_->scheduleAfter(secondsToSimTime(flow.tailLatency),
                        std::move(flow.done), flow.label);
}

double
FluidSolver::busyTicks(SimTime now) const
{
    double busy = busyTicks_;
    if (!flows_.empty() && now > lastUpdate_)
        busy += static_cast<double>(now - lastUpdate_);
    return busy;
}

}  // namespace hw
}  // namespace uqsim
