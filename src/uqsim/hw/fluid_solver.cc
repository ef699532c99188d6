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
    capLeft_.push_back(0.0);
    flowsOn_.push_back(0);
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
    flows_.emplace_back(nextId_++, std::move(flow));
}

FluidSolver::Flow
FluidSolver::erase(std::uint64_t id)
{
    const auto entry = std::lower_bound(
        flows_.begin(), flows_.end(), id,
        [](const FlowTable::value_type& e, std::uint64_t key) {
            return e.first < key;
        });
    if (entry == flows_.end() || entry->first != id)
        throw std::out_of_range("fluid solver: no active flow " +
                                std::to_string(id));
    advance();
    Flow flow = std::move(entry->second);
    flows_.erase(entry);
    count(flow, -1);
    flow.completion.cancel();
    return flow;
}

void
FluidSolver::count(const Flow& flow, int delta)
{
    for (const int r : *flow.resources) {
        int& crossing = crossing_[static_cast<std::size_t>(r)];
        const bool wasLoaded = crossing > 0;
        crossing += delta;
        if ((crossing > 0) == wasLoaded)
            continue;
        const auto at =
            std::lower_bound(loaded_.begin(), loaded_.end(), r);
        if (wasLoaded)
            loaded_.erase(at);
        else
            loaded_.insert(at, r);
    }
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
    // Only loaded resources can be tightest, and loaded_ is ascending,
    // so scanning it alone picks the same resource as scanning all.
    for (const int r : loaded_) {
        const auto ri = static_cast<std::size_t>(r);
        capLeft_[ri] = capacity_[ri];
        flowsOn_[ri] = crossing_[ri];
    }
    shares_.clear();
    unfixed_.clear();
    for (const auto& [id, flow] : flows_) {
        const std::vector<int>& path = *flow.resources;
        unfixed_.push_back(shares_.size());
        shares_.push_back({path.data(), path.data() + path.size(), 0.0});
    }
    while (!unfixed_.empty()) {
        double best = std::numeric_limits<double>::infinity();
        int tightest = -1;
        for (const int r : loaded_) {
            const auto ri = static_cast<std::size_t>(r);
            if (flowsOn_[ri] > 0 && capLeft_[ri] / flowsOn_[ri] < best) {
                best = capLeft_[ri] / flowsOn_[ri];
                tightest = r;
            }
        }
        if (tightest < 0)
            break;
        std::size_t kept = 0;
        fixed_.clear();
        for (const std::size_t i : unfixed_) {
            Share& share = shares_[i];
            if (std::find(share.first, share.last, tightest) ==
                share.last) {
                unfixed_[kept++] = i;
                continue;
            }
            share.rate = best;
            fixed_.push_back(i);
        }
        // Nothing reads the capacity bookkeeping after the last round
        // (most re-shares have only one), so it is skipped there.
        // Deferred to after the round, each resource's subtractions
        // still run in flow-id order.
        if (kept == 0)
            break;
        unfixed_.resize(kept);
        for (const std::size_t i : fixed_) {
            const Share& share = shares_[i];
            for (const int* r = share.first; r != share.last; ++r) {
                const auto ri = static_cast<std::size_t>(*r);
                capLeft_[ri] = std::max(capLeft_[ri] - best, 0.0);
                --flowsOn_[ri];
            }
        }
    }

    // Re-time completions in id order.  A flow whose rate did not
    // change keeps its pending event: the remaining bytes shrank
    // exactly in step with the old schedule, so the old finish time
    // still holds (and skipping the re-time avoids rounding drift).
    for (std::size_t i = 0; i < shares_.size(); ++i) {
        auto& [id, flow] = flows_[i];
        const double rate = shares_[i].rate;
        if (rate == flow.rate && flow.completion.pending())
            continue;
        flow.rate = rate;
        if (rate <= 0.0 && flow.remainingBytes > 0.0) {
            flow.completion.cancel();
            continue;  // stalled until a re-share gives it a rate
        }
        const SimTime remaining =
            rate > 0.0 ? secondsToSimTime(flow.remainingBytes / rate)
                       : 0;
        retime(id, flow, sim_->now() + remaining);
    }
}

void
FluidSolver::retime(std::uint64_t id, Flow& flow, SimTime when)
{
    // A re-key is cancel() plus scheduleAt() without the closure
    // rebuild: same slot, next generation and sequence number.
    if (!sim_->rekeyAt(flow.completion, when)) {
        flow.completion = sim_->scheduleAt(
            when, [this, id]() { finish(id); }, completionLabel_);
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
