#include "uqsim/hw/fluid_solver.h"

#include <algorithm>
#include <bit>
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
    if (capacity_.size() % 64 == 0)
        loaded_.push_back(0);
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
    Flow flow = remove(id);
    if (flow.timed() && flow.due == armed_) {
        DueKey earliest;
        std::uint64_t earliestId = 0;
        for (const auto& [fid, other] : flows_) {
            if (other.due < earliest) {
                earliest = other.due;
                earliestId = fid;
            }
        }
        arm(earliest, earliestId);
    }
    return flow;
}

FluidSolver::Flow
FluidSolver::remove(std::uint64_t id)
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
    return flow;
}

void
FluidSolver::count(const Flow& flow, int delta)
{
    for (const int r : *flow.resources) {
        const auto ri = static_cast<std::size_t>(r);
        const std::uint64_t bit = std::uint64_t{1} << (ri % 64);
        crossing_[ri] += delta;
        if (crossing_[ri] > 0)
            loaded_[ri / 64] |= bit;
        else
            loaded_[ri / 64] &= ~bit;
    }
}

template <typename Visit>
void
FluidSolver::forEachLoaded(Visit&& visit) const
{
    for (std::size_t word = 0; word < loaded_.size(); ++word) {
        for (std::uint64_t bits = loaded_[word]; bits != 0;
             bits &= bits - 1) {
            visit(static_cast<int>(word * 64 +
                                   static_cast<std::size_t>(
                                       std::countr_zero(bits))));
        }
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
    // resource index (strict <, ascending walk) and flows are fixed
    // in id order, keeping the arithmetic order deterministic.  A
    // zero-capacity resource fixes its flows at rate 0; flows
    // crossing no resource keep rate 0.
    const Bottleneck first = tightest(capacity_, crossing_);
    // When the tightest resource carries every flow, the first round
    // fixes them all and is the last; the rate is the same double
    // the filling loop would compute.
    const bool oneBottleneck =
        first.resource >= 0 &&
        static_cast<std::size_t>(
            crossing_[static_cast<std::size_t>(first.resource)]) ==
            flows_.size();
    if (!oneBottleneck)
        fill(first);

    // Re-time flows in id order.  A flow whose rate did not change
    // keeps its key: the remaining bytes shrank exactly in step with
    // the old schedule, so the old finish time still holds (and
    // skipping the re-time avoids rounding drift).  A re-timed flow
    // reserves its sequence number here, where an event of its own
    // would have taken one, so the counter advances as if each flow
    // had one.  The same pass finds the earliest key for the timer.
    DueKey earliest;
    std::uint64_t earliestId = 0;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
        auto& [id, flow] = flows_[i];
        const double rate = oneBottleneck ? first.share : shares_[i].rate;
        if (rate != flow.rate || !flow.timed()) {
            flow.rate = rate;
            if (rate <= 0.0 && flow.remainingBytes > 0.0) {
                flow.due = DueKey{};
                continue;  // stalled until a re-share gives it a rate
            }
            const SimTime remaining =
                rate > 0.0 ? secondsToSimTime(flow.remainingBytes / rate)
                           : 0;
            flow.due = {sim_->now() + remaining, sim_->reserveSequence()};
        }
        if (flow.due < earliest) {
            earliest = flow.due;
            earliestId = id;
        }
    }
    arm(earliest, earliestId);
}

FluidSolver::Bottleneck
FluidSolver::tightest(const std::vector<double>& capacity,
                      const std::vector<int>& flowsOn) const
{
    // Only loaded resources can be tightest, so walking them alone
    // picks the same resource as scanning all.
    Bottleneck bottleneck;
    forEachLoaded([&](int r) {
        const auto ri = static_cast<std::size_t>(r);
        if (flowsOn[ri] > 0 && capacity[ri] / flowsOn[ri] < bottleneck.share) {
            bottleneck.share = capacity[ri] / flowsOn[ri];
            bottleneck.resource = r;
        }
    });
    return bottleneck;
}

void
FluidSolver::fill(Bottleneck bottleneck)
{
    shares_.clear();
    unfixed_.clear();
    for (const auto& [id, flow] : flows_) {
        const std::vector<int>& path = *flow.resources;
        unfixed_.push_back(shares_.size());
        shares_.push_back({path.data(), path.data() + path.size(), 0.0});
    }
    if (bottleneck.resource < 0)
        return;
    forEachLoaded([&](int r) {
        const auto ri = static_cast<std::size_t>(r);
        capLeft_[ri] = capacity_[ri];
        flowsOn_[ri] = crossing_[ri];
    });
    while (true) {
        std::size_t kept = 0;
        fixed_.clear();
        for (const std::size_t i : unfixed_) {
            Share& share = shares_[i];
            if (std::find(share.first, share.last,
                          bottleneck.resource) == share.last) {
                unfixed_[kept++] = i;
                continue;
            }
            share.rate = bottleneck.share;
            fixed_.push_back(i);
        }
        // Nothing reads the capacity bookkeeping after the last
        // round, so it is skipped there.  Deferred to after the
        // round, each resource's subtractions still run in flow-id
        // order.
        if (kept == 0)
            return;
        unfixed_.resize(kept);
        for (const std::size_t i : fixed_) {
            const Share& share = shares_[i];
            for (const int* r = share.first; r != share.last; ++r) {
                const auto ri = static_cast<std::size_t>(*r);
                capLeft_[ri] =
                    std::max(capLeft_[ri] - bottleneck.share, 0.0);
                --flowsOn_[ri];
            }
        }
        bottleneck = tightest(capLeft_, flowsOn_);
        if (bottleneck.resource < 0)
            return;
    }
}

void
FluidSolver::arm(DueKey due, std::uint64_t id)
{
    if (due == armed_)
        return;
    armed_ = due;
    armedId_ = id;
    if (!due.timed()) {
        timer_.cancel();
        return;
    }
    // The timer takes the flow's reserved number, not a new one, so
    // it sorts exactly where the flow's own event would have.
    if (!sim_->rekeyAt(timer_, due.when, due.sequence)) {
        timer_ = sim_->scheduleAt(
            due.when, [this]() { finish(); }, completionLabel_,
            due.sequence);
    }
}

void
FluidSolver::finish()
{
    // The timer has fired; the re-share below arms it again.
    timer_ = EventHandle();
    armed_ = DueKey{};
    Flow flow = remove(armedId_);
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
