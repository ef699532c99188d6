#include "uqsim/hw/flow_model.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "uqsim/core/engine/choice.h"
#include "uqsim/hw/machine.h"
#include "uqsim/snapshot/snapshot.h"

namespace uqsim {
namespace hw {

FlowModel::FlowModel() : FlowModel(Config{})
{
}

FlowModel::FlowModel(const Config& config)
    : config_(config),
      solver_("net/flow", [this](const FluidSolver::Flow&) { ++finished_; })
{
}

std::unique_ptr<FlowModel>
FlowModel::make()
{
    return make(Config{});
}

std::unique_ptr<FlowModel>
FlowModel::make(const Config& config)
{
    return std::make_unique<FlowModel>(config);
}

int
FlowModel::addLink(const LinkSpec& spec)
{
    if (spec.bytesPerSecond <= 0.0) {
        throw std::invalid_argument("flow model link \"" + spec.name +
                                    "\": capacity must be > 0");
    }
    if (linkIds_.count(spec.name) != 0) {
        throw std::invalid_argument("duplicate flow model link: " +
                                    spec.name);
    }
    const int id = static_cast<int>(links_.size());
    links_.push_back(spec);
    linkStates_.emplace_back();
    solver_.addResource(spec.bytesPerSecond);
    linkIds_.emplace(spec.name, id);
    return id;
}

int
FlowModel::linkId(const std::string& name) const
{
    auto it = linkIds_.find(name);
    return it == linkIds_.end() ? -1 : it->second;
}

void
FlowModel::requireRoutesMutable() const
{
    if (carried_) {
        throw std::logic_error(
            "flow model: routes cannot change once a transfer has been "
            "carried; in-flight flows point into route storage");
    }
}

void
FlowModel::setRoute(int fromId, int toId, std::vector<int> path)
{
    requireRoutesMutable();
    for (int l : path) {
        if (l < 0 || static_cast<std::size_t>(l) >= links_.size())
            throw std::out_of_range("flow model route uses unknown "
                                    "link id " +
                                    std::to_string(l));
    }
    auto& candidates = routes_[{fromId, toId}];
    candidates.clear();
    candidates.push_back(std::move(path));
}

void
FlowModel::addBackupRoute(int fromId, int toId, std::vector<int> path)
{
    requireRoutesMutable();
    auto it = routes_.find({fromId, toId});
    if (it == routes_.end()) {
        throw std::logic_error(
            "flow model: backup route requires a primary route " +
            std::to_string(fromId) + " -> " + std::to_string(toId));
    }
    for (int l : path) {
        if (l < 0 || static_cast<std::size_t>(l) >= links_.size())
            throw std::out_of_range("flow model route uses unknown "
                                    "link id " +
                                    std::to_string(l));
    }
    it->second.push_back(std::move(path));
}

bool
FlowModel::hasRoute(int fromId, int toId) const
{
    return routes_.count({fromId, toId}) != 0;
}

const std::vector<int>&
FlowModel::route(int fromId, int toId) const
{
    return routeCandidates(fromId, toId).front();
}

const std::vector<std::vector<int>>&
FlowModel::routeCandidates(int fromId, int toId) const
{
    auto it = routes_.find({fromId, toId});
    if (it == routes_.end()) {
        throw std::out_of_range(
            "flow model: no route " + std::to_string(fromId) + " -> " +
            std::to_string(toId));
    }
    return it->second;
}

void
FlowModel::registerSwitch(const std::string& name,
                          std::vector<int> linkIds)
{
    if (switches_.count(name) != 0) {
        throw std::invalid_argument("duplicate flow model switch: " +
                                    name);
    }
    for (int l : linkIds) {
        if (l < 0 || static_cast<std::size_t>(l) >= links_.size())
            throw std::out_of_range("flow model switch \"" + name +
                                    "\" uses unknown link id " +
                                    std::to_string(l));
    }
    switches_.emplace(name, std::move(linkIds));
    switchNames_.push_back(name);
}

bool
FlowModel::hasSwitch(const std::string& name) const
{
    return switches_.count(name) != 0;
}

const std::vector<int>&
FlowModel::switchLinks(const std::string& name) const
{
    return switches_.at(name);
}

void
FlowModel::setLinkDown(int id)
{
    LinkState& state = linkStates_.at(static_cast<std::size_t>(id));
    if (++state.downCount > 1)
        return;  // nested outage (e.g. switch_down over link_down)
    ++downLinkCount_;
    failoverPicks_.clear();  // new outage epoch: re-decide failovers
    state.downSince = sim_ != nullptr ? sim_->now() : 0;
    if (config_.onLinkDown == InFlightPolicy::Drop) {
        // Collect first: dropMessage schedules events and the drop
        // callbacks must not observe a half-mutated flow table.
        std::vector<std::uint64_t> doomed;
        for (const auto& [fid, flow] : solver_.flows()) {
            const std::vector<int>& path = *flow.resources;
            if (std::find(path.begin(), path.end(), id) != path.end())
                doomed.push_back(fid);
        }
        for (std::uint64_t fid : doomed) {
            FluidSolver::Flow flow = solver_.erase(fid);
            ++state.drops;
            ++linkDrops_;
            dropMessage(std::move(flow.dropped), DropReason::LinkDown,
                        "net/link-drop");
        }
    }
    // Stall policy needs no flow surgery: the dead link's capacity is
    // zero, so the solver pins every crossing flow at rate 0 and
    // leaves them without a completion event.
    reshareLink(id);
}

void
FlowModel::setLinkUp(int id)
{
    LinkState& state = linkStates_.at(static_cast<std::size_t>(id));
    if (state.downCount <= 0) {
        throw std::logic_error("flow model: setLinkUp on a link that "
                               "is not down: " +
                               links_[static_cast<std::size_t>(id)]
                                   .name);
    }
    if (--state.downCount > 0)
        return;
    --downLinkCount_;
    failoverPicks_.clear();  // repaired: routes revert to primaries
    if (sim_ != nullptr) {
        state.downSecondsTotal +=
            simTimeToSeconds(sim_->now() - state.downSince);
    }
    reshareLink(id);
}

void
FlowModel::setLinkDegradation(int id, double capacityFactor,
                              double latencyFactor)
{
    if (!(capacityFactor > 0.0) || capacityFactor > 1.0) {
        throw std::invalid_argument(
            "flow model: capacity factor must be in (0, 1]");
    }
    if (latencyFactor < 1.0) {
        throw std::invalid_argument(
            "flow model: latency factor must be >= 1");
    }
    LinkState& state = linkStates_.at(static_cast<std::size_t>(id));
    state.capacityFactor = capacityFactor;
    state.latencyFactor = latencyFactor;
    reshareLink(id);
}

void
FlowModel::clearLinkDegradation(int id)
{
    LinkState& state = linkStates_.at(static_cast<std::size_t>(id));
    state.capacityFactor = 1.0;
    state.latencyFactor = 1.0;
    reshareLink(id);
}

void
FlowModel::reshareLink(int id)
{
    const auto li = static_cast<std::size_t>(id);
    const LinkState& state = linkStates_[li];
    solver_.setCapacity(id, state.downCount > 0
                                ? 0.0
                                : links_[li].bytesPerSecond *
                                      state.capacityFactor);
    solver_.reshare();
}

bool
FlowModel::linkUp(int id) const
{
    return linkStates_.at(static_cast<std::size_t>(id)).downCount == 0;
}

void
FlowModel::setPartition(const std::vector<std::vector<int>>& groups)
{
    partitionOf_.assign(machineNames_.size(), -1);
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (int id : groups[g]) {
            const auto idx = static_cast<std::size_t>(id);
            if (id < 0 || idx >= partitionOf_.size()) {
                throw std::out_of_range(
                    "flow model: partition group references unknown "
                    "machine net id " +
                    std::to_string(id));
            }
            partitionOf_[idx] = static_cast<int>(g);
        }
    }
    partitionActive_ = true;
}

void
FlowModel::clearPartition()
{
    partitionActive_ = false;
    partitionOf_.clear();
}

bool
FlowModel::crossesPartition(int fromId, int toId) const
{
    const auto fi = static_cast<std::size_t>(fromId);
    const auto ti = static_cast<std::size_t>(toId);
    if (fi >= partitionOf_.size() || ti >= partitionOf_.size())
        return false;
    const int fromGroup = partitionOf_[fi];
    const int toGroup = partitionOf_[ti];
    return fromGroup >= 0 && toGroup >= 0 && fromGroup != toGroup;
}

bool
FlowModel::reachable(int fromId, int toId) const
{
    if (partitionActive_ && crossesPartition(fromId, toId))
        return false;
    auto it = routes_.find({fromId, toId});
    if (it == routes_.end())
        return false;
    if (downLinkCount_ == 0)
        return true;
    for (const auto& candidate : it->second) {
        if (pathUp(candidate))
            return true;
    }
    return false;
}

void
FlowModel::bind(Simulator& sim)
{
    sim_ = &sim;
    solver_.bind(sim);
}

void
FlowModel::onMachineAdded(const Machine& machine)
{
    const auto id = static_cast<std::size_t>(machine.netId());
    if (machineNames_.size() <= id)
        machineNames_.resize(id + 1);
    machineNames_[id] = machine.name();
}

const std::vector<std::vector<int>>&
FlowModel::routeOrThrow(const Machine& from, const Machine& to) const
{
    auto it = routes_.find({from.netId(), to.netId()});
    if (it == routes_.end()) {
        throw std::logic_error("flow network model: no route from \"" +
                               from.name() + "\" to \"" + to.name() +
                               "\"");
    }
    return it->second;
}

bool
FlowModel::pathUp(const std::vector<int>& path) const
{
    for (int l : path) {
        if (linkStates_[static_cast<std::size_t>(l)].downCount > 0)
            return false;
    }
    return true;
}

const std::vector<int>*
FlowModel::pickSurvivingPath(
    const std::vector<std::vector<int>>& candidates)
{
    survivorScratch_.clear();
    for (const auto& candidate : candidates) {
        if (pathUp(candidate))
            survivorScratch_.push_back(&candidate);
    }
    if (survivorScratch_.empty())
        return nullptr;
    std::size_t pick = 0;
    Chooser* chooser = sim_->chooser();
    if (survivorScratch_.size() >= 2 && chooser != nullptr) {
        const int cap = chooser->maxChoices(ChoiceKind::RouteFailover);
        const int options = static_cast<int>(
            std::min<std::size_t>(survivorScratch_.size(),
                                  static_cast<std::size_t>(
                                      cap > 0 ? cap : 0)));
        if (options >= 2) {
            pick = static_cast<std::size_t>(
                chooser->choose(ChoiceKind::RouteFailover, options,
                                "net/failover"));
        }
    }
    return survivorScratch_[pick];
}

double
FlowModel::pathLatencySeconds(const std::vector<int>& path) const
{
    double latency = 0.0;
    for (int l : path) {
        const auto li = static_cast<std::size_t>(l);
        // latencyFactor is exactly 1.0 outside degradation windows,
        // and x * 1.0 is IEEE-exact, so fault-free digests are
        // untouched by this multiply.
        latency += links_[li].latencySeconds *
                   linkStates_[li].latencyFactor;
    }
    return latency;
}

void
FlowModel::dropMessage(DropCallback dropped, DropReason reason,
                       const char* label)
{
    if (reason == DropReason::Unreachable)
        ++unreachable_;
    if (!dropped)
        return;  // fire-and-forget send; nothing to notify
    // Deliver the verdict through the event queue so callers never
    // see their callback re-entered from inside transit().
    sim_->scheduleAfter(
        0,
        [cb = std::move(dropped), reason]() mutable { cb(reason); },
        label);
}

void
FlowModel::transit(const Machine* from, const Machine* to,
                   std::uint32_t bytes, double extraLatencySeconds,
                   Callback done, DropCallback dropped,
                   const char* label)
{
    if (from == nullptr || to == nullptr) {
        // External legs (load generator) pay a constant latency and
        // never contend for fabric bandwidth.
        sim_->scheduleAfter(
            secondsToSimTime(config_.externalLatency +
                             extraLatencySeconds),
            std::move(done), label);
        return;
    }
    carried_ = true;
    if (partitionActive_ &&
        crossesPartition(from->netId(), to->netId())) {
        dropMessage(std::move(dropped), DropReason::Unreachable,
                    "net/unreachable");
        return;
    }
    const std::vector<std::vector<int>>& candidates =
        routeOrThrow(*from, *to);
    const std::vector<int>* path = &candidates.front();
    if (downLinkCount_ > 0 && !pathUp(*path)) {
        const std::pair<int, int> key{from->netId(), to->netId()};
        const auto cached = failoverPicks_.find(key);
        if (cached != failoverPicks_.end()) {
            path = cached->second;
        } else {
            path = pickSurvivingPath(candidates);
            failoverPicks_.emplace(key, path);
        }
        if (path == nullptr) {
            dropMessage(std::move(dropped), DropReason::Unreachable,
                        "net/unreachable");
            return;
        }
        ++failovers_;
    }
    const double latency =
        extraLatencySeconds + pathLatencySeconds(*path);
    if (bytes == 0 || path->empty()) {
        sim_->scheduleAfter(secondsToSimTime(latency), std::move(done),
                            label);
        return;
    }
    FluidSolver::Flow flow;
    flow.resources = path;
    flow.sizeBytes = bytes;
    flow.tailLatency = latency;
    flow.done = std::move(done);
    flow.dropped = std::move(dropped);
    flow.label = label;
    solver_.insert(std::move(flow));
    ++started_;
    solver_.reshare();
}

void
FlowModel::loopback(const Machine* machine, std::uint32_t bytes,
                    double extraLatencySeconds, Callback done,
                    const char* label)
{
    (void)machine;
    (void)bytes;
    sim_->scheduleAfter(
        secondsToSimTime(config_.loopbackLatency + extraLatencySeconds),
        std::move(done), label);
}

double
FlowModel::linkDownSeconds(int id) const
{
    const LinkState& state =
        linkStates_.at(static_cast<std::size_t>(id));
    double total = state.downSecondsTotal;
    if (state.downCount > 0 && sim_ != nullptr)
        total += simTimeToSeconds(sim_->now() - state.downSince);
    return total;
}

std::vector<FlowModel::LinkFaultSummary>
FlowModel::linkFaultSummaries() const
{
    std::vector<LinkFaultSummary> out;
    for (std::size_t l = 0; l < links_.size(); ++l) {
        const double down = linkDownSeconds(static_cast<int>(l));
        const std::uint64_t drops = linkStates_[l].drops;
        if (down <= 0.0 && drops == 0)
            continue;
        LinkFaultSummary summary;
        summary.name = links_[l].name;
        summary.downSeconds = down;
        summary.drops = drops;
        out.push_back(std::move(summary));
    }
    return out;
}

std::vector<double>
FlowModel::activeFlowRates() const
{
    std::vector<double> rates;
    rates.reserve(solver_.flows().size());
    for (const auto& [id, flow] : solver_.flows())
        rates.push_back(flow.rate);
    return rates;
}

namespace {

/** Deterministic fold of a FlowModel's dynamic state: active flows
 *  in id order, per-link fault state, partition map, and sticky
 *  failover picks. */
template <typename FlowMap, typename LinkStates, typename Partition,
          typename Picks>
std::uint64_t
flowStateDigest(const FlowMap& flows, const LinkStates& linkStates,
                const Partition& partitionOf, const Picks& picks)
{
    snapshot::Digest digest;
    for (const auto& [id, flow] : flows) {
        digest.u64(id);
        digest.f64(flow.remainingBytes);
        digest.f64(flow.rate);
        digest.f64(flow.tailLatency);
        digest.str(flow.label);
        digest.boolean(flow.completion.pending());
    }
    for (const auto& state : linkStates) {
        digest.i64(state.downCount);
        digest.f64(state.capacityFactor);
        digest.f64(state.latencyFactor);
        digest.i64(state.downSince);
        digest.f64(state.downSecondsTotal);
        digest.u64(state.drops);
    }
    for (const int group : partitionOf)
        digest.i64(group);
    for (const auto& [pair, path] : picks) {
        digest.i64(pair.first);
        digest.i64(pair.second);
        // The pick is a pointer into route storage; digest the
        // picked path's content (or a none marker for unreachable).
        digest.boolean(path != nullptr);
        if (path != nullptr) {
            for (const int link : *path)
                digest.i64(link);
        }
    }
    return digest.value();
}

}  // namespace

void
FlowModel::saveState(snapshot::SnapshotWriter& writer) const
{
    writer.putU64(started_);
    writer.putU64(finished_);
    writer.putU64(solver_.reshareCount());
    writer.putU64(failovers_);
    writer.putU64(unreachable_);
    writer.putU64(linkDrops_);
    writer.putU64(solver_.nextId());
    writer.putI64(solver_.lastUpdate());
    writer.putI64(downLinkCount_);
    writer.putBool(partitionActive_);
    writer.putU64(solver_.flows().size());
    writer.putU64(failoverPicks_.size());
    writer.putU64(flowStateDigest(solver_.flows(), linkStates_,
                                  partitionOf_, failoverPicks_));
}

void
FlowModel::loadState(snapshot::SnapshotReader& reader) const
{
    reader.requireU64("flow.started", started_);
    reader.requireU64("flow.finished", finished_);
    reader.requireU64("flow.reshares", solver_.reshareCount());
    reader.requireU64("flow.failovers", failovers_);
    reader.requireU64("flow.unreachable", unreachable_);
    reader.requireU64("flow.link_drops", linkDrops_);
    reader.requireU64("flow.next_flow_id", solver_.nextId());
    reader.requireI64("flow.last_update", solver_.lastUpdate());
    reader.requireI64("flow.down_links", downLinkCount_);
    reader.requireBool("flow.partition_active", partitionActive_);
    reader.requireU64("flow.active_flows", solver_.flows().size());
    reader.requireU64("flow.failover_picks", failoverPicks_.size());
    reader.requireU64("flow.state_digest",
                      flowStateDigest(solver_.flows(), linkStates_,
                                      partitionOf_, failoverPicks_));
}

}  // namespace hw
}  // namespace uqsim
