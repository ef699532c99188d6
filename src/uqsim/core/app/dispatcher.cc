#include "uqsim/core/app/dispatcher.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "uqsim/snapshot/state_io.h"

namespace uqsim {

namespace {

std::uint64_t
edgeKey(std::uint32_t from_id, std::uint32_t to_id)
{
    return (static_cast<std::uint64_t>(from_id) << 32) | to_id;
}

bool
anyFaults(const TierFaultStats& stats)
{
    return stats.errors != 0 || stats.timeouts != 0 ||
           stats.hopTimeouts != 0 || stats.retries != 0 ||
           stats.hedges != 0 || stats.shed != 0 || stats.rejected != 0 ||
           stats.crashKills != 0 || stats.unreachable != 0;
}

/** Job-level failure reason matching a wire-level drop verdict. */
fault::FailReason
dropFailReason(hw::DropReason reason)
{
    return reason == hw::DropReason::Unreachable
               ? fault::FailReason::Unreachable
               : fault::FailReason::NetworkLoss;
}

}  // namespace

Dispatcher::Dispatcher(Simulator& sim, hw::Network& network,
                       PathTree& tree, Deployment& deployment)
    : sim_(sim), network_(network), tree_(tree), deployment_(deployment),
      rng_(sim.masterSeed(), "dispatcher"),
      retryRng_(sim.masterSeed(), "dispatcher/retry")
{
    tree_.resolveExecPaths(
        [this](const std::string& service, const std::string& path) {
            return deployment_.model(service)->pathIdByName(path);
        });
    tree_.resolveServiceIds([this](const std::string& service) {
        return deployment_.names().intern(service);
    });
    for (MicroserviceInstance* instance : deployment_.allInstances()) {
        instance->setOnJobDone([this, instance](JobPtr job) {
            onNodeComplete(std::move(job), *instance);
        });
        instance->setOnJobFailed(
            [this, instance](JobPtr job, fault::FailReason reason) {
                onJobFailed(std::move(job), *instance, reason);
            });
    }
}

Dispatcher::RootState*
Dispatcher::findRoot(JobId root)
{
    const auto it = roots_.find(root);
    return it == roots_.end() ? nullptr : &it->second;
}

Dispatcher::RootState&
Dispatcher::insertRoot(JobId root, std::size_t node_count)
{
    // Root ids only grow, so the new record belongs at the end.
    RootMap::iterator it;
    if (rootPool_.empty()) {
        it = roots_.try_emplace(roots_.end(), root);
    } else {
        RootMap::node_type node = std::move(rootPool_.back());
        rootPool_.pop_back();
        node.key() = root;
        it = roots_.insert(roots_.end(), std::move(node));
    }
    RootState& state = it->second;
    state.variant = 0;
    state.affinity.assign(deployment_.names().size(), nullptr);
    state.syncArrived.clear();
    state.hops.clear();
    // hopStates only grows; entries beyond this variant's node count
    // are disengaged and harmless.
    if (state.hopStates.size() < node_count)
        state.hopStates.resize(node_count);
    state.terminalsDone = 0;
    state.clientTag = -1;
    state.created = 0;
    state.frontId = NameInterner::kNone;
    return state;
}

void
Dispatcher::recycleRoot(RootMap::node_type node)
{
    // Drop job references (prototypes, attempt lists) now rather
    // than at reuse, matching the old destroy-on-completion timing.
    RootState& state = node.mapped();
    for (const int node_id : state.engagedHops)
        state.hopStates[static_cast<std::size_t>(node_id)].reset();
    state.engagedHops.clear();
    rootPool_.push_back(std::move(node));
}

std::uint64_t
Dispatcher::breakerTrips() const
{
    std::uint64_t trips = 0;
    for (const auto& [edge, runtime] : edges_) {
        if (runtime.breaker)
            trips += runtime.breaker->trips();
    }
    return trips;
}

std::size_t
Dispatcher::openBreakers() const
{
    std::size_t open = 0;
    for (const auto& [edge, runtime] : edges_) {
        if (runtime.breaker &&
            runtime.breaker->state() !=
                fault::CircuitBreaker::State::Closed) {
            ++open;
        }
    }
    return open;
}

SimTime
Dispatcher::timerNudge(const char* label)
{
    Chooser* chooser = sim_.chooser();
    if (chooser == nullptr)
        return 0;
    const int cap = chooser->maxChoices(ChoiceKind::TimerNudge);
    if (cap <= 1)
        return 0;
    const int pick =
        chooser->choose(ChoiceKind::TimerNudge, cap, label);
    return static_cast<SimTime>(pick) *
           chooser->jitterStep(ChoiceKind::TimerNudge);
}

TierFaultStats&
Dispatcher::tierFault(std::uint32_t tier_id)
{
    if (tierFaults_.size() <= tier_id)
        tierFaults_.resize(tier_id + 1);
    return tierFaults_[tier_id];
}

std::map<std::string, TierFaultStats>
Dispatcher::tierFaults() const
{
    std::map<std::string, TierFaultStats> rendered;
    for (std::size_t id = 0; id < tierFaults_.size(); ++id) {
        if (anyFaults(tierFaults_[id])) {
            rendered[deployment_.names().name(
                static_cast<std::uint32_t>(id))] = tierFaults_[id];
        }
    }
    return rendered;
}

void
Dispatcher::startRequest(JobPtr job, MicroserviceInstance& front,
                         ConnectionId client_conn)
{
    if (!job)
        throw std::invalid_argument("cannot start a null request");
    ++started_;
    const std::uint32_t front_id = front.model().nameId();
    const fault::AdmissionConfig* admission =
        deployment_.admission(front_id);
    if (inflightByFront_.size() <= front_id)
        inflightByFront_.resize(front_id + 1, 0);
    if (admission != nullptr && admission->maxInflight > 0 &&
        inflightByFront_[front_id] >= admission->maxInflight) {
        // Load shedding: reject at the door, before any work or
        // RNG draw happens for this request.
        ++shed_;
        ++tierFault(front_id).shed;
        if (onRequestFailed_) {
            onRequestFailed_(job->rootId, job->clientTag, job->created,
                             fault::FailReason::Shed);
        }
        return;
    }
    job->pathVariant = tree_.sampleVariant(rng_);
    const PathVariant& variant = tree_.variant(job->pathVariant);
    const PathNode& root = variant.nodes[
        static_cast<std::size_t>(variant.rootId)];
    if (root.serviceId != front_id) {
        throw std::logic_error(
            "front-end instance \"" + front.name() +
            "\" does not serve root node service \"" + root.service +
            "\"");
    }
    RootState& state = insertRoot(job->rootId, variant.nodes.size());
    state.variant = job->pathVariant;
    state.affinity[root.serviceId] = &front;
    state.clientTag = job->clientTag;
    state.created = job->created;
    state.frontId = front_id;
    ++inflightByFront_[front_id];
    if (tracer_ != nullptr)
        tracer_->recordStart(*job, sim_.now());

    if (root.requestBytes != 0)
        job->bytes = root.requestBytes;
    job->connectionId = client_conn;
    const int node_id = variant.rootId;
    const JobId root_id = job->rootId;
    const std::uint32_t bytes = job->bytes;
    MicroserviceInstance* target = &front;
    network_.transfer(nullptr, front.machine(), bytes,
                      [this, job = std::move(job), node_id,
                       target]() mutable {
                          deliver(std::move(job), node_id, *target);
                      },
                      [this, root_id](hw::DropReason reason) {
                          onEdgeDrop(root_id, reason,
                                     NameInterner::kNone);
                      });
}

MicroserviceInstance&
Dispatcher::selectInstance(RootState& state, const PathNode& node)
{
    if (node.instanceIndex >= 0)
        return deployment_.instance(node.serviceId, node.instanceIndex);
    MicroserviceInstance*& sticky = state.affinity[node.serviceId];
    if (sticky != nullptr)
        return *sticky;
    MicroserviceInstance& picked =
        deployment_.pickInstance(node.serviceId, rng_);
    sticky = &picked;
    return picked;
}

void
Dispatcher::routeToNode(JobPtr job, int node_id,
                        MicroserviceInstance* from)
{
    RootState* state_ptr = findRoot(job->rootId);
    if (state_ptr == nullptr)
        return;  // request already completed or failed; drop the copy
    RootState& state = *state_ptr;
    const PathNode& node = tree_.node(state.variant, node_id);

    if (from != nullptr) {
        // A managed hop replaces the plain forward hop when the
        // service edge carries an active resilience policy.  Fan-in
        // nodes are excluded: a retried or hedged duplicate would
        // corrupt the arrival count.
        const fault::EdgePolicy* policy = deployment_.edgePolicy(
            from->model().nameId(), node.serviceId);
        if (policy != nullptr && policy->active() && node.fanIn <= 1 &&
            state.hopStates[static_cast<std::size_t>(node_id)].policy ==
                nullptr &&
            &selectInstance(state, node) != from) {
            startManagedHop(state, std::move(job), node_id, from,
                            *policy);
            return;
        }
    }

    MicroserviceInstance& target = selectInstance(state, node);
    if (node.requestBytes != 0)
        job->bytes = node.requestBytes;

    if (&target == from) {
        // Same-instance hop (consecutive nodes on one instance):
        // no network, connection unchanged.
        sim_.scheduleAfter(
            0,
            [this, job = std::move(job), node_id,
             t = &target]() mutable {
                deliver(std::move(job), node_id, *t);
            },
            "dispatch/local");
        return;
    }

    // Return hop? (target handled an earlier node and holds the
    // pooled connection this response travels back on.)  Prefer the
    // exact connection the job traveled out on — hedged duplicates
    // can leave several (upstream, downstream) pairs.
    auto hop_it = std::find_if(
        state.hops.begin(), state.hops.end(),
        [&](const ForwardHop& hop) {
            return hop.upstream == &target && hop.downstream == from &&
                   hop.conn == job->connectionId;
        });
    if (hop_it == state.hops.end()) {
        hop_it = std::find_if(
            state.hops.begin(), state.hops.end(),
            [&](const ForwardHop& hop) {
                return hop.upstream == &target &&
                       hop.downstream == from;
            });
    }
    const JobId root = job->rootId;
    const std::uint32_t bytes = job->bytes;
    if (hop_it != state.hops.end()) {
        // Capture the pool and connection, not the whole hop, so the
        // delivery closure stays within the callback's inline bytes.
        ConnectionPool* pool = hop_it->pool;
        const ConnectionId conn = hop_it->conn;
        state.hops.erase(hop_it);
        job->connectionId = conn;
        network_.transfer(
            from != nullptr ? from->machine() : nullptr,
            target.machine(), bytes,
            [this, job = std::move(job), node_id, t = &target, pool,
             conn]() mutable {
                // Response received: the connection is free for the
                // next request (HTTP/1.1 reuse).
                pool->release(conn);
                deliver(std::move(job), node_id, *t);
            },
            [this, root, pool, conn](hw::DropReason reason) {
                // Response lost in transit; the connection still
                // frees (it was past the pool when the hop record
                // was erased above).
                pool->release(conn);
                onEdgeDrop(root, reason, NameInterner::kNone);
            });
        return;
    }

    // Forward hop: acquire a pooled connection (backpressure when
    // the pool is exhausted).
    if (from != nullptr) {
        ConnectionPool* pool = &deployment_.pool(*from, target);
        pool->acquire([this, job = std::move(job), node_id, from,
                       t = &target, pool,
                       root](ConnectionId conn) mutable {
            RootState* st = findRoot(root);
            if (st == nullptr) {
                pool->release(conn);
                return;
            }
            st->hops.push_back(ForwardHop{from, t, conn, pool});
            job->connectionId = conn;
            network_.transfer(
                from->machine(), t->machine(), job->bytes,
                [this, job, node_id, t]() mutable {
                    deliver(std::move(job), node_id, *t);
                },
                [this, job, node_id](hw::DropReason reason) mutable {
                    onTransferDropped(std::move(job), node_id, reason);
                });
        });
        return;
    }

    // Hop from outside the cluster (no pool).
    network_.transfer(nullptr, target.machine(), bytes,
                      [this, job = std::move(job), node_id,
                       t = &target]() mutable {
                          deliver(std::move(job), node_id, *t);
                      },
                      [this, root](hw::DropReason reason) {
                          onEdgeDrop(root, reason,
                                     NameInterner::kNone);
                      });
}

void
Dispatcher::deliver(JobPtr job, int node_id, MicroserviceInstance& target)
{
    RootState* state_ptr = findRoot(job->rootId);
    if (state_ptr == nullptr)
        return;
    RootState& state = *state_ptr;
    const PathNode& node = tree_.node(state.variant, node_id);

    // Fan-in synchronization: only the final copy proceeds.
    if (node.fanIn > 1) {
        const auto arrived = std::find_if(
            state.syncArrived.begin(), state.syncArrived.end(),
            [node_id](const std::pair<int, int>& entry) {
                return entry.first == node_id;
            });
        if (arrived == state.syncArrived.end()) {
            state.syncArrived.emplace_back(node_id, 1);
            return;
        }
        if (++arrived->second < node.fanIn)
            return;
        state.syncArrived.erase(arrived);
    }

    job->pathNodeId = node_id;
    job->enteredTier = sim_.now();
    job->execPathId = node.execPathId;
    if (tracer_ != nullptr)
        tracer_->recordEnter(*job, node.serviceId, sim_.now());
    for (const PathNodeOp& op : node.onEnter) {
        if (op.kind == PathNodeOp::Kind::BlockConnection &&
            job->connectionId != kNoConnection) {
            blocks_.block(job->rootId, target.connections(),
                          job->connectionId, node.service);
        }
    }
    target.accept(std::move(job));
}

void
Dispatcher::onNodeComplete(JobPtr job, MicroserviceInstance& inst)
{
    if (deadJobs_.erase(job->id) > 0)
        return;  // cancelled attempt finishing late; drop silently
    RootState* state_ptr = findRoot(job->rootId);
    if (state_ptr == nullptr)
        return;
    RootState& state = *state_ptr;
    if (tierLatencyHook_) {
        tierLatencyHook_(inst.model().nameId(),
                         simTimeToSeconds(sim_.now() - job->enteredTier));
    }
    if (tracer_ != nullptr)
        tracer_->recordLeave(*job, sim_.now());

    // Managed hop won by this job: stop the policy machinery and
    // cancel the other attempts (first-response-wins).
    HopState& hs =
        state.hopStates[static_cast<std::size_t>(job->pathNodeId)];
    if (hs.policy != nullptr && !hs.done) {
        auto winner = std::find_if(
            hs.attempts.begin(), hs.attempts.end(),
            [&](const Attempt& attempt) {
                return attempt.jobId == job->id;
            });
        if (winner != hs.attempts.end()) {
            hs.done = true;
            hs.timeoutEvent.cancel();
            hs.hedgeEvent.cancel();
            hs.resendEvent.cancel();
            hs.prototype.reset();
            EdgeRuntime& edge = edgeRuntime(hs.from->model().nameId(),
                                            hs.serviceId, *hs.policy);
            const double latency =
                simTimeToSeconds(sim_.now() - winner->sentAt);
            edge.hopLatencies.push_back(latency);
            if (edge.hedgeQuantile)
                edge.hedgeQuantile->add(latency);
            if (edge.breaker)
                edge.breaker->recordSuccess(sim_.now());
            for (Attempt& attempt : hs.attempts) {
                if (attempt.jobId == job->id || !attempt.live)
                    continue;
                attempt.live = false;
                --hs.liveAttempts;
                deadJobs_.insert(attempt.jobId);
                releaseAttemptConn(state, attempt);
            }
        }
    }

    const PathNode& node = tree_.node(state.variant, job->pathNodeId);
    for (const PathNodeOp& op : node.onLeave) {
        if (op.kind == PathNodeOp::Kind::UnblockConnection)
            blocks_.unblock(job->rootId, op.service);
    }

    if (node.children.empty()) {
        finishRequest(std::move(job), inst);
        return;
    }
    for (std::size_t i = 0; i < node.children.size(); ++i) {
        JobPtr child = (i + 1 == node.children.size())
                           ? std::move(job)
                           : jobs_.createCopy(*job);
        routeToNode(std::move(child), node.children[i], &inst);
    }
}

void
Dispatcher::finishRequest(JobPtr job, MicroserviceInstance& last)
{
    RootState* state_ptr = findRoot(job->rootId);
    if (state_ptr == nullptr)
        return;
    RootState& state = *state_ptr;
    // A leaf that never routes back releases its own connection.
    const auto hop_it = std::find_if(
        state.hops.begin(), state.hops.end(),
        [&](const ForwardHop& hop) {
            return hop.downstream == &last &&
                   hop.conn == job->connectionId;
        });
    if (hop_it != state.hops.end()) {
        const ForwardHop hop = *hop_it;
        state.hops.erase(hop_it);
        hop.pool->release(hop.conn);
    }
    const PathVariant& variant = tree_.variant(state.variant);
    if (++state.terminalsDone < variant.terminalCount)
        return;
    const JobId root_id = job->rootId;
    const std::uint32_t bytes = job->bytes;
    network_.transfer(last.machine(), nullptr, bytes,
                      [this, job = std::move(job)]() mutable {
                          completeAtClient(std::move(job));
                      },
                      [this, root_id](hw::DropReason reason) {
                          onEdgeDrop(root_id, reason,
                                     NameInterner::kNone);
                      });
}

void
Dispatcher::completeAtClient(JobPtr job)
{
    // Extract the record before any release: releasing connections
    // can synchronously run pool waiters that re-enter the
    // dispatcher.
    RootMap::node_type node = roots_.extract(job->rootId);
    if (!node.empty()) {
        RootState& state = node.mapped();
        cancelHopEvents(state);
        decrementInflight(state.frontId);
        // Defensive cleanup; well-formed paths leave nothing behind.
        for (const ForwardHop& hop : state.hops) {
            hop.pool->release(hop.conn);
            ++leakedHops_;
        }
        recycleRoot(std::move(node));
    }
    leakedBlocks_ +=
        static_cast<std::uint64_t>(blocks_.unblock(job->rootId, ""));
    ++completed_;
    if (tracer_ != nullptr)
        tracer_->recordComplete(*job, sim_.now());
    if (onRequestComplete_)
        onRequestComplete_(*job, sim_.now() - job->created);
}

// ------------------------------------------------------------- resilience

Dispatcher::EdgeRuntime&
Dispatcher::edgeRuntime(std::uint32_t from_id, std::uint32_t to_id,
                        const fault::EdgePolicy& policy)
{
    const std::uint64_t key = edgeKey(from_id, to_id);
    auto it = edges_.find(key);
    if (it == edges_.end()) {
        EdgeRuntime runtime;
        if (policy.breaker.enabled) {
            runtime.breaker = std::make_unique<fault::CircuitBreaker>(
                policy.breaker);
        }
        if (policy.hedgePercentile > 0.0)
            runtime.hedgeQuantile.emplace(policy.hedgePercentile);
        it = edges_.emplace(key, std::move(runtime)).first;
    }
    return it->second;
}

SimTime
Dispatcher::resolveHedgeDelay(EdgeRuntime& edge,
                              const fault::EdgePolicy& policy)
{
    if (edge.hedgeQuantile &&
        edge.hedgeQuantile->count() >=
            static_cast<std::size_t>(policy.hedgeMinSamples)) {
        return secondsToSimTime(edge.hedgeQuantile->value());
    }
    if (policy.hedgeDelaySeconds > 0.0)
        return secondsToSimTime(policy.hedgeDelaySeconds);
    return 0;
}

void
Dispatcher::startManagedHop(RootState& state, JobPtr job, int node_id,
                            MicroserviceInstance* from,
                            const fault::EdgePolicy& policy)
{
    const PathNode& node = tree_.node(state.variant, node_id);
    EdgeRuntime& edge =
        edgeRuntime(from->model().nameId(), node.serviceId, policy);
    const JobId root = job->rootId;
    if (edge.breaker && !edge.breaker->allowRequest(sim_.now())) {
        failRequest(root, fault::FailReason::BreakerOpen,
                    node.serviceId);
        return;
    }
    HopState& hs = state.hopStates[static_cast<std::size_t>(node_id)];
    hs.policy = &policy;
    hs.from = from;
    hs.serviceId = node.serviceId;
    hs.prototype = jobs_.createCopy(*job);
    hs.retriesLeft = policy.retries;
    hs.hedgesLeft = policy.hedgingEnabled() ? policy.hedgeMax : 0;
    state.engagedHops.push_back(node_id);
    launchAttempt(root, node_id, std::move(job));
    if (findRoot(root) == nullptr)
        return;
    if (hs.hedgesLeft > 0) {
        const SimTime delay = resolveHedgeDelay(edge, policy);
        if (delay > 0) {
            hs.hedgeEvent = sim_.scheduleAfter(
                delay + timerNudge("timer/hedge"),
                [this, root, node_id]() { onHedgeTimer(root, node_id); },
                "dispatch/hedge");
        }
    }
}

void
Dispatcher::launchAttempt(JobId root, int node_id, JobPtr job)
{
    RootState* state_ptr = findRoot(root);
    if (state_ptr == nullptr)
        return;
    RootState& state = *state_ptr;
    HopState& hs = state.hopStates[static_cast<std::size_t>(node_id)];
    if (hs.policy == nullptr)
        return;
    const PathNode& node = tree_.node(state.variant, node_id);

    MicroserviceInstance* target = nullptr;
    if (hs.attempts.empty()) {
        target = &selectInstance(state, node);
    } else if (node.instanceIndex >= 0) {
        target =
            &deployment_.instance(node.serviceId, node.instanceIndex);
    } else {
        // Retries and hedges prefer a different instance — the point
        // is to dodge the slow or dead one.
        MicroserviceInstance* previous = state.affinity[node.serviceId];
        target = &deployment_.pickInstance(node.serviceId, rng_);
        if (target == previous &&
            deployment_.instanceCount(node.serviceId) > 1) {
            target = &deployment_.pickInstance(node.serviceId, rng_);
        }
        state.affinity[node.serviceId] = target;
    }
    if (node.requestBytes != 0)
        job->bytes = node.requestBytes;
    hs.attempts.push_back(
        Attempt{job->id, sim_.now(), kNoConnection, true});
    ++hs.liveAttempts;
    if (hs.policy->retriesEnabled()) {
        hs.timeoutEvent.cancel();
        hs.timeoutEvent = sim_.scheduleAfter(
            secondsToSimTime(hs.policy->timeoutSeconds) +
                timerNudge("timer/timeout"),
            [this, root, node_id]() { onHopTimeout(root, node_id); },
            "dispatch/timeout");
    }
    MicroserviceInstance* from = hs.from;
    ConnectionPool* pool = &deployment_.pool(*from, *target);
    pool->acquire([this, job, node_id, from, t = target, pool,
                   root](ConnectionId conn) mutable {
        RootState* st = findRoot(root);
        if (st == nullptr || deadJobs_.erase(job->id) > 0) {
            pool->release(conn);
            return;
        }
        HopState& hop_state =
            st->hopStates[static_cast<std::size_t>(node_id)];
        if (hop_state.policy != nullptr) {
            if (hop_state.done) {
                pool->release(conn);
                return;
            }
            for (Attempt& attempt : hop_state.attempts) {
                if (attempt.jobId == job->id) {
                    attempt.conn = conn;
                    break;
                }
            }
        }
        st->hops.push_back(ForwardHop{from, t, conn, pool});
        job->connectionId = conn;
        network_.transfer(
            from->machine(), t->machine(), job->bytes,
            [this, job, node_id, t]() mutable {
                deliver(std::move(job), node_id, *t);
            },
            [this, job, node_id](hw::DropReason reason) mutable {
                onTransferDropped(std::move(job), node_id, reason);
            });
    });
}

void
Dispatcher::onHopTimeout(JobId root, int node_id)
{
    RootState* state = findRoot(root);
    if (state == nullptr)
        return;
    HopState& hs = state->hopStates[static_cast<std::size_t>(node_id)];
    if (hs.policy == nullptr || hs.done)
        return;
    EdgeRuntime& edge =
        edgeRuntime(hs.from->model().nameId(), hs.serviceId, *hs.policy);
    if (edge.breaker)
        edge.breaker->recordFailure(sim_.now());
    ++tierFault(hs.from->model().nameId()).hopTimeouts;
    if (hs.retriesLeft > 0) {
        // The timed-out attempt stays live as a racer: if it responds
        // before the retry, its response still wins.
        --hs.retriesLeft;
        scheduleResend(root, node_id);
        return;
    }
    failRequest(root, fault::FailReason::HopTimeout, hs.serviceId);
}

void
Dispatcher::scheduleResend(JobId root, int node_id)
{
    RootState* state = findRoot(root);
    if (state == nullptr)
        return;
    HopState& hs = state->hopStates[static_cast<std::size_t>(node_id)];
    if (hs.policy == nullptr || hs.done)
        return;
    hs.timeoutEvent.cancel();
    const fault::EdgePolicy& policy = *hs.policy;
    double backoff = 0.0;
    if (policy.backoffBaseSeconds > 0.0) {
        backoff = policy.backoffBaseSeconds *
                  std::pow(policy.backoffMultiplier,
                           static_cast<double>(hs.attempts.size() - 1));
        if (policy.jitter > 0.0)
            backoff *= 1.0 + policy.jitter * retryRng_.nextDouble();
    }
    ++retriesSent_;
    ++tierFault(hs.from->model().nameId()).retries;
    auto fire = [this, root, node_id]() {
        RootState* st = findRoot(root);
        if (st == nullptr)
            return;
        HopState& hop_state =
            st->hopStates[static_cast<std::size_t>(node_id)];
        if (hop_state.policy == nullptr || hop_state.done ||
            !hop_state.prototype) {
            return;
        }
        launchAttempt(root, node_id,
                      jobs_.createCopy(*hop_state.prototype));
    };
    if (backoff <= 0.0) {
        fire();
    } else {
        hs.resendEvent = sim_.scheduleAfter(
            secondsToSimTime(backoff) + timerNudge("timer/retry"),
            fire, "dispatch/retry");
    }
}

void
Dispatcher::onHedgeTimer(JobId root, int node_id)
{
    RootState* state = findRoot(root);
    if (state == nullptr)
        return;
    HopState& hs = state->hopStates[static_cast<std::size_t>(node_id)];
    if (hs.policy == nullptr || hs.done)
        return;
    if (hs.hedgesLeft <= 0 || !hs.prototype)
        return;
    --hs.hedgesLeft;
    ++hedgesSent_;
    ++tierFault(hs.from->model().nameId()).hedges;
    launchAttempt(root, node_id, jobs_.createCopy(*hs.prototype));
    if (findRoot(root) == nullptr)
        return;
    if (hs.hedgesLeft > 0) {
        EdgeRuntime& edge = edgeRuntime(hs.from->model().nameId(),
                                        hs.serviceId, *hs.policy);
        const SimTime delay = resolveHedgeDelay(edge, *hs.policy);
        if (delay > 0) {
            hs.hedgeEvent = sim_.scheduleAfter(
                delay + timerNudge("timer/hedge"),
                [this, root, node_id]() { onHedgeTimer(root, node_id); },
                "dispatch/hedge");
        }
    }
}

void
Dispatcher::onJobFailed(JobPtr job, MicroserviceInstance& inst,
                        fault::FailReason reason)
{
    if (deadJobs_.erase(job->id) > 0)
        return;
    RootState* state = findRoot(job->rootId);
    if (state == nullptr)
        return;
    const std::uint32_t tier = inst.model().nameId();
    if (reason == fault::FailReason::Crash)
        ++tierFault(tier).crashKills;
    else if (reason == fault::FailReason::QueueFull)
        ++tierFault(tier).rejected;
    failAttemptOrRequest(job->rootId, job->pathNodeId, job->id, reason,
                         tier);
}

void
Dispatcher::onTransferDropped(JobPtr job, int node_id,
                              hw::DropReason reason)
{
    if (deadJobs_.erase(job->id) > 0)
        return;
    RootState* state = findRoot(job->rootId);
    if (state == nullptr)
        return;
    const PathNode& node = tree_.node(state->variant, node_id);
    if (reason == hw::DropReason::Unreachable)
        ++tierFault(node.serviceId).unreachable;
    failAttemptOrRequest(job->rootId, node_id, job->id,
                         dropFailReason(reason), node.serviceId);
}

void
Dispatcher::onEdgeDrop(JobId root, hw::DropReason reason,
                       std::uint32_t tier_id)
{
    if (reason == hw::DropReason::Unreachable) {
        const RootState* state = findRoot(root);
        const std::uint32_t resolved =
            tier_id != NameInterner::kNone ? tier_id
            : state != nullptr            ? state->frontId
                                          : NameInterner::kNone;
        if (resolved != NameInterner::kNone)
            ++tierFault(resolved).unreachable;
    }
    failRequest(root, dropFailReason(reason), tier_id);
}

void
Dispatcher::failAttemptOrRequest(JobId root, int node_id, JobId job_id,
                                 fault::FailReason reason,
                                 std::uint32_t tier_id)
{
    RootState* state = findRoot(root);
    if (state == nullptr)
        return;
    if (node_id >= 0 &&
        static_cast<std::size_t>(node_id) < state->hopStates.size()) {
        HopState& hs =
            state->hopStates[static_cast<std::size_t>(node_id)];
        if (hs.policy != nullptr && !hs.done) {
            const auto a_it = std::find_if(
                hs.attempts.begin(), hs.attempts.end(),
                [&](const Attempt& attempt) {
                    return attempt.jobId == job_id;
                });
            if (a_it != hs.attempts.end() && a_it->live) {
                a_it->live = false;
                --hs.liveAttempts;
                releaseAttemptConn(*state, *a_it);
                EdgeRuntime& edge =
                    edgeRuntime(hs.from->model().nameId(), hs.serviceId,
                                *hs.policy);
                if (edge.breaker)
                    edge.breaker->recordFailure(sim_.now());
                if (hs.retriesLeft > 0) {
                    --hs.retriesLeft;
                    scheduleResend(root, node_id);
                    return;
                }
                if (hs.liveAttempts > 0)
                    return;  // a racing attempt may still succeed
                failRequest(root, reason, tier_id);
                return;
            }
        }
    }
    failRequest(root, reason, tier_id);
}

void
Dispatcher::releaseAttemptConn(RootState& state, Attempt& attempt)
{
    if (attempt.conn == kNoConnection)
        return;
    const auto it = std::find_if(
        state.hops.begin(), state.hops.end(),
        [&](const ForwardHop& hop) { return hop.conn == attempt.conn; });
    attempt.conn = kNoConnection;
    if (it == state.hops.end())
        return;
    // Erase before releasing: release can synchronously run a pool
    // waiter that pushes into this same hops vector.
    const ForwardHop hop = *it;
    state.hops.erase(it);
    hop.pool->release(hop.conn);
}

void
Dispatcher::cancelHopEvents(RootState& state)
{
    for (const int node_id : state.engagedHops) {
        HopState& hs =
            state.hopStates[static_cast<std::size_t>(node_id)];
        hs.timeoutEvent.cancel();
        hs.hedgeEvent.cancel();
        hs.resendEvent.cancel();
        // Dead marks of this root's cancelled attempts are no longer
        // needed: with the root gone every late result is dropped by
        // the root lookup anyway.
        for (const Attempt& attempt : hs.attempts) {
            if (!attempt.live)
                deadJobs_.erase(attempt.jobId);
        }
    }
}

void
Dispatcher::decrementInflight(std::uint32_t front_id)
{
    if (front_id < inflightByFront_.size() &&
        inflightByFront_[front_id] > 0) {
        --inflightByFront_[front_id];
    }
}

void
Dispatcher::failRequest(JobId root, fault::FailReason reason,
                        std::uint32_t tier_id)
{
    // Extract the record before any release: releasing connections
    // can synchronously run pool waiters that re-enter the
    // dispatcher.
    RootMap::node_type node = roots_.extract(root);
    if (node.empty())
        return;
    RootState& state = node.mapped();
    cancelHopEvents(state);
    for (const ForwardHop& hop : state.hops)
        hop.pool->release(hop.conn);
    blocks_.unblock(root, "");
    decrementInflight(state.frontId);
    ++failed_;
    ++tierFault(tier_id == NameInterner::kNone ? state.frontId : tier_id)
          .errors;
    if (onRequestFailed_)
        onRequestFailed_(root, state.clientTag, state.created, reason);
    recycleRoot(std::move(node));
}

std::uint64_t
Dispatcher::activeStateDigest() const
{
    snapshot::Digest digest;
    // Active roots in JobId order (std::map).
    for (const auto& [root, state] : roots_) {
        digest.u64(root);
        digest.i64(state.variant);
        digest.i64(state.terminalsDone);
        digest.i64(state.clientTag);
        digest.i64(state.created);
        digest.u32(state.frontId);
        for (const MicroserviceInstance* sticky : state.affinity)
            digest.i64(sticky == nullptr ? -1 : sticky->uid());
        for (const auto& [node, arrived] : state.syncArrived) {
            digest.i64(node);
            digest.i64(arrived);
        }
        digest.u64(state.hops.size());
        for (const ForwardHop& hop : state.hops) {
            digest.i64(hop.upstream == nullptr ? -1
                                               : hop.upstream->uid());
            digest.i64(hop.downstream == nullptr
                           ? -1
                           : hop.downstream->uid());
            digest.i64(hop.conn);
        }
        digest.u64(state.engagedHops.size());
        for (const int node_id : state.engagedHops) {
            const HopState& hop =
                state.hopStates[static_cast<std::size_t>(node_id)];
            digest.i64(node_id);
            digest.boolean(hop.policy != nullptr);
            digest.u32(hop.serviceId);
            digest.i64(hop.liveAttempts);
            digest.i64(hop.retriesLeft);
            digest.i64(hop.hedgesLeft);
            digest.boolean(hop.done);
            digest.u64(hop.attempts.size());
            for (const Attempt& attempt : hop.attempts) {
                digest.u64(attempt.jobId);
                digest.i64(attempt.sentAt);
                digest.i64(attempt.conn);
                digest.boolean(attempt.live);
            }
            digest.boolean(hop.timeoutEvent.pending());
            digest.boolean(hop.hedgeEvent.pending());
            digest.boolean(hop.resendEvent.pending());
        }
    }
    // Dead-job set (std::set, id order).
    digest.u64(deadJobs_.size());
    for (const JobId dead : deadJobs_)
        digest.u64(dead);
    // Per-edge runtime in sorted-key order (the map is unordered).
    std::vector<std::uint64_t> edge_keys;
    edge_keys.reserve(edges_.size());
    for (const auto& [key, runtime] : edges_)
        edge_keys.push_back(key);
    std::sort(edge_keys.begin(), edge_keys.end());
    for (const std::uint64_t key : edge_keys) {
        const EdgeRuntime& runtime = edges_.at(key);
        digest.u64(key);
        digest.boolean(runtime.breaker != nullptr);
        if (runtime.breaker)
            digest.u64(runtime.breaker->stateDigest());
        digest.u64(runtime.hopLatencies.size());
        for (const double value : runtime.hopLatencies)
            digest.f64(value);
    }
    // Admission counters and per-tier fault counters (dense arrays).
    for (const int inflight : inflightByFront_)
        digest.i64(inflight);
    for (const TierFaultStats& stats : tierFaults_) {
        digest.u64(stats.errors);
        digest.u64(stats.timeouts);
        digest.u64(stats.hopTimeouts);
        digest.u64(stats.retries);
        digest.u64(stats.hedges);
        digest.u64(stats.shed);
        digest.u64(stats.rejected);
        digest.u64(stats.crashKills);
        digest.u64(stats.unreachable);
    }
    return digest.value();
}

void
Dispatcher::saveState(snapshot::SnapshotWriter& writer) const
{
    writer.beginSection(snapshot::SectionId::Dispatcher);
    writer.putU64(started_);
    writer.putU64(completed_);
    writer.putU64(failed_);
    writer.putU64(shed_);
    writer.putU64(retriesSent_);
    writer.putU64(hedgesSent_);
    writer.putU64(leakedBlocks_);
    writer.putU64(leakedHops_);
    writer.putU64(jobs_.created());
    writer.putU64(jobs_.liveJobs());
    snapshot::putRngState(writer, rng_.state());
    snapshot::putRngState(writer, retryRng_.state());
    writer.putU64(roots_.size());
    writer.putU64(deadJobs_.size());
    writer.putU64(edges_.size());
    writer.putU64(activeStateDigest());
    deployment_.saveState(writer);
    writer.endSection();
}

void
Dispatcher::loadState(snapshot::SnapshotReader& reader) const
{
    reader.openSection(snapshot::SectionId::Dispatcher);
    reader.requireU64("started", started_);
    reader.requireU64("completed", completed_);
    reader.requireU64("failed", failed_);
    reader.requireU64("shed", shed_);
    reader.requireU64("retries_sent", retriesSent_);
    reader.requireU64("hedges_sent", hedgesSent_);
    reader.requireU64("leaked_blocks", leakedBlocks_);
    reader.requireU64("leaked_hops", leakedHops_);
    reader.requireU64("jobs_created", jobs_.created());
    reader.requireU64("jobs_live", jobs_.liveJobs());
    snapshot::requireRngState(reader, "rng", rng_.state());
    snapshot::requireRngState(reader, "retry_rng", retryRng_.state());
    reader.requireU64("active_roots", roots_.size());
    reader.requireU64("dead_jobs", deadJobs_.size());
    reader.requireU64("edges", edges_.size());
    reader.requireU64("active_state_digest", activeStateDigest());
    deployment_.loadState(reader);
    reader.closeSection();
}

}  // namespace uqsim
