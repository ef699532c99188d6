#ifndef UQSIM_CORE_APP_DEPLOYMENT_H_
#define UQSIM_CORE_APP_DEPLOYMENT_H_

/**
 * @file
 * Microservice deployment (graph.json): which instances of each
 * service exist, on which machines, with what resources and
 * execution model, plus inter-tier connection pool sizes and the
 * load-balancing policy (paper §III-C, Table I).
 *
 * Example:
 *
 *   {"services": [
 *      {"service": "nginx",
 *       "lb_policy": "round_robin",
 *       "connection_pools": {"memcached": 8},
 *       "instances": [
 *          {"machine": "server0", "threads": 8, "cores": 8,
 *           "own_dvfs": true}
 *       ]}
 *   ]}
 */

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "uqsim/core/engine/simulator.h"
#include "uqsim/core/service/connection_pool.h"
#include "uqsim/core/service/instance.h"
#include "uqsim/core/service/name_interner.h"
#include "uqsim/core/service/service_model.h"
#include "uqsim/fault/resilience.h"
#include "uqsim/hw/cluster.h"
#include "uqsim/json/json_value.h"

namespace uqsim {

namespace snapshot {
class Digest;
}  // namespace snapshot

/** How a service's instances are selected for new requests. */
enum class LbPolicy {
    RoundRobin,
    Random,
};

LbPolicy lbPolicyFromString(const std::string& name);

/** The set of deployed instances plus connection pools. */
class Deployment {
  public:
    /** Default pool size used when graph.json does not specify. */
    static constexpr int kDefaultPoolSize = 8;

    Deployment(Simulator& sim, hw::Cluster& cluster);

    Deployment(const Deployment&) = delete;
    Deployment& operator=(const Deployment&) = delete;

    /** The cluster instances are deployed onto (used by the fault
     *  scheduler to resolve machine names for partition groups). */
    hw::Cluster& cluster() { return cluster_; }
    const hw::Cluster& cluster() const { return cluster_; }

    /** Registers a service model before deploying instances.  The
     *  model's name is interned and its nameId assigned. */
    void registerModel(ServiceModelPtr model);

    /** The model for @p service; throws when unknown. */
    const ServiceModelPtr& model(const std::string& service) const;

    /** Service-name interner shared by the whole simulation. */
    NameInterner& names() { return names_; }
    const NameInterner& names() const { return names_; }

    /**
     * Deploys one instance of @p service on @p machine (empty name
     * = detached test instance).  Returns the instance index.
     */
    int deployInstance(const std::string& service,
                       const std::string& machine,
                       const InstanceConfig& config);

    /** Applies a parsed graph.json document. */
    void loadGraphJson(const json::JsonValue& doc);

    /** Sets the pool size for hops from @p from_service to
     *  @p to_service. */
    void setPoolSize(const std::string& from_service,
                     const std::string& to_service, int size);

    /** Sets the LB policy for @p service. */
    void setLbPolicy(const std::string& service, LbPolicy policy);

    /** Number of instances of @p service. */
    int instanceCount(const std::string& service) const;
    /** Number of instances of the service with interned id @p id. */
    int instanceCount(std::uint32_t service_id) const;

    /** Instance @p index of @p service. */
    MicroserviceInstance& instance(const std::string& service, int index);
    /** Instance @p index of the service with interned id @p id. */
    MicroserviceInstance& instance(std::uint32_t service_id, int index);

    /** All instances of @p service. */
    const std::vector<MicroserviceInstance*>&
    instances(const std::string& service) const;

    /** All instances across services (deployment order). */
    const std::vector<MicroserviceInstance*>& allInstances() const
    {
        return allInstances_;
    }

    /**
     * Picks an instance of @p service per its LB policy (round-robin
     * by default).
     */
    MicroserviceInstance& pickInstance(const std::string& service,
                                       random::Rng& rng);
    /** Same, addressed by interned service id (hot path). */
    MicroserviceInstance& pickInstance(std::uint32_t service_id,
                                       random::Rng& rng);

    /**
     * The connection pool for hops from @p from to @p to, created
     * lazily with the configured size.
     */
    ConnectionPool& pool(const MicroserviceInstance& from,
                         const MicroserviceInstance& to);

    /** Allocator for ad-hoc (client) connection ids. */
    ConnectionIdAllocator& connectionIds() { return connectionIds_; }

    /**
     * Visits every lazily-created connection pool (invariant
     * auditor / diagnostics).  Iteration order is unspecified;
     * callers must not depend on it for anything order-sensitive.
     */
    template <typename Fn>
    void
    forEachPool(Fn&& fn) const
    {
        for (const auto& [key, pool] : pools_)
            fn(*pool);
    }

    /** Sets the resilience policy for hops from @p from_service to
     *  @p to_service (graph.json "policies" block).  Set it before
     *  the run: the dispatcher builds the edge's breaker and hedge
     *  quantile from the policy it sees on the edge's first hop. */
    void setEdgePolicy(const std::string& from_service,
                       const std::string& to_service,
                       const fault::EdgePolicy& policy);

    /** The policy for a (from, to) service edge, or nullptr. */
    const fault::EdgePolicy* edgePolicy(const std::string& from_service,
                                        const std::string& to_service)
        const;
    /** Same, addressed by interned service ids (hot path). */
    const fault::EdgePolicy* edgePolicy(std::uint32_t from_id,
                                        std::uint32_t to_id) const;

    /** Sets admission control for requests entering via @p service. */
    void setAdmission(const std::string& service,
                      const fault::AdmissionConfig& config);

    /** Admission config for @p service, or nullptr. */
    const fault::AdmissionConfig*
    admission(const std::string& service) const;
    /** Same, addressed by interned service id (hot path). */
    const fault::AdmissionConfig* admission(std::uint32_t service_id) const;

    /**
     * Folds the deployment's mutable routing state into the
     * DISPATCHER layer: connection-id allocator position,
     * per-service round-robin cursors, and every connection pool's
     * occupancy (free ids in hand-out order, waiter count,
     * high-water mark), pools in sorted-key order.
     */
    void foldState(snapshot::Digest& digest) const;

  private:
    struct ServiceEntry {
        ServiceModelPtr model;
        std::vector<std::unique_ptr<MicroserviceInstance>> instances;
        std::vector<MicroserviceInstance*> instancePtrs;
        LbPolicy lbPolicy = LbPolicy::RoundRobin;
        std::size_t rrCursor = 0;
    };

    ServiceEntry& entry(const std::string& service);
    const ServiceEntry& entry(const std::string& service) const;
    ServiceEntry& entry(std::uint32_t service_id);
    const ServiceEntry& entry(std::uint32_t service_id) const;

    /** Packs a service-id pair into one lookup key. */
    static std::uint64_t
    edgeKey(std::uint32_t from_id, std::uint32_t to_id)
    {
        return (static_cast<std::uint64_t>(from_id) << 32) | to_id;
    }

    Simulator& sim_;
    hw::Cluster& cluster_;
    NameInterner names_;
    std::map<std::string, ServiceEntry> services_;
    /** entry pointers indexed by interned service id (nullptr for
     *  interned-but-unregistered names). */
    std::vector<ServiceEntry*> entriesById_;
    std::map<std::pair<std::string, std::string>, int> poolSizes_;
    /** Pools keyed by packed (from uid, to uid) instance pair. */
    std::unordered_map<std::uint64_t, std::unique_ptr<ConnectionPool>>
        pools_;
    ConnectionIdAllocator connectionIds_;
    std::vector<MicroserviceInstance*> allInstances_;
    /** Edge policies keyed by packed (from, to) service ids. */
    std::unordered_map<std::uint64_t, fault::EdgePolicy> edgePolicies_;
    /** Admission configs indexed by interned service id. */
    std::vector<std::unique_ptr<fault::AdmissionConfig>> admission_;
};

/** Parses one instance object from graph.json. */
InstanceConfig instanceConfigFromJson(const json::JsonValue& doc);

}  // namespace uqsim

#endif  // UQSIM_CORE_APP_DEPLOYMENT_H_
