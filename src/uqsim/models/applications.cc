#include "uqsim/models/applications.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "uqsim/json/json_writer.h"
#include "uqsim/models/cache_tier.h"
#include "uqsim/models/memcached.h"
#include "uqsim/models/mongodb.h"
#include "uqsim/models/nginx.h"
#include "uqsim/models/stage_presets.h"
#include "uqsim/models/thrift.h"

namespace uqsim {
namespace models {

using json::JsonArray;
using json::JsonValue;

namespace {

JsonValue
machineJson(const std::string& name, int cores, int irq_cores,
            double irq_per_packet_us = kIrqPerPacketUs)
{
    JsonValue machine = JsonValue::makeObject();
    machine.asObject()["name"] = name;
    machine.asObject()["cores"] = cores;
    machine.asObject()["irq_cores"] = irq_cores;
    machine.asObject()["irq_per_packet_us"] = irq_per_packet_us;
    return machine;
}

JsonValue
machinesJson(JsonArray machines, double wire_us = 20.0,
             double loopback_us = 5.0)
{
    JsonValue doc = JsonValue::makeObject();
    doc.asObject()["wire_latency_us"] = wire_us;
    doc.asObject()["loopback_latency_us"] = loopback_us;
    doc.asObject()["machines"] = JsonValue(std::move(machines));
    return doc;
}

JsonValue
instanceJson(const std::string& machine, int threads, int cores = 0,
             int disk_channels = 0, bool own_dvfs = false)
{
    JsonValue inst = JsonValue::makeObject();
    inst.asObject()["machine"] = machine;
    inst.asObject()["threads"] = threads;
    if (cores > 0)
        inst.asObject()["cores"] = cores;
    if (disk_channels > 0)
        inst.asObject()["disk_channels"] = disk_channels;
    if (own_dvfs)
        inst.asObject()["own_dvfs"] = true;
    return inst;
}

JsonValue
serviceDeployJson(const std::string& service, JsonArray instances,
                  std::vector<std::pair<std::string, int>> pools = {})
{
    JsonValue svc = JsonValue::makeObject();
    svc.asObject()["service"] = service;
    if (!pools.empty()) {
        JsonValue pool_obj = JsonValue::makeObject();
        for (const auto& [downstream, size] : pools)
            pool_obj.asObject()[downstream] = size;
        svc.asObject()["connection_pools"] = std::move(pool_obj);
    }
    svc.asObject()["instances"] = JsonValue(std::move(instances));
    return svc;
}

JsonValue
graphJson(JsonArray services)
{
    JsonValue doc = JsonValue::makeObject();
    doc.asObject()["services"] = JsonValue(std::move(services));
    return doc;
}

struct NodeOpts {
    int instance = -1;
    int requestBytes = 0;
    bool blockOnEnter = false;
    std::string unblockService;
};

JsonValue
nodeJson(int id, const std::string& service, const std::string& path,
         std::vector<int> children, const NodeOpts& opts = {})
{
    JsonValue node = JsonValue::makeObject();
    node.asObject()["node_id"] = id;
    node.asObject()["service"] = service;
    if (!path.empty())
        node.asObject()["path"] = path;
    JsonArray kids;
    for (int child : children)
        kids.emplace_back(child);
    node.asObject()["children"] = JsonValue(std::move(kids));
    if (opts.instance >= 0)
        node.asObject()["instance"] = opts.instance;
    if (opts.requestBytes > 0)
        node.asObject()["request_bytes"] = opts.requestBytes;
    if (opts.blockOnEnter) {
        JsonArray ops;
        JsonValue op = JsonValue::makeObject();
        op.asObject()["op"] = "block_connection";
        ops.push_back(std::move(op));
        node.asObject()["on_enter"] = JsonValue(std::move(ops));
    }
    if (!opts.unblockService.empty()) {
        JsonArray ops;
        JsonValue op = JsonValue::makeObject();
        op.asObject()["op"] = "unblock_connection";
        op.asObject()["service"] = opts.unblockService;
        ops.push_back(std::move(op));
        node.asObject()["on_leave"] = JsonValue(std::move(ops));
    }
    return node;
}

JsonValue
variantJson(double probability, JsonArray nodes)
{
    JsonValue variant = JsonValue::makeObject();
    variant.asObject()["probability"] = probability;
    variant.asObject()["nodes"] = JsonValue(std::move(nodes));
    return variant;
}

JsonValue
pathDocJson(JsonArray variants)
{
    JsonValue doc = JsonValue::makeObject();
    doc.asObject()["paths"] = JsonValue(std::move(variants));
    return doc;
}

JsonValue
constantLoadJson(double qps)
{
    JsonValue load = JsonValue::makeObject();
    load.asObject()["type"] = "constant";
    load.asObject()["qps"] = qps;
    return load;
}

JsonValue
clientJson(const std::string& front_service, int connections,
           JsonValue load, JsonValue request_bytes)
{
    JsonValue doc = JsonValue::makeObject();
    doc.asObject()["front_service"] = front_service;
    doc.asObject()["connections"] = connections;
    doc.asObject()["arrival"] = "poisson";
    doc.asObject()["load"] = std::move(load);
    doc.asObject()["request_bytes"] = std::move(request_bytes);
    return doc;
}

/** Paper: request value sizes are exponentially distributed. */
JsonValue
requestBytesSpec(double mean = 128.0)
{
    JsonValue spec = JsonValue::makeObject();
    spec.asObject()["type"] = "exponential";
    spec.asObject()["mean"] = mean;
    return spec;
}

SimulationOptions
makeOptions(const RunParams& run)
{
    SimulationOptions options;
    options.seed = run.seed;
    options.warmupSeconds = run.warmupSeconds;
    options.durationSeconds = run.durationSeconds;
    return options;
}

/** Attaches a shared-bandwidth disk (machines.json "disks" array)
 *  to an existing machine document. */
void
attachDisk(JsonValue& machine, const char* disk_name,
           double read_mbps, double write_mbps, int queue_depth)
{
    JsonValue disk = JsonValue::makeObject();
    disk.asObject()["name"] = disk_name;
    disk.asObject()["read_mbps"] = read_mbps;
    if (write_mbps > 0.0)
        disk.asObject()["write_mbps"] = write_mbps;
    if (queue_depth > 0)
        disk.asObject()["queue_depth"] = queue_depth;
    JsonArray disks;
    disks.push_back(std::move(disk));
    machine.asObject()["disks"] = JsonValue(std::move(disks));
}

}  // namespace

// ------------------------------------------------------------ 2-tier

ConfigBundle
twoTierBundle(const TwoTierParams& params)
{
    ConfigBundle bundle;
    bundle.options = makeOptions(params.run);

    NginxOptions nginx;
    nginx.serviceName = "nginx";
    nginx.workers = params.nginxWorkers;
    nginx.realProxyNoise = params.run.realProxyNoise;
    MemcachedOptions memcached;
    memcached.threads = params.memcachedThreads;
    memcached.realProxyNoise = params.run.realProxyNoise;
    bundle.services.push_back(nginxCacheFrontendJson(nginx));
    bundle.services.push_back(memcachedServiceJson(memcached));

    JsonArray machines;
    machines.push_back(machineJson("server0", 20, 4));
    bundle.machines = machinesJson(std::move(machines));

    JsonArray deploys;
    {
        JsonArray instances;
        instances.push_back(
            instanceJson("server0", params.nginxWorkers));
        deploys.push_back(serviceDeployJson(
            "nginx", std::move(instances),
            {{"memcached", 2 * params.nginxWorkers}}));
    }
    {
        JsonArray instances;
        instances.push_back(
            instanceJson("server0", params.memcachedThreads));
        deploys.push_back(
            serviceDeployJson("memcached", std::move(instances)));
    }
    bundle.graph = graphJson(std::move(deploys));

    JsonArray nodes;
    NodeOpts block;
    block.blockOnEnter = true;
    nodes.push_back(nodeJson(0, "nginx", "request", {1}, block));
    nodes.push_back(nodeJson(1, "memcached", "memcached_read", {2}));
    NodeOpts respond;
    respond.unblockService = "nginx";
    respond.requestBytes = 640;
    nodes.push_back(nodeJson(2, "nginx", "response", {}, respond));
    JsonArray variants;
    variants.push_back(variantJson(1.0, std::move(nodes)));
    bundle.paths = pathDocJson(std::move(variants));

    bundle.client = clientJson("nginx", params.run.clientConnections,
                               constantLoadJson(params.run.qps),
                               requestBytesSpec());
    return bundle;
}

// ------------------------------------------------------------ 3-tier

ConfigBundle
threeTierBundle(const ThreeTierParams& params)
{
    ConfigBundle bundle;
    bundle.options = makeOptions(params.run);

    NginxOptions nginx;
    nginx.serviceName = "nginx";
    nginx.workers = params.nginxWorkers;
    nginx.realProxyNoise = params.run.realProxyNoise;
    MemcachedOptions memcached;
    memcached.threads = params.memcachedThreads;
    memcached.realProxyNoise = params.run.realProxyNoise;
    MongoOptions mongo;
    mongo.realProxyNoise = params.run.realProxyNoise;
    bundle.services.push_back(nginxCacheFrontendJson(nginx));
    bundle.services.push_back(memcachedServiceJson(memcached));
    bundle.services.push_back(mongoServiceJson(mongo));

    JsonArray machines;
    machines.push_back(machineJson("server0", 20, 4));
    machines.push_back(machineJson("server1", 8, 2));
    bundle.machines = machinesJson(std::move(machines));

    JsonArray deploys;
    {
        JsonArray instances;
        instances.push_back(
            instanceJson("server0", params.nginxWorkers));
        deploys.push_back(serviceDeployJson(
            "nginx", std::move(instances),
            {{"memcached", 2 * params.nginxWorkers},
             {"mongodb", params.nginxWorkers}}));
    }
    {
        JsonArray instances;
        instances.push_back(
            instanceJson("server0", params.memcachedThreads));
        deploys.push_back(
            serviceDeployJson("memcached", std::move(instances)));
    }
    {
        JsonArray instances;
        instances.push_back(instanceJson("server1", 2, 2, 2));
        deploys.push_back(
            serviceDeployJson("mongodb", std::move(instances)));
    }
    bundle.graph = graphJson(std::move(deploys));

    NodeOpts block;
    block.blockOnEnter = true;
    NodeOpts respond;
    respond.unblockService = "nginx";
    respond.requestBytes = 640;

    // Hit variant: identical to the 2-tier flow.
    JsonArray hit_nodes;
    hit_nodes.push_back(nodeJson(0, "nginx", "request", {1}, block));
    hit_nodes.push_back(
        nodeJson(1, "memcached", "memcached_read", {2}));
    hit_nodes.push_back(nodeJson(2, "nginx", "response", {}, respond));

    // Miss variant: cache read misses, NGINX queries MongoDB (disk
    // path) and write-allocates the result into memcached.
    JsonArray miss_nodes;
    miss_nodes.push_back(nodeJson(0, "nginx", "request", {1}, block));
    miss_nodes.push_back(
        nodeJson(1, "memcached", "memcached_read", {2}));
    miss_nodes.push_back(nodeJson(2, "nginx", "miss_forward", {3}));
    miss_nodes.push_back(nodeJson(3, "mongodb", "query_disk", {4}));
    miss_nodes.push_back(nodeJson(4, "nginx", "miss_store", {5}));
    miss_nodes.push_back(
        nodeJson(5, "memcached", "memcached_write", {6}));
    miss_nodes.push_back(nodeJson(6, "nginx", "response", {}, respond));

    JsonArray variants;
    variants.push_back(
        variantJson(1.0 - params.missRate, std::move(hit_nodes)));
    variants.push_back(
        variantJson(params.missRate, std::move(miss_nodes)));
    bundle.paths = pathDocJson(std::move(variants));

    bundle.client = clientJson("nginx", params.run.clientConnections,
                               constantLoadJson(params.run.qps),
                               requestBytesSpec());
    return bundle;
}

// ----------------------------------------------------- load balancing

ConfigBundle
loadBalancerBundle(const LoadBalancerParams& params)
{
    if (params.webServers <= 0)
        throw std::invalid_argument("webServers must be > 0");
    ConfigBundle bundle;
    bundle.options = makeOptions(params.run);

    NginxOptions proxy;
    proxy.serviceName = "nginx_lb";
    proxy.workers = params.proxyWorkers;
    proxy.realProxyNoise = params.run.realProxyNoise;
    NginxOptions web;
    web.serviceName = "nginx_web";
    web.workers = 1;
    web.realProxyNoise = params.run.realProxyNoise;
    bundle.services.push_back(nginxProxyJson(proxy));
    bundle.services.push_back(nginxWebserverJson(web));

    JsonArray machines;
    machines.push_back(
        machineJson("lb_server", params.proxyWorkers + 4, 4));
    for (int i = 0; i < params.webServers; ++i) {
        machines.push_back(
            machineJson("web" + std::to_string(i), 4, 2));
    }
    bundle.machines = machinesJson(std::move(machines));

    JsonArray deploys;
    {
        JsonArray instances;
        instances.push_back(
            instanceJson("lb_server", params.proxyWorkers));
        deploys.push_back(serviceDeployJson(
            "nginx_lb", std::move(instances), {{"nginx_web", 16}}));
    }
    {
        JsonArray instances;
        for (int i = 0; i < params.webServers; ++i)
            instances.push_back(
                instanceJson("web" + std::to_string(i), 1));
        deploys.push_back(
            serviceDeployJson("nginx_web", std::move(instances)));
    }
    bundle.graph = graphJson(std::move(deploys));

    NodeOpts block;
    block.blockOnEnter = true;
    NodeOpts respond;
    respond.unblockService = "nginx_lb";
    respond.requestBytes = 612;
    JsonArray nodes;
    nodes.push_back(
        nodeJson(0, "nginx_lb", "proxy_forward", {1}, block));
    nodes.push_back(nodeJson(1, "nginx_web", "serve", {2}));
    nodes.push_back(
        nodeJson(2, "nginx_lb", "proxy_response", {}, respond));
    JsonArray variants;
    variants.push_back(variantJson(1.0, std::move(nodes)));
    bundle.paths = pathDocJson(std::move(variants));

    bundle.client =
        clientJson("nginx_lb", params.run.clientConnections,
                   constantLoadJson(params.run.qps),
                   requestBytesSpec());
    return bundle;
}

// ------------------------------------------------------------ fan-out

ConfigBundle
fanoutBundle(const FanoutParams& params)
{
    if (params.fanout <= 0)
        throw std::invalid_argument("fanout must be > 0");
    ConfigBundle bundle;
    bundle.options = makeOptions(params.run);

    NginxOptions proxy;
    proxy.serviceName = "nginx_fanout";
    proxy.workers = params.proxyWorkers;
    proxy.realProxyNoise = params.run.realProxyNoise;
    NginxOptions web;
    web.serviceName = "nginx_web";
    web.workers = 1;
    web.realProxyNoise = params.run.realProxyNoise;
    bundle.services.push_back(nginxProxyJson(proxy));
    bundle.services.push_back(nginxWebserverJson(web));

    // Paper setup: 1 core and 1 thread per fan-out service; 4 cores
    // dedicated to network interrupts.
    JsonArray machines;
    machines.push_back(
        machineJson("fanout_server", params.proxyWorkers + 4, 4));
    for (int i = 0; i < params.fanout; ++i) {
        machines.push_back(
            machineJson("web" + std::to_string(i), 4, 2));
    }
    bundle.machines = machinesJson(std::move(machines));

    JsonArray deploys;
    {
        JsonArray instances;
        instances.push_back(
            instanceJson("fanout_server", params.proxyWorkers));
        deploys.push_back(serviceDeployJson(
            "nginx_fanout", std::move(instances), {{"nginx_web", 16}}));
    }
    {
        JsonArray instances;
        for (int i = 0; i < params.fanout; ++i)
            instances.push_back(
                instanceJson("web" + std::to_string(i), 1));
        deploys.push_back(
            serviceDeployJson("nginx_web", std::move(instances)));
    }
    bundle.graph = graphJson(std::move(deploys));

    JsonArray nodes;
    NodeOpts block;
    block.blockOnEnter = true;
    std::vector<int> leaves;
    for (int i = 0; i < params.fanout; ++i)
        leaves.push_back(1 + i);
    nodes.push_back(
        nodeJson(0, "nginx_fanout", "proxy_forward", leaves, block));
    const int join_id = params.fanout + 1;
    for (int i = 0; i < params.fanout; ++i) {
        NodeOpts pin;
        pin.instance = i;
        nodes.push_back(nodeJson(1 + i, "nginx_web", "serve",
                                 {join_id}, pin));
    }
    NodeOpts respond;
    respond.unblockService = "nginx_fanout";
    respond.requestBytes = params.responseBytes;
    nodes.push_back(nodeJson(join_id, "nginx_fanout", "proxy_response",
                             {}, respond));
    JsonArray variants;
    variants.push_back(variantJson(1.0, std::move(nodes)));
    bundle.paths = pathDocJson(std::move(variants));

    bundle.client =
        clientJson("nginx_fanout", params.run.clientConnections,
                   constantLoadJson(params.run.qps),
                   requestBytesSpec());
    return bundle;
}

// ------------------------------------------------- fat-tree fan-out

ConfigBundle
fanoutFatTreeBundle(const FanoutFatTreeParams& params)
{
    if (params.fanout <= 0)
        throw std::invalid_argument("fanout must be > 0");
    // Mirror the generator's sizing (hw::TopologyBuilder::fatTree)
    // to place the proxy and leaves on distinct generated hosts.
    const int half = params.arity / 2;
    int hosts_per_edge =
        static_cast<int>(half * params.oversubscription + 0.5);
    if (hosts_per_edge < 1)
        hosts_per_edge = 1;
    const int hosts = params.arity * half * hosts_per_edge;
    if (params.fanout + 1 > hosts) {
        throw std::invalid_argument(
            "fat-tree fan-out: need fanout + 1 <= " +
            std::to_string(hosts) + " generated hosts");
    }
    ConfigBundle bundle;
    bundle.options = makeOptions(params.run);

    NginxOptions proxy;
    proxy.serviceName = "nginx_fanout";
    proxy.workers = params.proxyWorkers;
    proxy.realProxyNoise = params.run.realProxyNoise;
    NginxOptions web;
    web.serviceName = "nginx_web";
    web.workers = 1;
    web.realProxyNoise = params.run.realProxyNoise;
    bundle.services.push_back(nginxProxyJson(proxy));
    bundle.services.push_back(nginxWebserverJson(web));

    // machines.json schema v2: the cluster is generated from the
    // topology section, uniform hosts "h0", "h1", ....
    {
        JsonValue host_proto = JsonValue::makeObject();
        host_proto.asObject()["cores"] = params.proxyWorkers + 4;
        host_proto.asObject()["irq_cores"] = 4;
        host_proto.asObject()["irq_per_packet_us"] = kIrqPerPacketUs;
        JsonValue topology = JsonValue::makeObject();
        topology.asObject()["type"] = "fat_tree";
        topology.asObject()["arity"] = params.arity;
        topology.asObject()["oversubscription"] =
            params.oversubscription;
        topology.asObject()["host_gbps"] = params.hostGbps;
        topology.asObject()["fabric_gbps"] = params.fabricGbps;
        topology.asObject()["link_latency_us"] = params.linkLatencyUs;
        topology.asObject()["hosts"] = std::move(host_proto);
        JsonValue network = JsonValue::makeObject();
        network.asObject()["model"] = "flow";
        network.asObject()["loopback_latency_us"] = 5.0;
        network.asObject()["external_latency_us"] = 20.0;
        JsonValue doc = JsonValue::makeObject();
        doc.asObject()["schema_version"] = 2;
        doc.asObject()["network"] = std::move(network);
        doc.asObject()["topology"] = std::move(topology);
        bundle.machines = std::move(doc);
    }

    // Proxy on h0; leaf i on h(1+i), so every leaf response crosses
    // the fabric and converges on h0's edge down-link.
    JsonArray deploys;
    {
        JsonArray instances;
        instances.push_back(instanceJson("h0", params.proxyWorkers));
        deploys.push_back(serviceDeployJson(
            "nginx_fanout", std::move(instances), {{"nginx_web", 16}}));
    }
    {
        JsonArray instances;
        for (int i = 0; i < params.fanout; ++i) {
            // Appending, not "h" + ...: GCC 12 at -O3 misreads the
            // one-character prefix insert as an overlapping memcpy
            // (-Wrestrict).
            std::string host = "h";
            host += std::to_string(1 + i);
            instances.push_back(instanceJson(host, 1));
        }
        deploys.push_back(
            serviceDeployJson("nginx_web", std::move(instances)));
    }
    bundle.graph = graphJson(std::move(deploys));

    JsonArray nodes;
    NodeOpts block;
    block.blockOnEnter = true;
    std::vector<int> leaves;
    for (int i = 0; i < params.fanout; ++i)
        leaves.push_back(1 + i);
    nodes.push_back(
        nodeJson(0, "nginx_fanout", "proxy_forward", leaves, block));
    const int join_id = params.fanout + 1;
    for (int i = 0; i < params.fanout; ++i) {
        NodeOpts pin;
        pin.instance = i;
        nodes.push_back(nodeJson(1 + i, "nginx_web", "serve",
                                 {join_id}, pin));
    }
    NodeOpts respond;
    respond.unblockService = "nginx_fanout";
    respond.requestBytes = params.responseBytes;
    nodes.push_back(nodeJson(join_id, "nginx_fanout", "proxy_response",
                             {}, respond));
    JsonArray variants;
    variants.push_back(variantJson(1.0, std::move(nodes)));
    bundle.paths = pathDocJson(std::move(variants));

    bundle.client =
        clientJson("nginx_fanout", params.run.clientConnections,
                   constantLoadJson(params.run.qps),
                   requestBytesSpec());
    return bundle;
}

// -------------------------------------------------------- Thrift echo

ConfigBundle
thriftEchoBundle(const ThriftEchoParams& params)
{
    ConfigBundle bundle;
    bundle.options = makeOptions(params.run);

    ThriftOptions thrift;
    thrift.serviceName = "thrift_echo";
    thrift.threads = params.serverThreads;
    thrift.realProxyNoise = params.run.realProxyNoise;
    bundle.services.push_back(thriftServiceJson(thrift));

    JsonArray machines;
    machines.push_back(machineJson("server0", 4, 2));
    bundle.machines = machinesJson(std::move(machines));

    JsonArray deploys;
    JsonArray instances;
    instances.push_back(instanceJson("server0", params.serverThreads));
    deploys.push_back(
        serviceDeployJson("thrift_echo", std::move(instances)));
    bundle.graph = graphJson(std::move(deploys));

    JsonArray nodes;
    nodes.push_back(nodeJson(0, "thrift_echo", "echo", {}));
    JsonArray variants;
    variants.push_back(variantJson(1.0, std::move(nodes)));
    bundle.paths = pathDocJson(std::move(variants));

    bundle.client =
        clientJson("thrift_echo", params.run.clientConnections,
                   constantLoadJson(params.run.qps),
                   requestBytesSpec(64.0));
    return bundle;
}

// ----------------------------------------------------- social network

ConfigBundle
socialNetworkBundle(const SocialNetworkParams& params)
{
    ConfigBundle bundle;
    bundle.options = makeOptions(params.run);
    const bool noise = params.run.realProxyNoise;

    // Thrift front-end with the compose / join / finalize handlers.
    ThriftOptions front;
    front.serviceName = "thrift_front";
    front.threads = params.frontendThreads;
    front.realProxyNoise = noise;
    front.handlers = {ThriftHandler{"compose_fwd", 30.0, 1.0},
                      ThriftHandler{"join", 45.0, 1.0},
                      ThriftHandler{"media_fetch", 15.0, 1.0},
                      ThriftHandler{"finalize", 25.0, 1.0}};
    bundle.services.push_back(thriftServiceJson(front));

    auto logic_service = [&](const char* name, const char* verb) {
        ThriftOptions options;
        options.serviceName = name;
        options.threads = params.logicThreads;
        options.realProxyNoise = noise;
        options.handlers = {
            ThriftHandler{std::string(verb) + "_lookup", 20.0, 1.0},
            ThriftHandler{std::string(verb) + "_reply", 8.0, 1.0},
            ThriftHandler{std::string(verb) + "_miss", 10.0, 1.0}};
        return thriftServiceJson(options);
    };
    bundle.services.push_back(logic_service("user_service", "user"));
    bundle.services.push_back(logic_service("post_service", "post"));
    bundle.services.push_back(logic_service("media_service", "media"));

    auto cache_service = [&](const char* name) {
        MemcachedOptions options;
        options.serviceName = name;
        options.threads = 2;
        options.realProxyNoise = noise;
        return memcachedServiceJson(options);
    };
    bundle.services.push_back(cache_service("user_mc"));
    bundle.services.push_back(cache_service("post_mc"));
    bundle.services.push_back(cache_service("media_mc"));

    // MongoDB serves most post-cache misses from its own working
    // set; only the remainder pays the disk path (sampled via the
    // model's path probabilities rather than pinned).
    MongoOptions mongo;
    mongo.serviceName = "post_mongo";
    mongo.memoryHitProbability = 0.7;
    mongo.diskChannels = 4;
    // Opt-in storage tier: sized reads against a machine-attached
    // shared disk instead of independent channel latencies.
    if (params.postDiskMBps > 0.0)
        mongo.diskIoBytes = params.postIoBytes;
    mongo.realProxyNoise = noise;
    bundle.services.push_back(mongoServiceJson(mongo));

    JsonArray machines;
    machines.push_back(
        machineJson("front_server", params.frontendThreads + 4, 4));
    machines.push_back(machineJson("user_server", 12, 2));
    JsonValue post_machine = machineJson("post_server", 12, 2);
    if (params.postDiskMBps > 0.0) {
        attachDisk(post_machine, "post_disk", params.postDiskMBps,
                   params.postDiskWriteMBps,
                   params.postDiskQueueDepth);
    }
    machines.push_back(std::move(post_machine));
    machines.push_back(machineJson("media_server", 12, 2));
    bundle.machines = machinesJson(std::move(machines));

    JsonArray deploys;
    auto deploy_one = [&](const char* service, const char* machine,
                          int threads, int disk = 0) {
        JsonArray instances;
        instances.push_back(instanceJson(machine, threads, 0, disk));
        deploys.push_back(serviceDeployJson(service,
                                            std::move(instances)));
    };
    deploy_one("thrift_front", "front_server", params.frontendThreads);
    deploy_one("user_service", "user_server", params.logicThreads);
    deploy_one("user_mc", "user_server", 2);
    deploy_one("post_service", "post_server", params.logicThreads);
    deploy_one("post_mc", "post_server", 2);
    deploy_one("post_mongo", "post_server", 2, 4);
    deploy_one("media_service", "media_server", params.logicThreads);
    deploy_one("media_mc", "media_server", 2);
    bundle.graph = graphJson(std::move(deploys));

    // Variant helpers: the user branch is nodes u0..u2, the post
    // branch p0..p2 (or the longer miss chain), joining at the
    // front-end.
    auto base_variant = [&](bool post_miss, bool media,
                            double probability) {
        JsonArray nodes;
        int next = 0;
        const int root = next++;
        // User branch.
        const int u_lookup = next++;
        const int u_cache = next++;
        const int u_reply = next++;
        // Post branch.
        const int p_lookup = next++;
        const int p_cache = next++;
        int p_miss = -1, p_mongo = -1;
        if (post_miss) {
            p_miss = next++;
            p_mongo = next++;
        }
        const int p_reply = next++;
        const int join = next++;
        int m_fetch = -1, m_cache = -1, m_reply = -1, finalize = -1;
        if (media) {
            m_fetch = next++;
            m_cache = next++;
            m_reply = next++;
            finalize = next++;
        }

        nodes.push_back(nodeJson(root, "thrift_front", "compose_fwd",
                                 {u_lookup, p_lookup}));
        nodes.push_back(nodeJson(u_lookup, "user_service",
                                 "user_lookup", {u_cache}));
        nodes.push_back(nodeJson(u_cache, "user_mc", "memcached_read",
                                 {u_reply}));
        nodes.push_back(nodeJson(u_reply, "user_service", "user_reply",
                                 {join}));
        nodes.push_back(nodeJson(p_lookup, "post_service",
                                 "post_lookup", {p_cache}));
        if (post_miss) {
            nodes.push_back(nodeJson(p_cache, "post_mc",
                                     "memcached_read", {p_miss}));
            nodes.push_back(nodeJson(p_miss, "post_service",
                                     "post_miss", {p_mongo}));
            // No pinned path: MongoDB samples memory vs. disk.
            nodes.push_back(
                nodeJson(p_mongo, "post_mongo", "", {p_reply}));
        } else {
            nodes.push_back(nodeJson(p_cache, "post_mc",
                                     "memcached_read", {p_reply}));
        }
        nodes.push_back(nodeJson(p_reply, "post_service", "post_reply",
                                 {join}));
        if (media) {
            nodes.push_back(nodeJson(join, "thrift_front", "join",
                                     {m_fetch}));
            nodes.push_back(nodeJson(m_fetch, "media_service",
                                     "media_lookup", {m_cache}));
            nodes.push_back(nodeJson(m_cache, "media_mc",
                                     "memcached_read", {m_reply}));
            nodes.push_back(nodeJson(m_reply, "media_service",
                                     "media_reply", {finalize}));
            nodes.push_back(nodeJson(finalize, "thrift_front",
                                     "finalize", {}));
        } else {
            nodes.push_back(
                nodeJson(join, "thrift_front", "join", {}));
        }
        return variantJson(probability, std::move(nodes));
    };

    const double p_media = params.mediaProbability;
    const double p_miss = params.postMissProbability;
    JsonArray variants;
    variants.push_back(
        base_variant(false, false, (1.0 - p_media) * (1.0 - p_miss)));
    variants.push_back(
        base_variant(true, false, (1.0 - p_media) * p_miss));
    variants.push_back(
        base_variant(false, true, p_media * (1.0 - p_miss)));
    variants.push_back(base_variant(true, true, p_media * p_miss));
    bundle.paths = pathDocJson(std::move(variants));

    bundle.client =
        clientJson("thrift_front", params.run.clientConnections,
                   constantLoadJson(params.run.qps),
                   requestBytesSpec());
    return bundle;
}

// ----------------------------------------------------- cache stampede

ConfigBundle
cacheStampedeBundle(const CacheStampedeParams& params)
{
    if (params.writeFraction < 0.0 || params.writeFraction > 1.0)
        throw std::invalid_argument(
            "writeFraction must be in [0, 1]");
    ConfigBundle bundle;
    bundle.options = makeOptions(params.run);
    const bool noise = params.run.realProxyNoise;

    // TTL discounting turns the profiled hit rate into the rate the
    // cache actually sees at this load (the invalidation-driven
    // stampede input).
    const double hit =
        effectiveHitRate(params.hitRate, params.run.qps,
                         params.keyCount, params.ttlSeconds);

    CacheTierOptions cache;
    cache.serviceName = "cache";
    cache.threads = params.cacheThreads;
    cache.hitProbability = hit;
    cache.realProxyNoise = noise;
    BackingStoreOptions store;
    store.serviceName = "store";
    store.threads = params.storeThreads;
    store.diskMeanMs = params.diskAccessMs;
    store.readBytes = params.readBytes;
    store.writeBytes = params.writeBytes;
    store.realProxyNoise = noise;
    bundle.services.push_back(cacheTierServiceJson(cache));
    bundle.services.push_back(backingStoreServiceJson(store));

    JsonArray machines;
    machines.push_back(
        machineJson("cache_server", params.cacheThreads + 4, 2));
    JsonValue store_machine =
        machineJson("store_server", params.storeThreads + 4, 2);
    attachDisk(store_machine, "store_disk", params.diskReadMBps,
               params.diskWriteMBps, params.diskQueueDepth);
    machines.push_back(std::move(store_machine));
    bundle.machines = machinesJson(std::move(machines));

    JsonArray deploys;
    {
        JsonArray instances;
        instances.push_back(
            instanceJson("cache_server", params.cacheThreads));
        // A wide pool: under a stampede the store holds tens of
        // concurrent disk reads, and the point of the scenario is to
        // saturate the *disk*, not the connection pool in front of
        // it.
        deploys.push_back(serviceDeployJson(
            "cache", std::move(instances),
            {{"store", 16 * params.cacheThreads}}));
    }
    {
        // No disk_channels: the store's disk stages land on the
        // machine-attached shared-bandwidth disk.
        JsonArray instances;
        instances.push_back(
            instanceJson("store_server", params.storeThreads));
        deploys.push_back(
            serviceDeployJson("store", std::move(instances)));
    }
    bundle.graph = graphJson(std::move(deploys));

    // Every node pins its execution path; the hit/miss/write split
    // lives entirely in the variant probabilities so sweeping the
    // hit rate moves load between the cache and the store.
    const double w = params.writeFraction;

    JsonArray hit_nodes;
    hit_nodes.push_back(nodeJson(0, "cache", "cache_hit", {}));

    JsonArray miss_nodes;
    miss_nodes.push_back(nodeJson(0, "cache", "cache_miss", {1}));
    miss_nodes.push_back(nodeJson(1, "store", "store_read", {2}));
    miss_nodes.push_back(nodeJson(2, "cache", "cache_fill", {}));

    JsonArray write_nodes;
    write_nodes.push_back(nodeJson(0, "cache", "cache_fill", {1}));
    write_nodes.push_back(nodeJson(1, "store", "store_write", {}));

    JsonArray variants;
    variants.push_back(
        variantJson(hit * (1.0 - w), std::move(hit_nodes)));
    variants.push_back(
        variantJson((1.0 - hit) * (1.0 - w), std::move(miss_nodes)));
    variants.push_back(variantJson(w, std::move(write_nodes)));
    bundle.paths = pathDocJson(std::move(variants));

    bundle.client = clientJson("cache", params.run.clientConnections,
                               constantLoadJson(params.run.qps),
                               requestBytesSpec());
    return bundle;
}

// ------------------------------------------------------ tail at scale

ConfigBundle
tailAtScaleBundle(const TailAtScaleParams& params)
{
    if (params.clusterSize <= 0)
        throw std::invalid_argument("clusterSize must be > 0");
    ConfigBundle bundle;
    bundle.options = makeOptions(params.run);

    const int slow_count = static_cast<int>(
        std::lround(params.slowFraction * params.clusterSize));
    const int fast_count = params.clusterSize - slow_count;

    // Coordinator: near-zero cost, simple execution model.
    {
        JsonValue doc = JsonValue::makeObject();
        doc.asObject()["service_name"] = "coordinator";
        doc.asObject()["execution_model"] = "simple";
        JsonArray stages;
        stages.push_back(
            processingStage(0, "fanout_processing", detUs(1.0)));
        doc.asObject()["stages"] = JsonValue(std::move(stages));
        JsonArray paths;
        paths.push_back(pathJson(0, "fan", {0}));
        doc.asObject()["paths"] = JsonValue(std::move(paths));
        bundle.services.push_back(std::move(doc));
    }
    // Leaf: one-stage queueing system with exponential service time
    // (paper §V-A); slow leaves run at slowFactor x the mean.
    auto leaf_service = [&](const char* name, double mean_seconds) {
        JsonValue doc = JsonValue::makeObject();
        doc.asObject()["service_name"] = name;
        doc.asObject()["execution_model"] = "simple";
        JsonArray stages;
        stages.push_back(processingStage(0, "leaf_processing",
                                         expUs(mean_seconds * 1e6)));
        doc.asObject()["stages"] = JsonValue(std::move(stages));
        JsonArray paths;
        paths.push_back(pathJson(0, "serve", {0}));
        doc.asObject()["paths"] = JsonValue(std::move(paths));
        return doc;
    };
    bundle.services.push_back(
        leaf_service("leaf", params.leafMeanSeconds));
    if (slow_count > 0) {
        bundle.services.push_back(leaf_service(
            "slow_leaf", params.leafMeanSeconds * params.slowFactor));
    }

    // The pure queueing experiment disables IRQ modeling (irq 0).
    JsonArray machines;
    machines.push_back(machineJson("coord", 8, 0));
    for (int i = 0; i < params.clusterSize; ++i) {
        machines.push_back(
            machineJson("leaf" + std::to_string(i), 1, 0));
    }
    bundle.machines = machinesJson(std::move(machines));

    JsonArray deploys;
    {
        JsonArray instances;
        instances.push_back(instanceJson("coord", 8));
        deploys.push_back(serviceDeployJson(
            "coordinator", std::move(instances),
            {{"leaf", 64}, {"slow_leaf", 64}}));
    }
    {
        JsonArray instances;
        for (int i = 0; i < fast_count; ++i) {
            instances.push_back(instanceJson(
                "leaf" + std::to_string(i), 1));
        }
        if (fast_count > 0) {
            deploys.push_back(
                serviceDeployJson("leaf", std::move(instances)));
        }
    }
    if (slow_count > 0) {
        JsonArray instances;
        for (int i = 0; i < slow_count; ++i) {
            instances.push_back(instanceJson(
                "leaf" + std::to_string(fast_count + i), 1));
        }
        deploys.push_back(
            serviceDeployJson("slow_leaf", std::move(instances)));
    }
    bundle.graph = graphJson(std::move(deploys));

    JsonArray nodes;
    std::vector<int> leaves;
    for (int i = 0; i < params.clusterSize; ++i)
        leaves.push_back(1 + i);
    const int join_id = params.clusterSize + 1;
    nodes.push_back(nodeJson(0, "coordinator", "fan", leaves));
    for (int i = 0; i < params.clusterSize; ++i) {
        NodeOpts pin;
        const bool slow = i >= fast_count;
        pin.instance = slow ? i - fast_count : i;
        nodes.push_back(nodeJson(1 + i, slow ? "slow_leaf" : "leaf",
                                 "serve", {join_id}, pin));
    }
    nodes.push_back(nodeJson(join_id, "coordinator", "fan", {}));
    JsonArray variants;
    variants.push_back(variantJson(1.0, std::move(nodes)));
    bundle.paths = pathDocJson(std::move(variants));

    bundle.client =
        clientJson("coordinator", params.run.clientConnections,
                   constantLoadJson(params.run.qps),
                   requestBytesSpec(64.0));
    return bundle;
}

// ----------------------------------------------- power management app

ConfigBundle
powerTwoTierBundle(const PowerTwoTierParams& params)
{
    ConfigBundle bundle;
    bundle.options = makeOptions(params.run);

    NginxOptions nginx;
    nginx.serviceName = "nginx";
    nginx.workers = params.nginxWorkers;
    nginx.realProxyNoise = params.run.realProxyNoise;
    MemcachedOptions memcached;
    memcached.threads = params.memcachedThreads;
    memcached.realProxyNoise = params.run.realProxyNoise;
    bundle.services.push_back(nginxCacheFrontendJson(nginx));
    bundle.services.push_back(memcachedServiceJson(memcached));

    // Each tier on its own machine so per-tier DVFS is clean.
    JsonArray machines;
    machines.push_back(
        machineJson("fe_server", params.nginxWorkers + 2, 2));
    machines.push_back(
        machineJson("mc_server", params.memcachedThreads + 2, 2));
    if (params.dvfsSteps > 0) {
        JsonArray steps;
        const double lo = 1.2, hi = 2.6;
        for (int i = 0; i < params.dvfsSteps; ++i) {
            steps.emplace_back(lo + (hi - lo) * i /
                               (params.dvfsSteps - 1));
        }
        for (JsonValue& machine : machines)
            machine.asObject()["dvfs_ghz"] = JsonValue(steps);
    }
    bundle.machines = machinesJson(std::move(machines));

    JsonArray deploys;
    {
        JsonArray instances;
        instances.push_back(
            instanceJson("fe_server", params.nginxWorkers));
        deploys.push_back(serviceDeployJson(
            "nginx", std::move(instances),
            {{"memcached", 4 * params.nginxWorkers}}));
    }
    {
        JsonArray instances;
        instances.push_back(
            instanceJson("mc_server", params.memcachedThreads));
        deploys.push_back(
            serviceDeployJson("memcached", std::move(instances)));
    }
    bundle.graph = graphJson(std::move(deploys));

    JsonArray nodes;
    NodeOpts block;
    block.blockOnEnter = true;
    NodeOpts respond;
    respond.unblockService = "nginx";
    respond.requestBytes = 640;
    nodes.push_back(nodeJson(0, "nginx", "request", {1}, block));
    nodes.push_back(nodeJson(1, "memcached", "memcached_read", {2}));
    nodes.push_back(nodeJson(2, "nginx", "response", {}, respond));
    JsonArray variants;
    variants.push_back(variantJson(1.0, std::move(nodes)));
    bundle.paths = pathDocJson(std::move(variants));

    JsonValue load = JsonValue::makeObject();
    load.asObject()["type"] = "diurnal";
    load.asObject()["base_qps"] = params.baseQps;
    load.asObject()["amplitude_qps"] = params.amplitudeQps;
    load.asObject()["period_s"] = params.periodSeconds;
    bundle.client = clientJson("nginx", params.run.clientConnections,
                               std::move(load), requestBytesSpec());
    return bundle;
}

// ------------------------------------------------------ bundle export

void
writeBundle(const ConfigBundle& bundle, const std::string& directory)
{
    namespace fs = std::filesystem;
    const fs::path root(directory);
    fs::create_directories(root / "services");
    auto dump = [](const fs::path& path, const JsonValue& value) {
        std::ofstream stream(path);
        if (!stream)
            throw std::runtime_error("cannot write " + path.string());
        stream << json::writePretty(value) << '\n';
    };
    dump(root / "machines.json", bundle.machines);
    dump(root / "graph.json", bundle.graph);
    dump(root / "path.json", bundle.paths);
    dump(root / "client.json", bundle.client);
    JsonValue options = JsonValue::makeObject();
    options.asObject()["seed"] =
        static_cast<std::int64_t>(bundle.options.seed);
    options.asObject()["warmup_s"] = bundle.options.warmupSeconds;
    options.asObject()["duration_s"] = bundle.options.durationSeconds;
    dump(root / "options.json", options);
    for (const JsonValue& service : bundle.services) {
        dump(root / "services" /
                 (service.at("service_name").asString() + ".json"),
             service);
    }
}

}  // namespace models
}  // namespace uqsim
