#include "uqsim/hw/cluster.h"

#include <set>
#include <stdexcept>
#include <utility>

#include "uqsim/hw/flow_model.h"
#include "uqsim/hw/topology.h"
#include "uqsim/json/validation.h"

namespace uqsim {
namespace hw {

namespace {

using json::JsonError;
using json::JsonValue;

constexpr const char* kContext = "machines.json";

/** The machine fields shared by machines[] entries and the
 *  topology.hosts prototype (everything except the name). */
void
applyMachineFields(const JsonValue& doc, MachineConfig& config)
{
    config.cores = doc.getOr("cores", config.cores);
    config.irqCores = doc.getOr("irq_cores", 0);
    if (const JsonValue* steps = doc.find("dvfs_ghz")) {
        config.dvfsGhz.clear();
        for (const JsonValue& step : steps->asArray())
            config.dvfsGhz.push_back(step.asDouble());
    }
    config.irqPerPacket =
        doc.getOr("irq_per_packet_us", config.irqPerPacket * 1e6) * 1e-6;
    config.irqPerByte =
        doc.getOr("irq_per_byte_ns", config.irqPerByte * 1e9) * 1e-9;
    if (const JsonValue* disks = doc.find("disks")) {
        config.disks.clear();
        for (const JsonValue& disk : disks->asArray()) {
            json::requireKnownKeys(
                disk,
                {"name", "read_mbps", "write_mbps", "queue_depth"},
                "machines.json disks[]");
            Disk::Config spec;
            spec.name = disk.getOr("name", spec.name);
            // MB/s, decimal: 1 MB/s = 1e6 bytes/s.
            spec.readBytesPerSecond =
                disk.at("read_mbps").asDouble() * 1e6;
            spec.writeBytesPerSecond =
                disk.getOr("write_mbps", 0.0) * 1e6;
            spec.queueDepth = disk.getOr("queue_depth", 0);
            config.disks.push_back(std::move(spec));
        }
    }
}

ConstantModel::Config
constantConfigFromJson(const JsonValue& doc)
{
    ConstantModel::Config config;
    config.wireLatency =
        doc.getOr("wire_latency_us", config.wireLatency * 1e6) * 1e-6;
    config.loopbackLatency =
        doc.getOr("loopback_latency_us", config.loopbackLatency * 1e6) *
        1e-6;
    return config;
}

std::unique_ptr<Cluster>
fromJsonV1(Simulator& sim, const JsonValue& doc)
{
    json::requireKnownKeys(doc,
                           {"schema_version", "wire_latency_us",
                            "loopback_latency_us", "machines"},
                           kContext);
    if (sim.logger().enabled(LogLevel::Info)) {
        sim.logger().log(LogLevel::Info, sim.now(), "cluster",
                         "machines.json schema v1: constant network "
                         "model assumed");
    }
    auto cluster = std::make_unique<Cluster>(
        sim, ConstantModel::make(constantConfigFromJson(doc)));
    for (const JsonValue& machine : doc.at("machines").asArray())
        cluster->addMachine(machineConfigFromJson(machine));
    return cluster;
}

FlowModel::Config
flowConfigFromJson(const JsonValue& net)
{
    json::requireKnownKeys(net,
                           {"model", "loopback_latency_us",
                            "external_latency_us", "on_link_down"},
                           "machines.json network (flow model)");
    FlowModel::Config config;
    config.loopbackLatency =
        net.getOr("loopback_latency_us", config.loopbackLatency * 1e6) *
        1e-6;
    config.externalLatency =
        net.getOr("external_latency_us", config.externalLatency * 1e6) *
        1e-6;
    const std::string policy = net.getOr("on_link_down", "drop");
    if (policy == "drop") {
        config.onLinkDown = FlowModel::InFlightPolicy::Drop;
    } else if (policy == "stall") {
        config.onLinkDown = FlowModel::InFlightPolicy::Stall;
    } else {
        throw JsonError(
            "machines.json network: unknown on_link_down \"" + policy +
            "\" (expected \"drop\" or \"stall\")");
    }
    return config;
}

Topology
topologyFromJson(const JsonValue& doc, MachineConfig& prototype)
{
    json::requireKnownKeys(doc,
                           {"type", "arity", "oversubscription",
                            "hosts_per_edge", "host_gbps",
                            "fabric_gbps", "link_latency_us",
                            "backup_routes", "hosts"},
                           "machines.json topology");
    const std::string type = doc.getOr("type", "fat_tree");
    if (type != "fat_tree") {
        throw JsonError("machines.json topology: unknown type \"" +
                        type + "\" (supported: \"fat_tree\")");
    }
    FatTreeConfig config;
    config.arity = doc.getOr("arity", config.arity);
    config.oversubscription =
        doc.getOr("oversubscription", config.oversubscription);
    config.hostsPerEdge =
        doc.getOr("hosts_per_edge", config.hostsPerEdge);
    config.hostGbps = doc.getOr("host_gbps", config.hostGbps);
    config.fabricGbps = doc.getOr("fabric_gbps", config.fabricGbps);
    config.linkLatencySeconds =
        doc.getOr("link_latency_us", config.linkLatencySeconds * 1e6) *
        1e-6;
    config.backupRoutes =
        doc.getOr("backup_routes", config.backupRoutes);
    if (const JsonValue* hosts = doc.find("hosts")) {
        json::requireKnownKeys(*hosts,
                               {"prefix", "cores", "irq_cores",
                                "dvfs_ghz", "irq_per_packet_us",
                                "irq_per_byte_ns", "disks"},
                               "machines.json topology.hosts");
        config.hostPrefix = hosts->getOr("prefix", config.hostPrefix);
        applyMachineFields(*hosts, prototype);
    }
    return TopologyBuilder::fatTree(config);
}

std::unique_ptr<FlowModel>
flowFabricFromJson(const JsonValue& doc,
                   const FlowModel::Config& config)
{
    auto model = FlowModel::make(config);
    for (const JsonValue& link : doc.at("links").asArray()) {
        json::requireKnownKeys(link, {"name", "gbps", "latency_us"},
                               "machines.json links[]");
        FlowModel::LinkSpec spec;
        spec.name = link.at("name").asString();
        spec.bytesPerSecond =
            gbpsToBytesPerSecond(link.at("gbps").asDouble());
        spec.latencySeconds = link.getOr("latency_us", 0.0) * 1e-6;
        model->addLink(spec);
    }
    // Net ids follow the machines[] array order (== the insertion
    // order addMachine will use), so routes can be resolved before
    // the machines exist.
    std::map<std::string, int> ids;
    const auto& machines = doc.at("machines").asArray();
    for (std::size_t i = 0; i < machines.size(); ++i) {
        ids[machines[i].at("name").asString()] =
            static_cast<int>(i);
    }
    auto machineId = [&ids](const std::string& name) {
        auto it = ids.find(name);
        if (it == ids.end()) {
            throw JsonError(
                "machines.json routes[]: unknown machine \"" + name +
                "\"");
        }
        return it->second;
    };
    // A repeated (from, to) pair adds a *backup* candidate in file
    // order; the first entry stays the primary route.
    std::set<std::pair<int, int>> routed;
    auto install = [&model, &routed](int from, int to,
                                     std::vector<int> path) {
        if (routed.insert({from, to}).second)
            model->setRoute(from, to, std::move(path));
        else
            model->addBackupRoute(from, to, std::move(path));
    };
    for (const JsonValue& route : doc.at("routes").asArray()) {
        json::requireKnownKeys(route,
                               {"from", "to", "links", "symmetric"},
                               "machines.json routes[]");
        const int from = machineId(route.at("from").asString());
        const int to = machineId(route.at("to").asString());
        std::vector<int> path;
        for (const JsonValue& name : route.at("links").asArray()) {
            const int id = model->linkId(name.asString());
            if (id < 0) {
                throw JsonError(
                    "machines.json routes[]: unknown link \"" +
                    name.asString() + "\"");
            }
            path.push_back(id);
        }
        if (route.getOr("symmetric", false)) {
            // The same duplex links carry the reverse direction.
            std::vector<int> reversed(path.rbegin(), path.rend());
            install(to, from, std::move(reversed));
        }
        install(from, to, std::move(path));
    }
    return model;
}

std::unique_ptr<Cluster>
fromJsonV2(Simulator& sim, const JsonValue& doc)
{
    json::requireKnownKeys(doc,
                           {"schema_version", "network", "topology",
                            "links", "routes", "machines"},
                           kContext);
    const JsonValue* net = doc.find("network");
    const std::string modelName =
        net ? net->getOr("model", "constant")
            : std::string("constant");
    if (modelName == "constant") {
        if (doc.find("topology") != nullptr ||
            doc.find("links") != nullptr ||
            doc.find("routes") != nullptr) {
            throw JsonError(
                "machines.json: \"topology\", \"links\", and "
                "\"routes\" require \"network\": {\"model\": "
                "\"flow\"}");
        }
        ConstantModel::Config config;
        if (net != nullptr) {
            json::requireKnownKeys(
                *net,
                {"model", "wire_latency_us", "loopback_latency_us"},
                "machines.json network (constant model)");
            config = constantConfigFromJson(*net);
        }
        auto cluster = std::make_unique<Cluster>(
            sim, ConstantModel::make(config));
        for (const JsonValue& machine :
             doc.at("machines").asArray())
            cluster->addMachine(machineConfigFromJson(machine));
        return cluster;
    }
    if (modelName != "flow") {
        throw JsonError("machines.json network: unknown model \"" +
                        modelName +
                        "\" (expected \"constant\" or \"flow\")");
    }
    const FlowModel::Config config = flowConfigFromJson(*net);
    if (const JsonValue* topoDoc = doc.find("topology")) {
        if (doc.find("links") != nullptr ||
            doc.find("routes") != nullptr ||
            doc.find("machines") != nullptr) {
            throw JsonError(
                "machines.json: \"topology\" generates links, "
                "routes, and machines; remove the explicit sections");
        }
        MachineConfig prototype;
        const Topology topo = topologyFromJson(*topoDoc, prototype);
        auto cluster =
            std::make_unique<Cluster>(sim, topo.makeModel(config));
        topo.populateCluster(*cluster, prototype);
        return cluster;
    }
    if (doc.find("links") == nullptr ||
        doc.find("routes") == nullptr ||
        doc.find("machines") == nullptr) {
        throw JsonError(
            "machines.json flow model: need either a \"topology\" "
            "section or explicit \"links\", \"routes\", and "
            "\"machines\"");
    }
    auto cluster = std::make_unique<Cluster>(
        sim, flowFabricFromJson(doc, config));
    for (const JsonValue& machine : doc.at("machines").asArray())
        cluster->addMachine(machineConfigFromJson(machine));
    return cluster;
}

}  // namespace

Cluster::Cluster(Simulator& sim, std::unique_ptr<NetworkModel> model)
    : sim_(sim), network_(sim, std::move(model))
{
}

MachineConfig
machineConfigFromJson(const json::JsonValue& doc)
{
    json::requireKnownKeys(doc,
                           {"name", "cores", "irq_cores", "dvfs_ghz",
                            "irq_per_packet_us", "irq_per_byte_ns",
                            "disks"},
                           "machines.json machines[]");
    MachineConfig config;
    config.name = doc.at("name").asString();
    applyMachineFields(doc, config);
    return config;
}

std::unique_ptr<Cluster>
Cluster::fromJson(Simulator& sim, const json::JsonValue& doc)
{
    const int version = doc.getOr("schema_version", 1);
    if (version == 1)
        return fromJsonV1(sim, doc);
    if (version == 2)
        return fromJsonV2(sim, doc);
    throw json::JsonError("machines.json: unsupported schema_version " +
                          std::to_string(version) +
                          " (supported: 1, 2)");
}

Machine&
Cluster::addMachine(const MachineConfig& config)
{
    if (machines_.count(config.name) != 0) {
        throw std::invalid_argument("duplicate machine name: " +
                                    config.name);
    }
    auto machine = std::make_unique<Machine>(sim_, config);
    machine->setNetId(static_cast<int>(order_.size()));
    Machine& ref = *machine;
    machines_.emplace(config.name, std::move(machine));
    order_.push_back(&ref);
    network_.model().onMachineAdded(ref);
    return ref;
}

Machine&
Cluster::machine(const std::string& name)
{
    auto it = machines_.find(name);
    if (it == machines_.end())
        throw std::out_of_range("unknown machine: " + name);
    return *it->second;
}

const Machine&
Cluster::machine(const std::string& name) const
{
    auto it = machines_.find(name);
    if (it == machines_.end())
        throw std::out_of_range("unknown machine: " + name);
    return *it->second;
}

bool
Cluster::hasMachine(const std::string& name) const
{
    return machines_.count(name) != 0;
}

}  // namespace hw
}  // namespace uqsim
