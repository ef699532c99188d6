#ifndef UQSIM_HW_CLUSTER_H_
#define UQSIM_HW_CLUSTER_H_

/**
 * @file
 * The cluster: all machines plus the network connecting them.  Built
 * programmatically or from the `machines.json` input (Table I).
 *
 * Schema v1 (legacy; loads unchanged via ConstantModel):
 *
 *   {
 *     "wire_latency_us": 20,
 *     "loopback_latency_us": 5,
 *     "machines": [
 *       {"name": "server0", "cores": 20, "irq_cores": 4,
 *        "dvfs_ghz": [1.2, 1.4, ..., 2.6],
 *        "irq_per_packet_us": 2.0, "irq_per_byte_ns": 0.0}
 *     ]
 *   }
 *
 * Schema v2 ("schema_version": 2) adds a "network" section that
 * selects the wire model and, for the flow model, either a
 * generated "topology" section (fat tree) or explicit
 * "links"/"routes"/"machines" sections.  Full schema:
 * docs/FORMATS.md.
 */

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "uqsim/core/engine/simulator.h"
#include "uqsim/hw/machine.h"
#include "uqsim/hw/network.h"
#include "uqsim/json/json_value.h"

namespace uqsim {
namespace hw {

/** All machines and the network. */
class Cluster {
  public:
    /** Builds an empty cluster around @p model; nullptr selects a
     *  default ConstantModel. */
    explicit Cluster(Simulator& sim,
                     std::unique_ptr<NetworkModel> model = nullptr);

    /** Builds a cluster from a parsed machines.json document
     *  (schema v1 or v2, see file comment). */
    static std::unique_ptr<Cluster> fromJson(Simulator& sim,
                                             const json::JsonValue& doc);

    /** Adds one machine; the name must be unique.  Assigns the
     *  machine's net id (insertion order) and notifies the network
     *  model. */
    Machine& addMachine(const MachineConfig& config);

    /** Looks a machine up by name; throws when absent. */
    Machine& machine(const std::string& name);
    const Machine& machine(const std::string& name) const;

    /** True when a machine with @p name exists. */
    bool hasMachine(const std::string& name) const;

    std::size_t machineCount() const { return order_.size(); }

    /** Machines in insertion order. */
    const std::vector<Machine*>& machines() const { return order_; }

    Network& network() { return network_; }
    Simulator& sim() { return sim_; }

  private:
    Simulator& sim_;
    Network network_;
    std::map<std::string, std::unique_ptr<Machine>> machines_;
    std::vector<Machine*> order_;
};

/** Parses one machine object from machines.json; rejects unknown
 *  keys with a did-you-mean suggestion. */
MachineConfig machineConfigFromJson(const json::JsonValue& doc);

}  // namespace hw
}  // namespace uqsim

#endif  // UQSIM_HW_CLUSTER_H_
