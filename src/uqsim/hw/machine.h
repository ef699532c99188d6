#ifndef UQSIM_HW_MACHINE_H_
#define UQSIM_HW_MACHINE_H_

/**
 * @file
 * Server machine model: a named pool of cores, a DVFS domain, and an
 * optional IRQ (network processing) service.  Instances allocate
 * dedicated core sets from a machine, matching the paper's pinned
 * deployment.
 */

#include <memory>
#include <string>
#include <vector>

#include "uqsim/core/engine/simulator.h"
#include "uqsim/hw/core_set.h"
#include "uqsim/hw/disk.h"
#include "uqsim/hw/dvfs.h"
#include "uqsim/hw/irq_service.h"
#include "uqsim/random/distribution.h"

namespace uqsim {
namespace hw {

/** Static description of one machine. */
struct MachineConfig {
    std::string name = "server";
    int cores = 20;
    /** Soft-irq cores; 0 disables the per-machine network service. */
    int irqCores = 0;
    /** DVFS steps in GHz (ascending). */
    std::vector<double> dvfsGhz = {1.2, 1.4, 1.6, 1.8,
                                   2.0, 2.2, 2.4, 2.6};
    /** Base interrupt processing time per packet (seconds). */
    double irqPerPacket = 2e-6;
    /** Additional interrupt processing per payload byte (seconds). */
    double irqPerByte = 0.0;
    /** Attached shared-bandwidth disks (names unique per machine);
     *  empty = no storage tier, disk stages fall back to the legacy
     *  per-instance channel model. */
    std::vector<Disk::Config> disks{};
};

/** One server. */
class Machine {
  public:
    Machine(Simulator& sim, const MachineConfig& config);

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    const std::string& name() const { return name_; }

    /** Dense id in cluster insertion order, used by routed network
     *  models to key routing tables; -1 until the machine joins a
     *  cluster.  Assigned by Cluster::addMachine. */
    int netId() const { return netId_; }
    void setNetId(int id) { netId_ = id; }

    int totalCores() const { return totalCores_; }
    int allocatedCores() const { return allocatedCores_; }
    int freeCores() const { return totalCores_ - allocatedCores_; }

    /** The machine-wide frequency domain. */
    DvfsDomain& dvfs() { return dvfs_; }
    const DvfsDomain& dvfs() const { return dvfs_; }

    /**
     * Creates an additional frequency domain on this machine (for
     * per-tier DVFS control when tiers share a server).  The domain
     * is owned by the machine.
     */
    DvfsDomain& makeDvfsDomain(const std::string& label);

    /** The network processing service, or nullptr when irqCores=0. */
    IrqService* irq() { return irq_.get(); }

    /** The named disk, or nullptr when absent. */
    Disk* disk(const std::string& name);
    /** The first configured disk, or nullptr when the machine has
     *  none (instances with unnamed disk stages bind to it). */
    Disk* defaultDisk();
    /** Attached disks in configuration order. */
    const std::vector<std::unique_ptr<Disk>>& disks() const
    {
        return disks_;
    }

    /**
     * Allocates @p count dedicated cores.  The returned CoreSet is
     * owned by the machine and lives as long as it.
     *
     * @throws std::runtime_error when not enough cores remain.
     */
    CoreSet& allocateCores(int count, const std::string& label);

  private:
    Simulator& sim_;
    std::string name_;
    int netId_ = -1;
    int totalCores_;
    int allocatedCores_ = 0;
    DvfsDomain dvfs_;
    std::vector<std::unique_ptr<DvfsDomain>> extraDomains_;
    std::unique_ptr<IrqService> irq_;
    std::vector<std::unique_ptr<CoreSet>> allocations_;
    std::vector<std::unique_ptr<Disk>> disks_;
};

}  // namespace hw
}  // namespace uqsim

#endif  // UQSIM_HW_MACHINE_H_
