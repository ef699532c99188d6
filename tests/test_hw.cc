/**
 * @file
 * Unit tests for the hardware model: DVFS, core sets, machines,
 * IRQ service, network, cluster config.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "uqsim/hw/cluster.h"
#include "uqsim/json/json_parser.h"
#include "uqsim/random/distributions.h"

namespace uqsim {
namespace hw {
namespace {

// ----------------------------------------------------------------- DVFS

TEST(DvfsTable, PaperDefaultRange)
{
    const DvfsTable table = DvfsTable::paperDefault();
    EXPECT_EQ(table.stepCount(), 8u);
    EXPECT_DOUBLE_EQ(table.lowest(), 1.2);
    EXPECT_DOUBLE_EQ(table.nominal(), 2.6);
}

TEST(DvfsTable, Validation)
{
    EXPECT_THROW(DvfsTable({}), std::invalid_argument);
    EXPECT_THROW(DvfsTable({2.0, 1.0}), std::invalid_argument);
    EXPECT_THROW(DvfsTable({0.0, 1.0}), std::invalid_argument);
    EXPECT_THROW(DvfsTable({1.0}).frequencyAt(1), std::out_of_range);
}

TEST(DvfsTable, ClosestIndex)
{
    const DvfsTable table({1.2, 1.8, 2.6});
    EXPECT_EQ(table.closestIndex(1.2), 0u);
    EXPECT_EQ(table.closestIndex(1.4), 0u);
    EXPECT_EQ(table.closestIndex(1.7), 1u);
    EXPECT_EQ(table.closestIndex(3.0), 2u);
}

TEST(DvfsDomain, StartsAtNominal)
{
    DvfsDomain domain(DvfsTable::paperDefault());
    EXPECT_TRUE(domain.atNominal());
    EXPECT_DOUBLE_EQ(domain.frequency(), 2.6);
    EXPECT_DOUBLE_EQ(domain.slowdown(), 1.0);
}

TEST(DvfsDomain, SteppingAndSlowdown)
{
    DvfsDomain domain(DvfsTable({1.3, 2.6}));
    EXPECT_TRUE(domain.stepDown());
    EXPECT_DOUBLE_EQ(domain.frequency(), 1.3);
    EXPECT_DOUBLE_EQ(domain.slowdown(), 2.0);
    EXPECT_TRUE(domain.atLowest());
    EXPECT_FALSE(domain.stepDown());
    EXPECT_TRUE(domain.stepUp());
    EXPECT_FALSE(domain.stepUp());
}

TEST(DvfsDomain, ObserversFireOnChange)
{
    DvfsDomain domain(DvfsTable::paperDefault());
    int changes = 0;
    domain.onChange([&](const DvfsDomain&) { ++changes; });
    domain.stepDown();
    domain.setFrequency(1.2);
    domain.setFrequency(1.2);  // no-op: already closest to 1.2
    EXPECT_EQ(changes, 2);
}

// -------------------------------------------------------------- CoreSet

TEST(CoreSet, AcquireReleaseAccounting)
{
    CoreSet cores(2, "test");
    EXPECT_TRUE(cores.tryAcquire(0));
    EXPECT_TRUE(cores.tryAcquire(0));
    EXPECT_FALSE(cores.tryAcquire(0));
    EXPECT_EQ(cores.inUse(), 2);
    cores.release(kSecond);
    EXPECT_EQ(cores.available(), 1);
    EXPECT_THROW(
        [&] {
            cores.release(kSecond);
            cores.release(kSecond);
        }(),
        std::logic_error);
}

TEST(CoreSet, UtilizationIntegral)
{
    CoreSet cores(2, "test");
    ASSERT_TRUE(cores.tryAcquire(0));
    cores.release(kSecond);  // 1 core busy for 1s of 2 core-seconds
    EXPECT_NEAR(cores.utilization(kSecond), 0.5, 1e-9);
    EXPECT_NEAR(cores.busyCoreSeconds(kSecond), 1.0, 1e-9);
    // With no further activity utilization decays.
    EXPECT_NEAR(cores.utilization(2 * kSecond), 0.25, 1e-9);
}

TEST(CoreSet, InvalidCapacityThrows)
{
    EXPECT_THROW(CoreSet(0), std::invalid_argument);
}

// --------------------------------------------------------------- Machine

TEST(Machine, AllocationBookkeeping)
{
    Simulator sim;
    MachineConfig config;
    config.name = "m0";
    config.cores = 8;
    config.irqCores = 2;
    Machine machine(sim, config);
    EXPECT_EQ(machine.allocatedCores(), 2);  // irq cores
    CoreSet& a = machine.allocateCores(4, "svc");
    EXPECT_EQ(a.capacity(), 4);
    EXPECT_EQ(machine.freeCores(), 2);
    EXPECT_THROW(machine.allocateCores(3, "too-much"),
                 std::runtime_error);
    machine.allocateCores(2, "rest");
    EXPECT_EQ(machine.freeCores(), 0);
}

TEST(Machine, IrqOptional)
{
    Simulator sim;
    MachineConfig config;
    config.cores = 4;
    config.irqCores = 0;
    Machine machine(sim, config);
    EXPECT_EQ(machine.irq(), nullptr);
}

TEST(Machine, IrqCoresCannotExceedTotal)
{
    Simulator sim;
    MachineConfig config;
    config.cores = 2;
    config.irqCores = 4;
    EXPECT_THROW(Machine(sim, config), std::invalid_argument);
}

TEST(Machine, ExtraDvfsDomains)
{
    Simulator sim;
    MachineConfig config;
    Machine machine(sim, config);
    DvfsDomain& own = machine.makeDvfsDomain("tier");
    own.stepDown();
    EXPECT_LT(own.frequency(), machine.dvfs().frequency());
}

// ------------------------------------------------------------ IrqService

TEST(IrqService, ProcessesPacketsInOrder)
{
    Simulator sim;
    IrqService irq(sim, "irq", 1,
                   std::make_shared<random::DeterministicDistribution>(
                       1e-6),
                   0.0, nullptr);
    std::vector<int> order;
    irq.process(100, [&] { order.push_back(1); });
    irq.process(100, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(irq.processedPackets(), 2u);
    EXPECT_EQ(sim.now(), 2 * kMicrosecond);
}

TEST(IrqService, ParallelCores)
{
    Simulator sim;
    IrqService irq(sim, "irq", 2,
                   std::make_shared<random::DeterministicDistribution>(
                       1e-6),
                   0.0, nullptr);
    int done = 0;
    irq.process(0, [&] { ++done; });
    irq.process(0, [&] { ++done; });
    sim.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(sim.now(), kMicrosecond);  // processed in parallel
}

TEST(IrqService, PerByteCost)
{
    Simulator sim;
    IrqService irq(sim, "irq", 1,
                   std::make_shared<random::DeterministicDistribution>(
                       1e-6),
                   1e-9, nullptr);
    irq.process(1000, [] {});
    sim.run();
    EXPECT_EQ(sim.now(), 2 * kMicrosecond);  // 1us base + 1000 * 1ns
}

TEST(IrqService, DvfsScalesServiceTime)
{
    Simulator sim;
    DvfsDomain domain(DvfsTable({1.3, 2.6}));
    domain.stepDown();  // 2x slowdown
    IrqService irq(sim, "irq", 1,
                   std::make_shared<random::DeterministicDistribution>(
                       1e-6),
                   0.0, &domain);
    irq.process(0, [] {});
    sim.run();
    EXPECT_EQ(sim.now(), 2 * kMicrosecond);
}

// --------------------------------------------------------------- Network

class NetworkTest : public ::testing::Test {
  protected:
    NetworkTest()
    {
        MachineConfig config;
        config.cores = 4;
        config.irqCores = 1;
        config.irqPerPacket = 1e-6;
        config.name = "a";
        a_ = std::make_unique<Machine>(sim_, config);
        config.name = "b";
        b_ = std::make_unique<Machine>(sim_, config);
    }

    Simulator sim_;
    ConstantModel::Config net_{20e-6, 5e-6};
    std::unique_ptr<Machine> a_;
    std::unique_ptr<Machine> b_;
};

TEST_F(NetworkTest, CrossMachinePaysIrqTwicePlusWire)
{
    Network network(sim_, ConstantModel::make(net_));
    SimTime done = -1;
    network.transfer(a_.get(), b_.get(), 0, [&] { done = sim_.now(); });
    sim_.run();
    // irq(exp mean 1us is deterministic? no: exponential). Just check
    // it is at least the wire latency and both irq services ran.
    EXPECT_GE(done, secondsToSimTime(20e-6));
    EXPECT_EQ(a_->irq()->processedPackets(), 1u);
    EXPECT_EQ(b_->irq()->processedPackets(), 1u);
    EXPECT_EQ(network.transferCount(), 1u);
}

TEST_F(NetworkTest, LoopbackSkipsWire)
{
    Network network(sim_, ConstantModel::make(net_));
    SimTime done = -1;
    network.transfer(a_.get(), a_.get(), 0, [&] { done = sim_.now(); });
    sim_.run();
    EXPECT_GE(done, secondsToSimTime(5e-6));
    EXPECT_LT(done, secondsToSimTime(20e-6));
    EXPECT_EQ(a_->irq()->processedPackets(), 1u);
}

TEST_F(NetworkTest, ClientLegPaysWireOnly)
{
    Network network(sim_, ConstantModel::make(net_));
    SimTime done = -1;
    network.transfer(nullptr, nullptr, 0, [&] { done = sim_.now(); });
    sim_.run();
    EXPECT_EQ(done, secondsToSimTime(20e-6));
}

// --------------------------------------------------------------- Cluster

TEST(Cluster, FromJsonBuildsMachines)
{
    Simulator sim;
    const auto doc = json::parse(R"({
        "wire_latency_us": 15,
        "loopback_latency_us": 3,
        "machines": [
            {"name": "s0", "cores": 20, "irq_cores": 4,
             "dvfs_ghz": [1.2, 2.6], "irq_per_packet_us": 2.0},
            {"name": "s1", "cores": 8}
        ]})");
    auto cluster = hw::Cluster::fromJson(sim, doc);
    EXPECT_EQ(cluster->machineCount(), 2u);
    EXPECT_TRUE(cluster->hasMachine("s0"));
    EXPECT_FALSE(cluster->hasMachine("s9"));
    Machine& s0 = cluster->machine("s0");
    EXPECT_EQ(s0.totalCores(), 20);
    EXPECT_NE(s0.irq(), nullptr);
    EXPECT_EQ(s0.dvfs().table().stepCount(), 2u);
    EXPECT_EQ(cluster->machine("s1").irq(), nullptr);
    EXPECT_THROW(cluster->machine("nope"), std::out_of_range);
}

TEST(Cluster, DuplicateMachineNameThrows)
{
    Simulator sim;
    Cluster cluster(sim);
    MachineConfig config;
    config.name = "dup";
    cluster.addMachine(config);
    EXPECT_THROW(cluster.addMachine(config), std::invalid_argument);
}

}  // namespace
}  // namespace hw
}  // namespace uqsim
