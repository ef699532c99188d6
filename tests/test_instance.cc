/**
 * @file
 * Behavioral tests of MicroserviceInstance: stage traversal,
 * batching amortization, worker/ core occupancy, disk blocking,
 * context switching, scheduling policies, and path sampling.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "uqsim/core/service/instance.h"
#include "uqsim/random/distributions.h"

namespace uqsim {
namespace {

StageConfig
makeStage(int id, const char* name, QueueType type, bool batching,
          int limit, double base_us, double per_job_us = 0.0,
          StageResource resource = StageResource::Cpu)
{
    StageConfig stage;
    stage.id = id;
    stage.name = name;
    stage.queueType = type;
    stage.batching = batching;
    stage.batchLimit = limit;
    stage.time = ServiceTimeModel(
        std::make_shared<random::DeterministicDistribution>(base_us *
                                                            1e-6),
        per_job_us * 1e-6);
    stage.resource = resource;
    return stage;
}

/** epoll(2us + 1us/job, N=8) -> proc(10us) -> send(1us). */
ServiceModelPtr
eventLoopModel(int threads = 1)
{
    std::vector<StageConfig> stages;
    stages.push_back(
        makeStage(0, "epoll", QueueType::Epoll, true, 8, 2.0, 1.0));
    stages.push_back(
        makeStage(1, "proc", QueueType::Single, false, 0, 10.0));
    stages.push_back(
        makeStage(2, "send", QueueType::Single, false, 0, 1.0));
    PathConfig path;
    path.id = 0;
    path.name = "serve";
    path.stageIds = {0, 1, 2};
    auto model = std::make_shared<ServiceModel>(
        "svc", std::move(stages), std::vector<PathConfig>{path});
    model->setDefaultThreads(threads);
    return model;
}

struct Harness {
    explicit Harness(ServiceModelPtr model, InstanceConfig config = {})
        : sim(1),
          instance(sim, std::move(model), "svc.0", nullptr, config)
    {
        instance.setOnJobDone([this](JobPtr job) {
            completions.push_back(
                {job->id, sim.now() - job->created});
        });
    }

    JobPtr
    submit(ConnectionId conn, int path = 0)
    {
        JobPtr job = jobs.createRoot(sim.now(), 100);
        job->connectionId = conn;
        job->execPathId = path;
        JobPtr copy = job;
        instance.accept(std::move(copy));
        return job;
    }

    Simulator sim;
    MicroserviceInstance instance;
    JobFactory jobs;
    std::vector<std::pair<JobId, SimTime>> completions;
};

TEST(Instance, SingleJobTraversesAllStages)
{
    Harness h(eventLoopModel());
    h.submit(1);
    h.sim.run();
    ASSERT_EQ(h.completions.size(), 1u);
    // epoll(2+1) + proc(10) + send(1) = 14us.
    EXPECT_EQ(h.completions[0].second, 14 * kMicrosecond);
    EXPECT_EQ(h.instance.completedJobs(), 1u);
    EXPECT_EQ(h.instance.queuedJobs(), 0u);
    EXPECT_EQ(h.instance.idleThreads(), 1);
}

TEST(Instance, EpollBatchingAmortizesAcrossJobs)
{
    // Jobs 2 and 3 arrive while the worker is busy with job 1, so
    // the next poll returns both in one epoll execution whose cost
    // (2 + 2*1 us) is amortized across them.
    //   job1: epoll 0-3, proc 3-13, send 13-14
    //   epoll{2,3}: 14-18; proc2 18-28; send2 28-29; proc3 29-39;
    //   send3 39-40.
    Harness h(eventLoopModel());
    h.submit(1);
    h.sim.scheduleAt(5 * kMicrosecond, [&] {
        h.submit(2);
        h.submit(3);
    });
    h.sim.run();
    ASSERT_EQ(h.completions.size(), 3u);
    EXPECT_EQ(h.sim.now(), 40 * kMicrosecond);
    // j1: epoll+proc+send; j2/j3: shared epoll + 2x(proc+send).
    EXPECT_EQ(h.instance.executedBatches(), 8u);
    // Without batching the same work would take 3 x 14 = 42us.
}

TEST(Instance, DrainPolicyFinishesBeforeRepolling)
{
    // With drain scheduling, a job popped by epoll is fully
    // processed before the worker polls again, so job 1 completes
    // before job 2 when job 2 arrives during job 1's processing.
    Harness h(eventLoopModel());
    JobPtr first = h.submit(1);
    h.sim.scheduleAt(3 * kMicrosecond, [&] { h.submit(2); });
    h.sim.run();
    ASSERT_EQ(h.completions.size(), 2u);
    EXPECT_EQ(h.completions[0].first, first->id);
}

TEST(Instance, StageOrderPolicyStillCompletes)
{
    InstanceConfig config;
    config.policy = SchedulingPolicy::StageOrder;
    Harness h(eventLoopModel(), config);
    h.submit(1);
    h.submit(2);
    h.sim.run();
    EXPECT_EQ(h.completions.size(), 2u);
}

TEST(Instance, ThreadsProcessInParallel)
{
    // Two workers, two jobs on separate connections: processing
    // overlaps.
    Harness h(eventLoopModel(2));
    h.submit(1);
    h.submit(2);
    h.sim.run();
    ASSERT_EQ(h.completions.size(), 2u);
    // Worker A epolls both (4us), then A and B each process one.
    EXPECT_LT(h.sim.now(), 26 * kMicrosecond);
}

TEST(Instance, ThroughputScalesWithThreads)
{
    auto run_with_threads = [](int threads) {
        Harness h(eventLoopModel(threads));
        for (int i = 0; i < 200; ++i)
            h.submit(i % 32);
        h.sim.run();
        return h.sim.now();
    };
    const SimTime one = run_with_threads(1);
    const SimTime four = run_with_threads(4);
    EXPECT_LT(four * 2, one);  // at least 2x speedup with 4 threads
}

TEST(Instance, OversubscriptionAddsContextSwitch)
{
    // 2 threads on 1 core: context switch overhead applies.
    auto model = eventLoopModel(2);
    model->setContextSwitchSeconds(5e-6);
    InstanceConfig config;
    config.cores = 1;
    Harness h(std::move(model), config);
    h.submit(1);
    h.sim.run();
    // 3 batch executions x (base + 5us ctx) = 14 + 15 = 29us.
    EXPECT_EQ(h.sim.now(), 29 * kMicrosecond);
}

TEST(Instance, SimpleModelHasWorkerPerCore)
{
    std::vector<StageConfig> stages;
    stages.push_back(
        makeStage(0, "proc", QueueType::Single, false, 0, 10.0));
    PathConfig path;
    path.id = 0;
    path.stageIds = {0};
    auto model = std::make_shared<ServiceModel>(
        "leaf", std::move(stages), std::vector<PathConfig>{path});
    model->setExecutionModel(ExecutionModel::Simple);
    InstanceConfig config;
    config.cores = 3;
    Harness h(std::move(model), config);
    EXPECT_EQ(h.instance.threads(), 3);
    for (int i = 0; i < 3; ++i)
        h.submit(i);
    h.sim.run();
    EXPECT_EQ(h.sim.now(), 10 * kMicrosecond);  // all in parallel
}

TEST(Instance, DiskStageReleasesCpu)
{
    // proc(10us, cpu) -> disk(100us, disk) with 2 threads, 1 core,
    // 1 disk channel: while job A waits on disk, the core is free
    // for job B's CPU stage.
    std::vector<StageConfig> stages;
    stages.push_back(
        makeStage(0, "proc", QueueType::Single, false, 0, 10.0));
    stages.push_back(makeStage(1, "disk", QueueType::Single, false, 0,
                               100.0, 0.0, StageResource::Disk));
    PathConfig path;
    path.id = 0;
    path.stageIds = {0, 1};
    auto model = std::make_shared<ServiceModel>(
        "db", std::move(stages), std::vector<PathConfig>{path});
    model->setDefaultThreads(2);
    model->setContextSwitchSeconds(0.0);
    InstanceConfig config;
    config.cores = 1;
    config.diskChannels = 1;
    Harness h(std::move(model), config);
    h.submit(1);
    h.submit(2);
    h.sim.run();
    ASSERT_EQ(h.completions.size(), 2u);
    // Serial CPU (10+10) but disk B starts when A's disk ends:
    // A: cpu 0-10, disk 10-110.  B: cpu 10-20, disk 110-210.
    EXPECT_EQ(h.sim.now(), 210 * kMicrosecond);
}

TEST(Instance, DiskStageWithoutChannelsThrows)
{
    std::vector<StageConfig> stages;
    stages.push_back(makeStage(0, "disk", QueueType::Single, false, 0,
                               100.0, 0.0, StageResource::Disk));
    PathConfig path;
    path.id = 0;
    path.stageIds = {0};
    auto model = std::make_shared<ServiceModel>(
        "db", std::move(stages), std::vector<PathConfig>{path});
    Simulator sim;
    EXPECT_THROW(MicroserviceInstance(sim, model, "db.0", nullptr, {}),
                 std::invalid_argument);
}

TEST(Instance, SamplesPathWhenUnpinned)
{
    std::vector<StageConfig> stages;
    stages.push_back(
        makeStage(0, "fast", QueueType::Single, false, 0, 1.0));
    stages.push_back(
        makeStage(1, "slow", QueueType::Single, false, 0, 100.0));
    PathConfig fast, slow;
    fast.id = 0;
    fast.name = "fast";
    fast.stageIds = {0};
    fast.probability = 0.8;
    slow.id = 1;
    slow.name = "slow";
    slow.stageIds = {1};
    slow.probability = 0.2;
    auto model = std::make_shared<ServiceModel>(
        "mix", std::move(stages),
        std::vector<PathConfig>{fast, slow});
    Harness h(std::move(model));
    int slow_jobs = 0;
    h.instance.setOnJobDone([&](JobPtr job) {
        if (job->execPathId == 1)
            ++slow_jobs;
    });
    for (int i = 0; i < 2000; ++i) {
        JobPtr job = h.jobs.createRoot(h.sim.now(), 100);
        job->connectionId = i % 8;
        job->execPathId = -1;  // sample
        h.instance.accept(std::move(job));
    }
    h.sim.run();
    EXPECT_NEAR(slow_jobs / 2000.0, 0.2, 0.04);
}

TEST(Instance, UnblockTriggersScheduling)
{
    Harness h(eventLoopModel());
    // Block connection 1 on behalf of an unrelated root; the job
    // delivered afterwards must wait.
    h.instance.connections().block(1, 424242);
    JobPtr blocked = h.submit(1);
    h.sim.run();
    EXPECT_TRUE(h.completions.empty());
    EXPECT_EQ(h.instance.queuedJobs(), 1u);
    // Unblocking must wake the instance.
    h.instance.connections().unblock(1, 424242);
    h.sim.run();
    ASSERT_EQ(h.completions.size(), 1u);
    EXPECT_EQ(h.completions[0].first, blocked->id);
}

TEST(Instance, CpuUtilizationTracksBusyTime)
{
    Harness h(eventLoopModel());
    h.submit(1);
    h.sim.run();
    // Busy 14us of 14us elapsed on 1 core.
    EXPECT_NEAR(h.instance.cpuUtilization(), 1.0, 1e-9);
}

TEST(Instance, BatchSizeStatsRecorded)
{
    Harness h(eventLoopModel());
    h.submit(1);
    h.sim.scheduleAt(5 * kMicrosecond, [&] {
        h.submit(2);
        h.submit(3);
    });
    h.sim.run();
    // The second poll returns a batch of 2.
    EXPECT_DOUBLE_EQ(h.instance.batchSizeStats().max(), 2.0);
}

/** Submits @p jobs on four connections, 3 us apart, and runs until
 *  they drain. */
void
runJobs(Harness& h, int jobs)
{
    const SimTime start = h.sim.now();
    for (int i = 0; i < jobs; ++i) {
        h.sim.scheduleAt(start + i * 3 * kMicrosecond, [&h, i] {
            h.submit(static_cast<ConnectionId>(1 + i % 4));
        });
    }
    h.sim.run();
}

TEST(Instance, BatchSlotsStayAtPeakConcurrency)
{
    // A batch holds a worker from start to completion, so however
    // many batches run, the slots stay at most the thread count.
    Harness h(eventLoopModel(2));
    runJobs(h, 40);
    const std::size_t slots = h.instance.batchSlots();
    EXPECT_GE(slots, 1u);
    EXPECT_LE(slots, static_cast<std::size_t>(h.instance.threads()));
    const std::uint64_t batches = h.instance.executedBatches();
    runJobs(h, 400);
    EXPECT_EQ(h.completions.size(), 440u);
    EXPECT_GT(h.instance.executedBatches(), 10 * batches);
    EXPECT_EQ(h.instance.batchSlots(), slots);
}

TEST(Instance, CrashWithBatchesInFlightKeepsSlotsBounded)
{
    Harness h(eventLoopModel(3));
    std::vector<JobPtr> killed;
    h.instance.setOnJobFailed([&](JobPtr job, fault::FailReason) {
        killed.push_back(std::move(job));
    });
    // Two workers are in proc (3-13 us) when the crash hits.  Job 4
    // starts on the third worker while their dead batches are still
    // running, so it must not share a slot with them: their empty
    // completions at 13 us would otherwise cut its proc stage short.
    h.submit(1);
    h.submit(2);
    h.sim.scheduleAt(5 * kMicrosecond, [&] { h.instance.crash(); });
    h.sim.scheduleAt(6 * kMicrosecond, [&] {
        h.instance.recover();
        h.submit(4);
    });
    h.sim.run();
    EXPECT_EQ(killed.size(), 2u);
    EXPECT_EQ(h.instance.killedJobs(), 2u);
    ASSERT_EQ(h.completions.size(), 1u);
    EXPECT_EQ(h.completions[0].second, 14 * kMicrosecond);
    EXPECT_EQ(h.instance.idleThreads(), 3);
    const std::size_t slots = h.instance.batchSlots();
    EXPECT_LE(slots, static_cast<std::size_t>(h.instance.threads()));

    runJobs(h, 400);
    EXPECT_EQ(h.completions.size(), 401u);
    EXPECT_EQ(h.instance.batchSlots(), slots);
}

TEST(Instance, RejectsNullAndBadConfig)
{
    Simulator sim;
    EXPECT_THROW(
        MicroserviceInstance(sim, nullptr, "x", nullptr, {}),
        std::invalid_argument);
    Harness h(eventLoopModel());
    EXPECT_THROW(h.instance.accept(nullptr), std::invalid_argument);
    EXPECT_THROW(h.instance.queuedAtStage(99), std::out_of_range);
}

}  // namespace
}  // namespace uqsim
