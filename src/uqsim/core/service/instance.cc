#include "uqsim/core/service/instance.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace uqsim {

namespace {

int
resolveThreads(const ServiceModelPtr& model, const InstanceConfig& config)
{
    if (!model)
        throw std::invalid_argument("instance requires a service model");
    return config.threads > 0 ? config.threads
                              : model->defaultThreads();
}

}  // namespace

MicroserviceInstance::MicroserviceInstance(Simulator& sim,
                                           ServiceModelPtr model,
                                           std::string name,
                                           hw::Machine* machine,
                                           const InstanceConfig& config)
    : sim_(sim), model_(std::move(model)), name_(std::move(name)),
      machine_(machine), threads_(resolveThreads(model_, config)),
      idleThreads_(threads_), baseThreads_(threads_),
      peakThreads_(threads_), policy_(config.policy),
      rng_(sim.masterSeed(), name_),
      queueCapacity_(config.queueCapacity)
{
    int cores = config.cores > 0 ? config.cores : threads_;
    if (model_->executionModel() == ExecutionModel::Simple) {
        // The simple model dispatches jobs directly onto cores: the
        // worker count equals the core count and there is no
        // context-switch overhead.
        threads_ = cores;
        idleThreads_ = cores;
        baseThreads_ = cores;
        peakThreads_ = cores;
    }
    coreCapacity_ = cores;

    if (machine_ != nullptr) {
        cpuCores_ = &machine_->allocateCores(cores, name_);
        if (config.ownDvfsDomain) {
            dvfs_ = &machine_->makeDvfsDomain(name_);
        } else {
            dvfs_ = &machine_->dvfs();
        }
    } else {
        ownedCpu_ = std::make_unique<hw::CoreSet>(cores, name_ + "/cpu");
        cpuCores_ = ownedCpu_.get();
        ownedDvfs_ = std::make_unique<hw::DvfsDomain>(
            hw::DvfsTable::paperDefault(), name_ + "/dvfs");
        dvfs_ = ownedDvfs_.get();
    }

    // Disk stages bind to a machine-attached shared-bandwidth disk
    // when one exists; otherwise they fall back to the legacy
    // per-instance channel model.  -1 inherits the model's default
    // channel count, while an explicit 0 disables channels (and
    // trips the validation below for disk-using models).
    if (!config.disk.empty()) {
        if (machine_ == nullptr) {
            throw std::invalid_argument(
                "instance \"" + name_ +
                "\" names disk \"" + config.disk +
                "\" but runs detached from any machine");
        }
        machineDisk_ = machine_->disk(config.disk);
        if (machineDisk_ == nullptr) {
            throw std::invalid_argument(
                "instance \"" + name_ + "\": machine \"" +
                machine_->name() + "\" has no disk \"" + config.disk +
                "\"");
        }
    } else if (machine_ != nullptr && model_->usesDisk()) {
        machineDisk_ = machine_->defaultDisk();
    }
    if (machineDisk_ == nullptr) {
        const int disk_channels = config.diskChannels >= 0
                                      ? config.diskChannels
                                      : model_->defaultDiskChannels();
        if (disk_channels > 0) {
            disk_ = std::make_unique<hw::CoreSet>(disk_channels,
                                                  name_ + "/disk");
        } else if (model_->usesDisk()) {
            throw std::invalid_argument(
                "service \"" + model_->name() +
                "\" has disk stages but instance \"" + name_ +
                "\" has no disk channels and its machine attaches "
                "no disks");
        }
    }

    queues_.reserve(model_->stages().size());
    stageLabels_.reserve(model_->stages().size());
    for (const StageConfig& stage : model_->stages()) {
        queues_.push_back(StageQueue::create(stage, &connections_));
        stageLabels_.push_back(name_ + "/" + stage.name);
    }
    spawnLabel_ = name_ + "/spawn";
    retireLabel_ = name_ + "/retire";

    connections_.onUnblock(
        [this](ConnectionId) { scheduleWork(); });
}

void
MicroserviceInstance::accept(JobPtr job)
{
    if (!job)
        throw std::invalid_argument("cannot accept a null job");
    if (down_) {
        ++refused_;
        if (onJobFailed_)
            onJobFailed_(std::move(job), fault::FailReason::Refused);
        return;
    }
    if (queueCapacity_ > 0 &&
        queuedJobs() >= static_cast<std::size_t>(queueCapacity_)) {
        ++rejected_;
        if (onJobFailed_)
            onJobFailed_(std::move(job), fault::FailReason::QueueFull);
        return;
    }
    if (job->execPathId < 0)
        job->execPathId = model_->pathSelector().select(rng_);
    const PathConfig& path = model_->path(job->execPathId);
    job->stageIndex = 0;
    queues_[static_cast<std::size_t>(path.stageIds.front())]->push(
        std::move(job));
    scheduleWork();
}

void
MicroserviceInstance::scheduleWork()
{
    if (scheduling_ || down_)
        return;
    scheduling_ = true;
    while (tryStartWork()) {
    }
    scheduling_ = false;
    if (model_->dynamicThreads().enabled()) {
        maybeSpawnThread();
        maybeRetireThreads();
    }
}

void
MicroserviceInstance::maybeSpawnThread()
{
    const DynamicThreadPolicy& policy = model_->dynamicThreads();
    if (idleThreads_ > 0 ||
        threads_ + pendingSpawns_ >= policy.maxThreads ||
        queuedJobs() <=
            static_cast<std::size_t>(policy.queueThreshold)) {
        return;
    }
    ++pendingSpawns_;
    sim_.scheduleAfter(
        secondsToSimTime(policy.spawnLatency),
        [this]() {
            --pendingSpawns_;
            ++threads_;
            ++idleThreads_;
            ++spawned_;
            peakThreads_ = std::max(peakThreads_, threads_);
            scheduleWork();
        },
        spawnLabel_.c_str());
}

void
MicroserviceInstance::maybeRetireThreads()
{
    const DynamicThreadPolicy& policy = model_->dynamicThreads();
    if (retireScheduled_ || idleThreads_ <= 0 ||
        threads_ <= baseThreads_) {
        return;
    }
    retireScheduled_ = true;
    sim_.scheduleAfter(
        secondsToSimTime(policy.idleTimeout),
        [this]() {
            retireScheduled_ = false;
            if (idleThreads_ > 0 && threads_ > baseThreads_ &&
                !queues_.empty() && queuedJobs() == 0) {
                --threads_;
                --idleThreads_;
            }
            maybeRetireThreads();
        },
        retireLabel_.c_str());
}

bool
MicroserviceInstance::tryStartWork()
{
    if (idleThreads_ <= 0)
        return false;
    const int stage_count = static_cast<int>(queues_.size());
    for (int step = 0; step < stage_count; ++step) {
        const int stage_id = policy_ == SchedulingPolicy::Drain
                                 ? stage_count - 1 - step
                                 : step;
        StageQueue& queue = *queues_[static_cast<std::size_t>(stage_id)];
        if (!queue.hasEligible())
            continue;
        const StageConfig& stage = model_->stage(stage_id);
        // Shared-disk stages occupy no channel semaphore: the worker
        // blocks off-CPU while the operation contends for bandwidth
        // inside hw::Disk (queue depth included).
        const bool shared_disk =
            stage.resource == StageResource::Disk &&
            machineDisk_ != nullptr;
        hw::CoreSet* resource = nullptr;
        if (!shared_disk) {
            resource = stage.resource == StageResource::Cpu
                           ? cpuCores_
                           : disk_.get();
            if (resource == nullptr ||
                !resource->tryAcquire(sim_.now()))
                continue;
        }
        // Pop straight into a batch slot's kept vector; the slot goes
        // back if the pop comes up empty.
        std::uint32_t slot = static_cast<std::uint32_t>(batchSlots_.size());
        if (freeBatchSlots_.empty()) {
            batchSlots_.emplace_back();
        } else {
            slot = freeBatchSlots_.back();
            freeBatchSlots_.pop_back();
        }
        queue.popBatch(batchSlots_[slot]);
        if (batchSlots_[slot].empty()) {
            freeBatchSlots_.push_back(slot);
            if (resource != nullptr)
                resource->release(sim_.now());
            continue;
        }
        --idleThreads_;
        startBatch(stage_id, slot);
        return true;
    }
    return false;
}

void
MicroserviceInstance::startBatch(int stage_id, std::uint32_t slot)
{
    const StageConfig& stage = model_->stage(stage_id);
    const std::vector<JobPtr>& batch = batchSlots_[slot];
    std::uint64_t bytes = 0;
    for (const JobPtr& job : batch)
        bytes += job->bytes;
    SimTime duration = stage.time.sample(
        rng_, static_cast<int>(batch.size()), bytes, dvfs_);
    if (oversubscribed() &&
        model_->executionModel() == ExecutionModel::MultiThreaded) {
        duration += secondsToSimTime(model_->contextSwitchSeconds());
    }
    if (slowFactor_ != 1.0) {
        duration = static_cast<SimTime>(std::llround(
            static_cast<double>(duration) * slowFactor_));
    }
    ++batches_;
    batchSizes_.add(static_cast<double>(batch.size()));
    const std::uint64_t jobs = batch.size();
    activeBatches_.push_back(slot);
    if (stage.resource == StageResource::Disk &&
        machineDisk_ != nullptr) {
        // A sized operation against the shared disk: the sampled
        // duration rides on top of the bandwidth term as the access
        // latency, and the batch completes when the last byte moves.
        const std::uint64_t io_bytes =
            stage.ioBytes > 0 ? stage.ioBytes * jobs : bytes;
        machineDisk_->submit(
            stage.diskDirection == DiskDirection::Read
                ? hw::Disk::OpKind::Read
                : hw::Disk::OpKind::Write,
            io_bytes, simTimeToSeconds(duration),
            [this, stage_id, slot]() { finishBatch(stage_id, slot); },
            stageLabels_[static_cast<std::size_t>(stage_id)].c_str());
        return;
    }
    sim_.scheduleAfter(
        duration,
        [this, stage_id, slot]() { finishBatch(stage_id, slot); },
        stageLabels_[static_cast<std::size_t>(stage_id)].c_str());
}

void
MicroserviceInstance::finishBatch(int stage_id, std::uint32_t slot)
{
    const StageConfig& stage = model_->stage(stage_id);
    if (stage.resource != StageResource::Disk ||
        machineDisk_ == nullptr) {
        hw::CoreSet* resource = stage.resource == StageResource::Cpu
                                    ? cpuCores_
                                    : disk_.get();
        resource->release(sim_.now());
    }
    ++idleThreads_;
    // Deregister; a crash may already have done so and taken the
    // jobs, in which case this completes empty.
    const auto it =
        std::find(activeBatches_.begin(), activeBatches_.end(), slot);
    if (it != activeBatches_.end())
        activeBatches_.erase(it);
    // Advance from a local: a job's completion callback may start a
    // batch, which can grow batchSlots_.  The emptied vector returns
    // to its slot, buffer kept, and only then is the slot freed, so
    // no batch started meanwhile lands in it.
    std::vector<JobPtr> batch = std::move(batchSlots_[slot]);
    for (JobPtr& job : batch)
        advanceJob(std::move(job));
    batch.clear();
    batchSlots_[slot] = std::move(batch);
    freeBatchSlots_.push_back(slot);
    scheduleWork();
}

void
MicroserviceInstance::crash()
{
    if (down_)
        return;
    down_ = true;
    std::vector<JobPtr> victims;
    for (auto& queue : queues_) {
        for (JobPtr& job : queue->drainAll())
            victims.push_back(std::move(job));
    }
    // Jobs inside running batches die too.  The batch-completion
    // events stay scheduled — they release the core and the worker
    // with zero jobs, keeping resource accounting balanced.
    for (const std::uint32_t slot : activeBatches_) {
        for (JobPtr& job : batchSlots_[slot])
            victims.push_back(std::move(job));
        batchSlots_[slot].clear();
    }
    activeBatches_.clear();
    connections_.reset();
    killed_ += victims.size();
    if (onJobFailed_) {
        for (JobPtr& job : victims)
            onJobFailed_(std::move(job), fault::FailReason::Crash);
    }
}

void
MicroserviceInstance::recover()
{
    if (!down_)
        return;
    down_ = false;
    scheduleWork();
}

void
MicroserviceInstance::advanceJob(JobPtr job)
{
    const PathConfig& path = model_->path(job->execPathId);
    ++job->stageIndex;
    if (job->stageIndex <
        static_cast<int>(path.stageIds.size())) {
        const int next_stage =
            path.stageIds[static_cast<std::size_t>(job->stageIndex)];
        queues_[static_cast<std::size_t>(next_stage)]->push(
            std::move(job));
        return;
    }
    ++completed_;
    if (onJobDone_)
        onJobDone_(std::move(job));
}

std::size_t
MicroserviceInstance::queuedJobs() const
{
    std::size_t total = 0;
    for (const auto& queue : queues_)
        total += queue->size();
    return total;
}

std::size_t
MicroserviceInstance::queuedAtStage(int stage_id) const
{
    if (stage_id < 0 || stage_id >= static_cast<int>(queues_.size()))
        throw std::out_of_range("stage id out of range");
    return queues_[static_cast<std::size_t>(stage_id)]->size();
}

double
MicroserviceInstance::cpuUtilization() const
{
    return cpuCores_->utilization(sim_.now());
}

double
MicroserviceInstance::diskUtilization() const
{
    if (machineDisk_ != nullptr)
        return machineDisk_->utilization(sim_.now());
    if (disk_)
        return disk_->utilization(sim_.now());
    return 0.0;
}

}  // namespace uqsim
