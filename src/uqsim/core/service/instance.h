#ifndef UQSIM_CORE_SERVICE_INSTANCE_H_
#define UQSIM_CORE_SERVICE_INSTANCE_H_

/**
 * @file
 * A running microservice instance.
 *
 * An instance couples a ServiceModel with hardware: a set of worker
 * threads/processes, dedicated CPU cores on a machine, optional disk
 * channels, and a DVFS domain.  Jobs delivered by the dispatcher
 * flow through the model's stage queues; idle workers pick batches
 * according to the scheduling policy, occupy the stage's resource
 * for the sampled service time, and advance jobs to their next
 * stage.  Completion of a job's last stage reports back to the
 * dispatcher.
 *
 * Worker scheduling policy: by default workers serve the *latest*
 * non-empty stage first (Drain), which mirrors a real event loop —
 * a batch returned by epoll is read, processed, and sent before the
 * worker polls again.  StageOrder (earliest stage first) is
 * available as an ablation.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "uqsim/core/engine/simulator.h"
#include "uqsim/core/service/connection.h"
#include "uqsim/core/service/job.h"
#include "uqsim/core/service/service_model.h"
#include "uqsim/core/service/stage_queue.h"
#include "uqsim/fault/resilience.h"
#include "uqsim/hw/machine.h"
#include "uqsim/random/rng.h"
#include "uqsim/stats/summary.h"

namespace uqsim {

/** Order in which idle workers scan stage queues. */
enum class SchedulingPolicy {
    /** Latest stage first (event-loop drain; the default). */
    Drain,
    /** Earliest stage first (ablation). */
    StageOrder,
};

/** Per-instance deployment parameters (from graph.json). */
struct InstanceConfig {
    /** Worker threads/processes; 0 uses the model default. */
    int threads = 0;
    /** Dedicated CPU cores; 0 means one per thread. */
    int cores = 0;
    /** Disk channels for the legacy per-instance channel model.
     *  -1 inherits the model default; an explicit 0 disables disk
     *  channels (and is an error when the model has disk stages and
     *  the machine attaches no disk).  Ignored when disk stages bind
     *  to a machine-attached hw::Disk. */
    int diskChannels = -1;
    /** Machine disk to bind disk stages to, by name.  Empty binds
     *  the machine's default (first) disk when the model has disk
     *  stages and the machine has any. */
    std::string disk{};
    /** Give the instance its own DVFS domain (per-tier power
     *  control) instead of sharing the machine's. */
    bool ownDvfsDomain = false;
    SchedulingPolicy policy = SchedulingPolicy::Drain;
    /** Bound on jobs queued across all stages; 0 = unbounded.  A
     *  full instance rejects new jobs (reject-on-full). */
    int queueCapacity = 0;
};

/** One deployed microservice instance. */
class MicroserviceInstance {
  public:
    /**
     * @param sim      owning simulator
     * @param model    shared immutable service model
     * @param name     unique instance name, e.g. "nginx.0"
     * @param machine  host machine; nullptr gives the instance its
     *                 own detached core set at nominal frequency
     *                 (unit tests)
     * @param config   deployment parameters
     */
    MicroserviceInstance(Simulator& sim, ServiceModelPtr model,
                         std::string name, hw::Machine* machine,
                         const InstanceConfig& config);

    MicroserviceInstance(const MicroserviceInstance&) = delete;
    MicroserviceInstance& operator=(const MicroserviceInstance&) = delete;

    const std::string& name() const { return name_; }
    const ServiceModel& model() const { return *model_; }
    hw::Machine* machine() { return machine_; }

    /** Deployment-wide dense instance id (deployment order); -1 for
     *  detached instances.  Keys connection-pool lookups. */
    int uid() const { return uid_; }
    void setUid(int uid) { uid_ = uid; }

    /** The instance's frequency domain (never null). */
    hw::DvfsDomain* dvfs() { return dvfs_; }
    const hw::DvfsDomain* dvfs() const { return dvfs_; }

    /**
     * Delivers a job.  job->execPathId selects the execution path;
     * pass -1 to sample from the model's path probabilities.
     * job->connectionId identifies the epoll/socket subqueue.
     */
    void accept(JobPtr job);

    /** Callback fired when a job finishes its last stage. */
    void setOnJobDone(std::function<void(JobPtr)> callback)
    {
        onJobDone_ = std::move(callback);
    }

    /** Callback fired when a job is lost to a fault or rejection
     *  (crash kill, delivery while down, bounded queue full). */
    void setOnJobFailed(
        std::function<void(JobPtr, fault::FailReason)> callback)
    {
        onJobFailed_ = std::move(callback);
    }

    /** Receive-blocking state for this instance's connections. */
    ConnectionTable& connections() { return connections_; }

    /** Re-examines queues; called when external state changes. */
    void scheduleWork();

    // Fault injection ------------------------------------------------

    /**
     * Kills the instance: every queued job and every job in a
     * running batch fails (reported via the job-failed callback),
     * and all connection state resets.  Worker-thread and core
     * accounting stays balanced — in-flight batch completions still
     * fire, they just complete empty.
     */
    void crash();

    /** Brings a crashed instance back (empty queues, fresh
     *  connections). */
    void recover();

    bool isDown() const { return down_; }

    /** Multiplies sampled processing times (slow-node fault);
     *  1.0 = nominal. */
    void setSlowFactor(double factor) { slowFactor_ = factor; }
    double slowFactor() const { return slowFactor_; }

    /** Jobs killed by crashes. */
    std::uint64_t killedJobs() const { return killed_; }
    /** Jobs rejected by the bounded queue. */
    std::uint64_t rejectedJobs() const { return rejected_; }
    /** Jobs refused because the instance was down. */
    std::uint64_t refusedJobs() const { return refused_; }

    // Introspection / statistics -------------------------------------

    int threads() const { return threads_; }
    int idleThreads() const { return idleThreads_; }
    /** Configured base worker count (dynamic spawning floor). */
    int baseThreads() const { return baseThreads_; }
    /** Highest concurrent worker count observed. */
    int peakThreads() const { return peakThreads_; }
    /** Workers spawned by the dynamic policy so far. */
    std::uint64_t spawnedThreads() const { return spawned_; }
    std::uint64_t completedJobs() const { return completed_; }
    std::uint64_t executedBatches() const { return batches_; }

    /** Jobs currently queued across all stages. */
    std::size_t queuedJobs() const;

    /** Jobs queued at one stage. */
    std::size_t queuedAtStage(int stage_id) const;

    /** CPU core utilization so far. */
    double cpuUtilization() const;

    /** Disk utilization on its own axis (never folded into the CPU
     *  number): the bound machine disk's busy fraction, or the
     *  legacy channel set's occupancy; 0 without disk stages. */
    double diskUtilization() const;

    /** The machine disk this instance's disk stages contend on, or
     *  nullptr under the legacy channel model. */
    hw::Disk* machineDisk() { return machineDisk_; }

    /** Observed batch-size statistics (batching effectiveness). */
    const stats::Summary& batchSizeStats() const { return batchSizes_; }

    /** Batch slots ever allocated (diagnostics).  A slot is held
     *  from a batch's start to its completion event, so this stays
     *  at the peak number of concurrently running batches. */
    std::size_t batchSlots() const { return batchSlots_.size(); }

  private:
    bool tryStartWork();
    void startBatch(int stage_id, std::uint32_t slot);
    void finishBatch(int stage_id, std::uint32_t slot);
    void advanceJob(JobPtr job);
    bool oversubscribed() const { return threads_ > coreCapacity_; }
    void maybeSpawnThread();
    void maybeRetireThreads();

    Simulator& sim_;
    ServiceModelPtr model_;
    std::string name_;
    int uid_ = -1;
    hw::Machine* machine_;
    hw::DvfsDomain* dvfs_ = nullptr;
    std::unique_ptr<hw::DvfsDomain> ownedDvfs_;
    hw::CoreSet* cpuCores_ = nullptr;
    std::unique_ptr<hw::CoreSet> ownedCpu_;
    std::unique_ptr<hw::CoreSet> disk_;
    hw::Disk* machineDisk_ = nullptr;
    int threads_;
    int idleThreads_;
    int baseThreads_;
    int peakThreads_;
    int coreCapacity_ = 0;
    int pendingSpawns_ = 0;
    bool retireScheduled_ = false;
    std::uint64_t spawned_ = 0;
    SchedulingPolicy policy_;
    ConnectionTable connections_;
    std::vector<std::unique_ptr<StageQueue>> queues_;
    random::RngStream rng_;
    /** Precomputed "<instance>/<stage>" event labels (hot path). */
    std::vector<std::string> stageLabels_;
    std::string spawnLabel_;
    std::string retireLabel_;
    std::function<void(JobPtr)> onJobDone_;
    std::function<void(JobPtr, fault::FailReason)> onJobFailed_;
    bool scheduling_ = false;
    std::uint64_t completed_ = 0;
    std::uint64_t batches_ = 0;
    stats::Summary batchSizes_;
    bool down_ = false;
    double slowFactor_ = 1.0;
    int queueCapacity_ = 0;
    std::uint64_t killed_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t refused_ = 0;
    /** Jobs of each running batch, indexed by the slot its
     *  completion event captures.  A free slot keeps its emptied
     *  vector, so popping a batch into it allocates nothing. */
    std::vector<std::vector<JobPtr>> batchSlots_;
    /** Slots whose completion event has fired. */
    std::vector<std::uint32_t> freeBatchSlots_;
    /** Slots of uncrashed running batches in start order; crash()
     *  kills their jobs and clears this while the completion events
     *  drain harmlessly. */
    std::vector<std::uint32_t> activeBatches_;
};

using InstancePtr = std::unique_ptr<MicroserviceInstance>;

}  // namespace uqsim

#endif  // UQSIM_CORE_SERVICE_INSTANCE_H_
