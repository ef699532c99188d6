#ifndef UQSIM_CORE_SIM_SIMULATION_H_
#define UQSIM_CORE_SIM_SIMULATION_H_

/**
 * @file
 * Top-level simulation facade.
 *
 * A Simulation assembles the whole system — cluster, service models,
 * deployment, path tree, dispatcher, clients — either
 * programmatically or from the five JSON inputs, then runs it and
 * produces a RunReport.  Statistics respect the warm-up window.
 *
 * Build protocol:
 *   1. construct with options;
 *   2. populate cluster() / deployment() / pathTree() / addClient()
 *      (or call the load*Json methods / fromBundle);
 *   3. finalize() — constructs the dispatcher and wires stats;
 *   4. run().
 */

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "uqsim/core/app/deployment.h"
#include "uqsim/core/app/dispatcher.h"
#include "uqsim/core/app/path_tree.h"
#include "uqsim/core/engine/simulator.h"
#include "uqsim/core/sim/config.h"
#include "uqsim/core/sim/report.h"
#include "uqsim/fault/fault_plan.h"
#include "uqsim/fault/fault_scheduler.h"
#include "uqsim/hw/cluster.h"
#include "uqsim/snapshot/snapshot.h"
#include "uqsim/stats/percentile_recorder.h"
#include "uqsim/workload/client.h"

namespace uqsim {

/** Fully assembled simulated system. */
class Simulation {
  public:
    explicit Simulation(const SimulationOptions& options = {});

    /**
     * Builds everything from a configuration bundle.  A non-null
     * @p chooser is attached before anything loads, so it sees the
     * choice points that finalize() meets (Simulator::setChooser).
     */
    static std::unique_ptr<Simulation>
    fromBundle(const ConfigBundle& bundle, Chooser* chooser = nullptr);

    // -- construction phase -------------------------------------------

    hw::Cluster& cluster() { return *cluster_; }
    Deployment& deployment() { return *deployment_; }
    PathTree& pathTree() { return pathTree_; }

    void loadMachinesJson(const json::JsonValue& doc);
    void loadServiceJson(const json::JsonValue& doc);
    void loadGraphJson(const json::JsonValue& doc);
    void loadPathJson(const json::JsonValue& doc);
    void loadClientJson(const json::JsonValue& doc);
    /** Parses a faults.json document; call before finalize(). */
    void loadFaultsJson(const json::JsonValue& doc);

    /** Sets the fault plan programmatically; call before finalize(). */
    void setFaultPlan(fault::FaultPlan plan);

    /** Adds a client programmatically. */
    void addClient(workload::ClientConfig config);

    /**
     * Constructs the dispatcher and clients and wires statistics.
     * Must be called exactly once, after all deployment/config
     * calls and before run().
     */
    void finalize();

    // -- run phase -----------------------------------------------------

    /** True once finalize() has been called. */
    bool finalized() const { return dispatcher_ != nullptr; }

    /**
     * Runs to the configured duration and returns the report.
     * May be called once.
     *
     * In audit mode (UQSIM_AUDIT / audit::setAuditMode) the
     * invariant auditor runs after the simulation and throws
     * EngineInvariantError on violations; when the run drained the
     * event queue the stronger quiescent-state checks (job /
     * connection-pool leak accounting) apply too.
     */
    RunReport run();

    // -- segmented execution ---------------------------------------
    // run() equals any interleaving of advanceToEvents()/
    // advanceToTime() followed by one finishRun(), event for event:
    // segment boundaries never clamp the clock (Simulator::
    // runSegment), so the trace digest is independent of where a
    // run is paused, e.g. for a checkpoint, a restore's replay, or a
    // sliced benchmark.  See snapshot/checkpoint.h.

    /**
     * Runs until @p target_events total events have executed (an
     * absolute count, not a delta), the duration horizon or event
     * budget is hit, or the queue drains.
     */
    StopReason advanceToEvents(std::uint64_t target_events);

    /** Runs until the next event would fire after @p until (clamped
     *  to the duration horizon).  The clock is left at the last
     *  fired event. */
    StopReason advanceToTime(SimTime until);

    /**
     * Completes a segmented run: runs to the configured duration
     * (with the end-of-horizon clock clamp), applies the post-run
     * audit, and builds the report.  run() is exactly finishRun()
     * with no preceding advance calls.
     */
    RunReport finishRun();

    // -- checkpoint / restore --------------------------------------

    /**
     * Composition fingerprint pinned into every snapshot: seed, time
     * horizon and budgets, machine/service/client composition,
     * network model, and fault plan.  Restoring a snapshot into a
     * simulation with a different digest is a hard error.  Computed
     * at finalize().
     */
    std::uint64_t configDigest() const { return configDigest_; }

    /** Replay coordinates at this instant (snapshot header). */
    snapshot::SnapshotMeta snapshotMeta() const;

    /**
     * One order-sensitive fold per stateful layer, indexed by
     * snapshot::Layer: each layer's foldState() into its own digest.
     * A checkpoint stores these beside snapshotMeta(); restore
     * replays to the pin and compares them.  Must be called between
     * events — after an advance*() return, never from inside one.
     */
    snapshot::LayerFolds layerFolds() const;

    /**
     * Attaches a run control to the engine (nullptr detaches); see
     * Simulator::setRunControl.  The SweepRunner attaches one per
     * replication to enforce its per-replication limits.
     */
    void setRunControl(RunControl* control)
    {
        sim_.setRunControl(control);
    }

    /** Additional listener for end-to-end completions (seconds),
     *  invoked for every completion including warm-up. */
    void setCompletionListener(
        std::function<void(const Job&, double)> listener)
    {
        completionListener_ = std::move(listener);
    }

    /** Additional listener for per-tier latencies (seconds). */
    void setTierListener(
        std::function<void(const std::string&, double)> listener)
    {
        tierListener_ = std::move(listener);
    }

    // -- accessors -------------------------------------------------

    Simulator& sim() { return sim_; }
    const Simulator& sim() const { return sim_; }
    Dispatcher& dispatcher();
    /** Null when the run has no fault plan. */
    fault::FaultScheduler* faultScheduler() { return faultScheduler_.get(); }
    const SimulationOptions& options() const { return options_; }
    std::vector<std::unique_ptr<workload::Client>>& clients()
    {
        return clients_;
    }

    /** End-to-end latencies (seconds) within the measured window. */
    const stats::PercentileRecorder& latencies() const
    {
        return endToEnd_;
    }

    /** Per-tier latencies (seconds) within the measured window,
     *  rendered to a name-keyed map.  Internally the recorders live
     *  in a dense id-indexed array (hot path); this is the
     *  inspection boundary. */
    std::map<std::string, stats::PercentileRecorder>
    tierLatencies() const;

    /** Builds the report from current statistics (post-run). */
    RunReport buildReport(double wall_seconds = 0.0) const;

  private:
    SimulationOptions options_;
    Simulator sim_;
    std::unique_ptr<hw::Cluster> cluster_;
    std::unique_ptr<Deployment> deployment_;
    PathTree pathTree_;
    bool pathTreeLoaded_ = false;
    std::unique_ptr<Dispatcher> dispatcher_;
    fault::FaultPlan faultPlan_;
    std::unique_ptr<fault::FaultScheduler> faultScheduler_;
    std::vector<workload::ClientConfig> pendingClients_;
    std::vector<std::unique_ptr<workload::Client>> clients_;
    stats::PercentileRecorder endToEnd_;
    /** Measured-window tier latency recorders indexed by interned
     *  service id. */
    std::vector<stats::PercentileRecorder> tiersById_;
    std::uint64_t measuredCompletions_ = 0;
    std::uint64_t measuredGenerated_ = 0;
    std::uint64_t measuredFailed_ = 0;
    std::function<void(const Job&, double)> completionListener_;
    std::function<void(const std::string&, double)> tierListener_;
    bool ran_ = false;
    std::uint64_t configDigest_ = 0;

    bool inMeasurementWindow() const;
    std::uint64_t computeConfigDigest() const;
    /** Shared guard for the segmented-run entry points. */
    void checkAdvance() const;
};

}  // namespace uqsim

#endif  // UQSIM_CORE_SIM_SIMULATION_H_
