#ifndef UQSIM_HW_DISK_H_
#define UQSIM_HW_DISK_H_

/**
 * @file
 * Shared-bandwidth disk model: a machine-attached storage device
 * with separate read and write bandwidth, max-min fair sharing
 * across in-flight operations, and a bounded service queue with
 * deterministic FIFO admission.
 *
 * Each sized disk access becomes an *operation* that holds a share
 * of its direction's bandwidth until its last byte moves: a flow in
 * a FluidSolver (fluid_solver.h; docs/ARCHITECTURE.md §Fluid
 * sharing) whose two resources are the read head and the write
 * head.  Because every operation occupies exactly one head, the
 * max-min fair allocation degenerates to an equal split per
 * direction: rate = direction capacity / operations in that
 * direction.
 *
 * When the configured queue depth is reached, further submissions
 * wait in a FIFO; each completion admits the head of the queue, so
 * admission order is deterministic and independent of rates.  The
 * completion callback fires @c extraLatencySeconds after the last
 * byte (the sampled per-access latency rides on top of the
 * bandwidth term, like the flow model's propagation tail).
 *
 * Machines without a @c disks section never construct a Disk, so
 * existing configurations keep their event sequence — and their
 * trace digests — bit-identical.
 */

#include <cstdint>
#include <deque>
#include <string>

#include "uqsim/core/engine/simulator.h"
#include "uqsim/hw/fluid_solver.h"
#include "uqsim/hw/irq_service.h"

namespace uqsim {
namespace hw {

/** One shared-bandwidth disk; see file comment. */
class Disk {
  public:
    struct Config {
        std::string name = "disk0";
        /** Read bandwidth in bytes per second; must be > 0. */
        double readBytesPerSecond = 0.0;
        /** Write bandwidth in bytes per second; 0 mirrors the read
         *  bandwidth. */
        double writeBytesPerSecond = 0.0;
        /** Operations serviced concurrently; further submissions
         *  wait in FIFO order.  0 = unbounded. */
        int queueDepth = 0;
    };

    enum class OpKind { Read, Write };

    /** @p owner is the machine name, used for diagnostic labels. */
    Disk(Simulator& sim, const std::string& owner,
         const Config& config);

    Disk(const Disk&) = delete;
    Disk& operator=(const Disk&) = delete;

    const std::string& name() const { return config_.name; }
    /** "machine/disk" label used in reports. */
    const std::string& label() const { return label_; }
    const Config& config() const { return config_; }

    /**
     * Submits a sized operation.  @p done fires through the event
     * queue @p extraLatencySeconds after the operation's last byte;
     * zero-byte operations still occupy a queue-depth slot for the
     * latency window, so admission semantics do not depend on size.
     */
    void submit(OpKind kind, std::uint64_t bytes,
                double extraLatencySeconds, Callback done,
                const char* label);

    // ------------------------------------------------ observability

    std::uint64_t opsSubmitted() const { return submitted_; }
    std::uint64_t readsCompleted() const { return readsCompleted_; }
    std::uint64_t writesCompleted() const
    {
        return writesCompleted_;
    }
    std::uint64_t bytesRead() const { return bytesRead_; }
    std::uint64_t bytesWritten() const { return bytesWritten_; }
    /** Operations that had to wait for a queue-depth slot. */
    std::uint64_t queuedOps() const { return queuedOps_; }
    /** High-water mark of the waiting FIFO. */
    std::uint64_t peakQueueDepth() const { return peakQueued_; }
    /** Number of share recomputations (op starts + finishes). */
    std::uint64_t reshareCount() const { return solver_.reshareCount(); }

    /** Wall-clock seconds with at least one operation in service. */
    double busySeconds(SimTime now) const;
    /** busySeconds over the elapsed simulated time. */
    double utilization(SimTime now) const;

    /**
     * Serializes this disk's state into the open DISKS snapshot
     * section: counters, busy integral, and deterministic folds of
     * the in-service map (id order) and waiting FIFO.
     */
    void saveState(snapshot::SnapshotWriter& writer) const;

    /** Validates the live (replayed) state against saveState()'s
     *  fields; @p name prefixes field names in error messages. */
    void loadState(snapshot::SnapshotReader& reader,
                   const std::string& name) const;

  private:
    /** Counts a finished operation and admits the FIFO head into
     *  its slot. */
    void onFinish(const FluidSolver::Flow& op);

    Config config_;
    std::string label_;

    /** In-service operations; resource 0 is the read head, 1 the
     *  write head. */
    FluidSolver solver_;
    std::deque<FluidSolver::Flow> waiting_;

    std::uint64_t submitted_ = 0;
    std::uint64_t readsCompleted_ = 0;
    std::uint64_t writesCompleted_ = 0;
    std::uint64_t bytesRead_ = 0;
    std::uint64_t bytesWritten_ = 0;
    std::uint64_t queuedOps_ = 0;
    std::uint64_t peakQueued_ = 0;
};

}  // namespace hw
}  // namespace uqsim

#endif  // UQSIM_HW_DISK_H_
