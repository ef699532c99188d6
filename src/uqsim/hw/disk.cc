#include "uqsim/hw/disk.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "uqsim/snapshot/snapshot.h"

namespace uqsim {
namespace hw {

namespace {

// Solver resources: each operation occupies exactly one head.
const std::vector<int> kReadHead{0};
const std::vector<int> kWriteHead{1};

}  // namespace

Disk::Disk(Simulator& sim, const std::string& owner,
           const Config& config)
    : config_(config), label_(owner + "/" + config.name),
      solver_("disk/op",
              [this](const FluidSolver::Flow& op) { onFinish(op); })
{
    if (config_.readBytesPerSecond <= 0.0) {
        throw std::invalid_argument("disk \"" + label_ +
                                    "\": read bandwidth must be > 0");
    }
    if (config_.writeBytesPerSecond < 0.0) {
        throw std::invalid_argument(
            "disk \"" + label_ + "\": write bandwidth must be >= 0");
    }
    if (config_.writeBytesPerSecond == 0.0)
        config_.writeBytesPerSecond = config_.readBytesPerSecond;
    if (config_.queueDepth < 0) {
        throw std::invalid_argument(
            "disk \"" + label_ + "\": queue depth must be >= 0");
    }
    solver_.bind(sim);
    solver_.addResource(config_.readBytesPerSecond);
    solver_.addResource(config_.writeBytesPerSecond);
}

void
Disk::submit(OpKind kind, std::uint64_t bytes,
             double extraLatencySeconds, Callback done,
             const char* label)
{
    FluidSolver::Flow op;
    op.resources = kind == OpKind::Read ? &kReadHead : &kWriteHead;
    op.sizeBytes = bytes;
    op.tailLatency = extraLatencySeconds;
    op.done = std::move(done);
    op.label = label;
    ++submitted_;
    if (config_.queueDepth > 0 &&
        solver_.flows().size() >=
            static_cast<std::size_t>(config_.queueDepth)) {
        ++queuedOps_;
        waiting_.push_back(std::move(op));
        if (waiting_.size() > peakQueued_)
            peakQueued_ = waiting_.size();
        return;
    }
    solver_.insert(std::move(op));
    solver_.reshare();
}

void
Disk::onFinish(const FluidSolver::Flow& op)
{
    if (op.resources == &kReadHead) {
        ++readsCompleted_;
        bytesRead_ += op.sizeBytes;
    } else {
        ++writesCompleted_;
        bytesWritten_ += op.sizeBytes;
    }
    // FIFO admission: each completion frees exactly one slot.
    if (!waiting_.empty()) {
        solver_.insert(std::move(waiting_.front()));
        waiting_.pop_front();
    }
}

double
Disk::busySeconds(SimTime now) const
{
    return solver_.busyTicks(now) / static_cast<double>(kSecond);
}

double
Disk::utilization(SimTime now) const
{
    return now <= 0 ? 0.0
                    : solver_.busyTicks(now) / static_cast<double>(now);
}

namespace {

void
digestOp(snapshot::Digest& digest, std::uint64_t id,
         const FluidSolver::Flow& op, double remainingBytes)
{
    digest.u64(id);
    digest.u32(op.resources == &kReadHead ? 0 : 1);
    digest.u64(op.sizeBytes);
    digest.f64(remainingBytes);
    digest.f64(op.rate);
    digest.f64(op.tailLatency);
    digest.str(op.label);
}

}  // namespace

void
Disk::foldState(snapshot::Digest& digest) const
{
    digest.str(label_);
    digest.u64(submitted_);
    digest.u64(readsCompleted_);
    digest.u64(writesCompleted_);
    digest.u64(bytesRead_);
    digest.u64(bytesWritten_);
    digest.u64(queuedOps_);
    digest.u64(peakQueued_);
    digest.u64(solver_.reshareCount());
    digest.u64(solver_.nextId() + waiting_.size());
    digest.i64(solver_.lastUpdate());
    digest.f64(solver_.busyTicks(solver_.lastUpdate()));
    digest.u64(solver_.flows().size());
    digest.u64(waiting_.size());
    for (const auto& [id, op] : solver_.flows())
        digestOp(digest, id, op, op.remainingBytes);
    std::uint64_t id = solver_.nextId();
    for (const FluidSolver::Flow& op : waiting_)
        digestOp(digest, id++, op, static_cast<double>(op.sizeBytes));
}

}  // namespace hw
}  // namespace uqsim
