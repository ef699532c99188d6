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

/**
 * Fold of the in-service operations (id order), then the FIFO.  A
 * waiting operation gets its id on admission, and admission is
 * strict FIFO, so the i-th waiting one will be nextId() + i; it is
 * folded under that id with all its bytes left.
 */
std::uint64_t
opsDigest(const FluidSolver& solver,
          const std::deque<FluidSolver::Flow>& waiting)
{
    snapshot::Digest digest;
    for (const auto& [id, op] : solver.flows())
        digestOp(digest, id, op, op.remainingBytes);
    std::uint64_t id = solver.nextId();
    for (const FluidSolver::Flow& op : waiting)
        digestOp(digest, id++, op, static_cast<double>(op.sizeBytes));
    return digest.value();
}

}  // namespace

void
Disk::saveState(snapshot::SnapshotWriter& writer) const
{
    writer.putString(label_);
    writer.putU64(submitted_);
    writer.putU64(readsCompleted_);
    writer.putU64(writesCompleted_);
    writer.putU64(bytesRead_);
    writer.putU64(bytesWritten_);
    writer.putU64(queuedOps_);
    writer.putU64(peakQueued_);
    writer.putU64(solver_.reshareCount());
    writer.putU64(solver_.nextId() + waiting_.size());
    writer.putI64(solver_.lastUpdate());
    writer.putF64(solver_.busyTicks(solver_.lastUpdate()));
    writer.putU64(solver_.flows().size());
    writer.putU64(waiting_.size());
    writer.putU64(opsDigest(solver_, waiting_));
}

void
Disk::loadState(snapshot::SnapshotReader& reader,
                const std::string& name) const
{
    const auto field = [&name](const char* suffix) {
        return name + "." + suffix;
    };
    reader.requireString(field("label").c_str(), label_);
    reader.requireU64(field("submitted").c_str(), submitted_);
    reader.requireU64(field("reads_completed").c_str(),
                      readsCompleted_);
    reader.requireU64(field("writes_completed").c_str(),
                      writesCompleted_);
    reader.requireU64(field("bytes_read").c_str(), bytesRead_);
    reader.requireU64(field("bytes_written").c_str(), bytesWritten_);
    reader.requireU64(field("queued_ops").c_str(), queuedOps_);
    reader.requireU64(field("peak_queued").c_str(), peakQueued_);
    reader.requireU64(field("reshares").c_str(),
                      solver_.reshareCount());
    reader.requireU64(field("next_op_id").c_str(),
                      solver_.nextId() + waiting_.size());
    reader.requireI64(field("last_update").c_str(),
                      solver_.lastUpdate());
    reader.requireF64(field("busy_ticks").c_str(),
                      solver_.busyTicks(solver_.lastUpdate()));
    reader.requireU64(field("in_service").c_str(),
                      solver_.flows().size());
    reader.requireU64(field("waiting").c_str(), waiting_.size());
    reader.requireU64(field("op_digest").c_str(),
                      opsDigest(solver_, waiting_));
}

}  // namespace hw
}  // namespace uqsim
