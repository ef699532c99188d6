#ifndef UQSIM_CORE_SERVICE_STAGE_QUEUE_H_
#define UQSIM_CORE_SERVICE_STAGE_QUEUE_H_

/**
 * @file
 * Stage job queues.
 *
 * Every stage is coupled with a job queue (paper §III-B):
 *
 *  - SingleQueue: one FIFO holding all jobs (e.g.
 *    memcached_processing, socket_send).
 *  - SocketQueue: jobs classified into per-connection subqueues; a
 *    pop returns the first N jobs of a single ready connection at a
 *    time (socket_read).
 *  - EpollQueue: per-connection subqueues; a pop returns the first N
 *    jobs of *each* active subqueue (epoll).  A subqueue whose
 *    connection is receive-blocked is not active.
 *
 * Pops fill a vector the caller keeps, and a drained subqueue is
 * parked for the next connection rather than freed, so a warm queue
 * allocates nothing.
 */

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "uqsim/core/service/connection.h"
#include "uqsim/core/service/job.h"
#include "uqsim/core/service/stage.h"

namespace uqsim {

/** Abstract stage queue. */
class StageQueue {
  public:
    virtual ~StageQueue() = default;

    /** Enqueues a job. */
    virtual void push(JobPtr job) = 0;

    /** True when a pop would return at least one job. */
    virtual bool hasEligible() const = 0;

    /**
     * Pops one batch per the stage's discipline into @p out, which
     * the caller passes empty (a reused vector keeps its buffer).
     * Leaves @p out empty when no job is eligible.
     */
    virtual void popBatch(std::vector<JobPtr>& out) = 0;

    /** Jobs currently queued (eligible or not). */
    virtual std::size_t size() const = 0;

    /** Removes and returns every queued job (instance crash). */
    virtual std::vector<JobPtr> drainAll() = 0;

    /**
     * Factory from a stage configuration.  @p connections supplies
     * receive-blocking state for socket/epoll queues and may be
     * nullptr for single queues.
     */
    static std::unique_ptr<StageQueue>
    create(const StageConfig& config, const ConnectionTable* connections);
};

/** One FIFO for all jobs. */
class SingleQueue : public StageQueue {
  public:
    /** @param batch_limit max jobs per pop; <= 0 means 1 (or all
     *  when @p batching). */
    SingleQueue(bool batching, int batch_limit);

    void push(JobPtr job) override;
    bool hasEligible() const override { return !queue_.empty(); }
    void popBatch(std::vector<JobPtr>& out) override;
    std::size_t size() const override { return queue_.size(); }
    std::vector<JobPtr> drainAll() override;

  private:
    std::deque<JobPtr> queue_;
    bool batching_;
    int batchLimit_;
};

/**
 * Per-connection subqueues in connection-id order, shared by the
 * socket and epoll disciplines.  Only connections with queued jobs
 * have a subqueue.  A drained subqueue is not freed: its map node
 * (deque and chunk included) is extracted into a spare list and
 * re-keyed for the next connection that needs one.
 */
class ConnectionQueue : public StageQueue {
  public:
    void push(JobPtr job) override;
    bool hasEligible() const override;
    std::size_t size() const override { return total_; }
    std::vector<JobPtr> drainAll() override;

  protected:
    using Subqueues = std::map<ConnectionId, std::deque<JobPtr>>;

    ConnectionQueue(int batch_limit, const ConnectionTable* connections);

    /** Jobs poppable now from the front of @p it's subqueue. */
    std::size_t eligible(Subqueues::const_iterator it) const;

    /** Moves @p count jobs from the front of @p it's subqueue to
     *  @p out, parking the subqueue if that drains it; returns the
     *  next subqueue. */
    Subqueues::iterator take(Subqueues::iterator it, std::size_t count,
                             std::vector<JobPtr>& out);

    Subqueues subqueues_;

  private:
    /** Parked subqueues, empty, awaiting a new connection id. */
    std::vector<Subqueues::node_type> spare_;
    std::size_t total_ = 0;
    int batchLimit_;
    const ConnectionTable* connections_;
};

/** Per-connection subqueues; pop serves one ready connection. */
class SocketQueue : public ConnectionQueue {
  public:
    SocketQueue(int batch_limit, const ConnectionTable* connections);

    void popBatch(std::vector<JobPtr>& out) override;
    std::vector<JobPtr> drainAll() override;

  private:
    /** Round-robin cursor: last connection served. */
    ConnectionId cursor_ = kNoConnection;
};

/** Per-connection subqueues; pop serves all active connections. */
class EpollQueue : public ConnectionQueue {
  public:
    EpollQueue(int batch_limit, const ConnectionTable* connections);

    void popBatch(std::vector<JobPtr>& out) override;

    /** Number of currently active (pollable) subqueues. */
    std::size_t activeSubqueues() const;
};

}  // namespace uqsim

#endif  // UQSIM_CORE_SERVICE_STAGE_QUEUE_H_
