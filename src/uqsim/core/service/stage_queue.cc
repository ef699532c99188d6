#include "uqsim/core/service/stage_queue.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace uqsim {

namespace {

/**
 * Number of jobs poppable from the front of a per-connection
 * subqueue.  An unblocked connection serves up to the batch limit;
 * a receive-blocked connection serves only the leading jobs that
 * belong to the blocking request itself (HTTP/1.1: the in-flight
 * request proceeds, subsequent requests wait).
 */
std::size_t
eligibleCount(const std::deque<JobPtr>& queue,
              const ConnectionTable* connections, ConnectionId id,
              int batch_limit)
{
    if (queue.empty())
        return 0;
    std::size_t cap =
        batch_limit > 0
            ? std::min(queue.size(),
                       static_cast<std::size_t>(batch_limit))
            : queue.size();
    if (connections == nullptr)
        return cap;
    const JobId owner = connections->blockOwner(id);
    if (owner == 0)
        return cap;
    std::size_t count = 0;
    for (const JobPtr& job : queue) {
        if (count >= cap || job->rootId != owner)
            break;
        ++count;
    }
    return count;
}

}  // namespace

std::unique_ptr<StageQueue>
StageQueue::create(const StageConfig& config,
                   const ConnectionTable* connections)
{
    // "batching": false caps every pop at one job per (sub)queue.
    const int limit = config.batching ? config.batchLimit : 1;
    switch (config.queueType) {
      case QueueType::Single:
        return std::make_unique<SingleQueue>(config.batching,
                                             config.batchLimit);
      case QueueType::Socket:
        return std::make_unique<SocketQueue>(limit, connections);
      case QueueType::Epoll:
        return std::make_unique<EpollQueue>(limit, connections);
    }
    throw std::logic_error("unreachable queue type");
}

// ---------------------------------------------------------------- Single

SingleQueue::SingleQueue(bool batching, int batch_limit)
    : batching_(batching), batchLimit_(batch_limit)
{
}

void
SingleQueue::push(JobPtr job)
{
    queue_.push_back(std::move(job));
}

void
SingleQueue::popBatch(std::vector<JobPtr>& out)
{
    if (queue_.empty())
        return;
    std::size_t take = 1;
    if (batching_) {
        take = batchLimit_ > 0
                   ? std::min(queue_.size(),
                              static_cast<std::size_t>(batchLimit_))
                   : queue_.size();
    }
    for (std::size_t i = 0; i < take; ++i) {
        out.push_back(std::move(queue_.front()));
        queue_.pop_front();
    }
}

std::vector<JobPtr>
SingleQueue::drainAll()
{
    std::vector<JobPtr> jobs(std::make_move_iterator(queue_.begin()),
                             std::make_move_iterator(queue_.end()));
    queue_.clear();
    return jobs;
}

// ------------------------------------------------------------ Connection

ConnectionQueue::ConnectionQueue(int batch_limit,
                                 const ConnectionTable* connections)
    : batchLimit_(batch_limit), connections_(connections)
{
}

void
ConnectionQueue::push(JobPtr job)
{
    const ConnectionId id = job->connectionId;
    auto it = subqueues_.lower_bound(id);
    if (it == subqueues_.end() || it->first != id) {
        if (spare_.empty()) {
            it = subqueues_.emplace_hint(it, id, std::deque<JobPtr>());
        } else {
            Subqueues::node_type node = std::move(spare_.back());
            spare_.pop_back();
            node.key() = id;
            it = subqueues_.insert(it, std::move(node));
        }
    }
    it->second.push_back(std::move(job));
    ++total_;
}

bool
ConnectionQueue::hasEligible() const
{
    // Drained subqueues are parked, so this only scans connections
    // with pending jobs (usually few).
    for (auto it = subqueues_.begin(); it != subqueues_.end(); ++it) {
        if (eligible(it) > 0)
            return true;
    }
    return false;
}

std::size_t
ConnectionQueue::eligible(Subqueues::const_iterator it) const
{
    return eligibleCount(it->second, connections_, it->first,
                         batchLimit_);
}

ConnectionQueue::Subqueues::iterator
ConnectionQueue::take(Subqueues::iterator it, std::size_t count,
                      std::vector<JobPtr>& out)
{
    std::deque<JobPtr>& queue = it->second;
    for (std::size_t i = 0; i < count; ++i) {
        out.push_back(std::move(queue.front()));
        queue.pop_front();
    }
    total_ -= count;
    const auto next = std::next(it);
    if (queue.empty())
        spare_.push_back(subqueues_.extract(it));
    return next;
}

std::vector<JobPtr>
ConnectionQueue::drainAll()
{
    std::vector<JobPtr> jobs;
    jobs.reserve(total_);
    for (auto it = subqueues_.begin(); it != subqueues_.end();)
        it = take(it, it->second.size(), jobs);
    return jobs;
}

// ---------------------------------------------------------------- Socket

SocketQueue::SocketQueue(int batch_limit,
                         const ConnectionTable* connections)
    : ConnectionQueue(batch_limit, connections)
{
}

void
SocketQueue::popBatch(std::vector<JobPtr>& out)
{
    // Round-robin: scan connections after the cursor first.
    auto serve = [&](Subqueues::iterator begin,
                     Subqueues::iterator end) -> bool {
        for (auto it = begin; it != end; ++it) {
            const std::size_t count = eligible(it);
            if (count == 0)
                continue;
            cursor_ = it->first;
            take(it, count, out);
            return true;
        }
        return false;
    };
    const auto pivot = subqueues_.upper_bound(cursor_);
    if (!serve(pivot, subqueues_.end()))
        serve(subqueues_.begin(), pivot);
}

std::vector<JobPtr>
SocketQueue::drainAll()
{
    cursor_ = kNoConnection;
    return ConnectionQueue::drainAll();
}

// ----------------------------------------------------------------- Epoll

EpollQueue::EpollQueue(int batch_limit, const ConnectionTable* connections)
    : ConnectionQueue(batch_limit, connections)
{
}

std::size_t
EpollQueue::activeSubqueues() const
{
    std::size_t active = 0;
    for (auto it = subqueues_.begin(); it != subqueues_.end(); ++it) {
        if (eligible(it) > 0)
            ++active;
    }
    return active;
}

void
EpollQueue::popBatch(std::vector<JobPtr>& out)
{
    // First N jobs of each active subqueue (paper §III-B).
    for (auto it = subqueues_.begin(); it != subqueues_.end();)
        it = take(it, eligible(it), out);
}

}  // namespace uqsim
