#ifndef UQSIM_CORE_ENGINE_EVENT_H_
#define UQSIM_CORE_ENGINE_EVENT_H_

/**
 * @file
 * Simulation events.
 *
 * An event represents the arrival or completion of a job in a
 * microservice, or a cluster administration operation such as a DVFS
 * change (paper §III-A).  Events carry a firing time and a sequence
 * number assigned by the queue: two events with equal times fire in
 * scheduling order, which makes simulations deterministic.
 *
 * Events live in slab-allocated pool slots owned by the EventQueue;
 * an EventHandle names a slot by (index, generation).  The
 * generation stamp is bumped every time a slot is released or its
 * event is re-keyed (EventQueue::rekey), so a handle held past its
 * event's execution simply stops matching — a stale cancel() is a
 * no-op, with no shared_ptr/weak_ptr control blocks on the hot path.
 */

#include <cstdint>

#include "uqsim/core/engine/inline_function.h"
#include "uqsim/core/engine/sim_time.h"

namespace uqsim {

class EventQueue;

/**
 * The event payload: a move-only closure.  112 inline bytes covers
 * every capture set the simulator schedules (network hops carrying a
 * completion callback are the largest); bigger callables degrade to
 * one heap allocation.
 */
using EventAction = InlineFunction<void(), 112>;

/**
 * Handle to a scheduled event, used for cancellation.  Holding a
 * handle does not keep the event alive past execution; a handle must
 * not outlive the queue it came from.
 */
class EventHandle {
  public:
    EventHandle() = default;
    EventHandle(EventQueue* queue, std::uint32_t slot,
                std::uint32_t generation)
        : queue_(queue), slot_(slot), generation_(generation)
    {
    }

    /** Cancels the event if it has not fired yet; returns success.
     *  Defined in event_queue.h. */
    bool cancel();

    /** True when the event is still pending (not fired, not freed).
     *  Defined in event_queue.h. */
    bool pending() const;

  private:
    /** EventQueue::rekey() moves the handle to the new generation. */
    friend class EventQueue;

    EventQueue* queue_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t generation_ = 0;
};

}  // namespace uqsim

#endif  // UQSIM_CORE_ENGINE_EVENT_H_
