#ifndef UQSIM_CORE_ENGINE_EVENT_QUEUE_H_
#define UQSIM_CORE_ENGINE_EVENT_QUEUE_H_

/**
 * @file
 * Priority queue of events ordered by (time, sequence).
 *
 * All events are stored in increasing time order; every simulation
 * cycle the queue manager pops the earliest event (paper §III-A).
 *
 * Structure: event payloads live in fixed-size slots carved from
 * slab allocations (addresses stable for the queue's lifetime) and
 * recycled through a free list, so steady-state scheduling touches
 * no allocator.  The ready order is a 4-ary min-heap of (when,
 * sequence, slot) entries — comparisons stay within the contiguous
 * heap array, and the shallower tree beats a binary heap on the
 * sift-down-heavy pop/cancel mix.  Every slot stores its heap
 * position, so cancellation removes the entry in O(log n) instead
 * of the old lazy cancelled-flag purge; a cancelled slot is
 * recycled immediately.  rekey() moves a pending event to a new time
 * with one in-place sift, keeping its slot and closure; the outcome
 * is the one cancel() plus schedule() would give.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "uqsim/core/engine/event.h"
#include "uqsim/core/engine/sim_time.h"

namespace uqsim {

namespace snapshot {
class SnapshotWriter;
class SnapshotReader;
}  // namespace snapshot

/** Pooled min-heap of events with O(log n) cancellation. */
class EventQueue {
  public:
    EventQueue() = default;

    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /**
     * Schedules @p action to fire at absolute time @p when.  The
     * sequence number is assigned in call order; @p label must
     * outlive the event (string literal or stable member).
     * Returns a handle usable for cancellation.
     */
    template <typename F>
    EventHandle
    schedule(SimTime when, F&& action, const char* label = "callback")
    {
        const std::uint32_t index = acquireSlot();
        Slot& s = *slotPtr(index);
        s.action = EventAction(std::forward<F>(action));
        s.when = when;
        s.sequence = nextSequence_++;
        s.label = label;
        heapPush(index, when, s.sequence);
        return EventHandle(this, index, s.generation);
    }

    /**
     * Moves the pending event named by @p handle to time @p when.
     * Equivalent to cancelling it and scheduling the same action and
     * label at @p when: the event keeps its slot, the slot's
     * generation goes up by one, the event takes the next sequence
     * number, and @p handle moves to the new generation (copies of
     * the old handle stop being pending).  Unlike cancel plus
     * schedule, the closure stays where it is and the heap entry
     * sifts once.  Returns false and changes nothing when @p handle
     * names no pending event (fired, cancelled, firing now, or a
     * default handle).
     */
    bool
    rekey(EventHandle& handle, SimTime when)
    {
        if (handle.queue_ != this)
            return false;
        Slot& s = *slotPtr(handle.slot_);
        if (s.generation != handle.generation_ || s.heapIndex < 0)
            return false;
        const HeapEntry old{s.when, s.sequence, handle.slot_};
        s.when = when;
        s.sequence = nextSequence_++;
        handle.generation_ = ++s.generation;
        heapRekey(static_cast<std::size_t>(s.heapIndex), old,
                  HeapEntry{when, s.sequence, handle.slot_});
        return true;
    }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events (cancelled entries are removed
     *  eagerly, so this is exact). */
    std::size_t size() const { return heap_.size(); }

    /** Exact number of live pending events.  Alias of size(); kept
     *  for diagnostics parity with the lazy-purge queue. */
    std::size_t liveSize() const { return heap_.size(); }

    /** Firing time of the earliest event; kSimTimeMax if none. */
    SimTime
    nextTime() const
    {
        return heap_.empty() ? kSimTimeMax : heap_.front().when;
    }

    /**
     * The earliest event, removed from the heap and ready to fire.
     * Move-only RAII: the slot is recycled when the FiredEvent is
     * destroyed, after invoke().  Converts to false when the queue
     * was empty.
     */
    class FiredEvent {
      public:
        FiredEvent() = default;
        FiredEvent(EventQueue* queue, std::uint32_t slot)
            : queue_(queue), slot_(slot)
        {
        }

        FiredEvent(FiredEvent&& other) noexcept
            : queue_(other.queue_), slot_(other.slot_)
        {
            other.queue_ = nullptr;
        }

        FiredEvent(const FiredEvent&) = delete;
        FiredEvent& operator=(const FiredEvent&) = delete;
        FiredEvent& operator=(FiredEvent&&) = delete;

        ~FiredEvent()
        {
            if (queue_ != nullptr)
                queue_->releaseSlot(slot_);
        }

        explicit operator bool() const { return queue_ != nullptr; }

        SimTime when() const { return queue_->slotPtr(slot_)->when; }
        std::uint64_t
        sequence() const
        {
            return queue_->slotPtr(slot_)->sequence;
        }
        const char*
        label() const
        {
            return queue_->slotPtr(slot_)->label;
        }

        /** Runs the event's action. */
        void invoke() { queue_->slotPtr(slot_)->action(); }

      private:
        EventQueue* queue_ = nullptr;
        std::uint32_t slot_ = 0;
    };

    /** Removes and returns the earliest event; false-y when empty. */
    FiredEvent
    pop()
    {
        if (heap_.empty())
            return FiredEvent();
        const std::uint32_t top = heap_.front().slot;
        heapRemoveTop();
        slotPtr(top)->heapIndex = kExecutingIndex;
        return FiredEvent(this, top);
    }

    // Exploration support (not on the default hot path) --------------

    /**
     * Number of events tied at the earliest timestamp, capped at
     * @p cap.  O(pending) scan; only the schedule explorer calls it.
     */
    std::size_t tieGroupSize(std::size_t cap) const;

    /**
     * Removes and returns the event with the (k+1)-th smallest
     * sequence number among those tied at the earliest timestamp.
     * popTie(0) is exactly pop(); @p k must be < tieGroupSize.
     */
    FiredEvent popTie(std::size_t k);

    /**
     * Order-insensitive fingerprint of the pending-event multiset:
     * a commutative fold over (when, label) of every pending event,
     * deliberately excluding sequence numbers and slot indices so
     * that equivalent states reached through different histories
     * hash equally.  Used by the explorer's revisit pruning; O(n).
     */
    std::uint64_t pendingStateHash() const;

    /** Total number of events ever scheduled (diagnostics). */
    std::uint64_t scheduledCount() const { return nextSequence_; }

    /** Pool capacity in slots (diagnostics; high-water mark). */
    std::size_t
    poolCapacity() const
    {
        return slabs_.size() * kSlabSize;
    }

    /** Recycled slots currently on the free list (diagnostics). */
    std::size_t freeSlots() const { return freeList_.size(); }

    /**
     * Re-derives the queue's bookkeeping and cross-checks it
     * (engine invariant auditor):
     *   - 4-ary heap ordering on (when, sequence),
     *   - slot back-pointer consistency (heap entry <-> slot),
     *   - pool accounting: pending + free == capacity, with no slot
     *     stuck in the "executing" state (a leaked FiredEvent).
     * Returns one message per violation; empty when consistent.
     * O(capacity); intended for audit mode and tests, not the hot
     * path.  Must be called between events (no FiredEvent alive).
     */
    std::vector<std::string> auditCheck() const;

    // Snapshot support (snapshot.h) ---------------------------------

    /**
     * Serializes the queue's bookkeeping into the open snapshot
     * section: sequence counter, heap/pool/free-list sizes, and two
     * deterministic digests — the pending multiset in sorted (when,
     * sequence, label) order and the per-slot generation counters in
     * slot order.  Events themselves are closures and are *not*
     * written; restore replays them (see snapshot.h).  Must be
     * called between events.
     */
    void saveState(snapshot::SnapshotWriter& writer) const;

    /** Validates the live (replayed) queue against saveState()'s
     *  fields; throws SnapshotStateError on divergence. */
    void loadState(snapshot::SnapshotReader& reader) const;

    // Used by EventHandle -------------------------------------------

    /**
     * Cancels slot @p index if @p generation still matches.  An
     * event that already fired (generation bumped) is a no-op
     * returning false; the currently-executing event reports true
     * without effect, mirroring the old cancelled-flag semantics.
     */
    bool
    cancelSlot(std::uint32_t index, std::uint32_t generation)
    {
        Slot& s = *slotPtr(index);
        if (s.generation != generation)
            return false;
        if (s.heapIndex == kExecutingIndex)
            return true;
        if (s.heapIndex < 0)
            return false;
        heapRemoveAt(static_cast<std::size_t>(s.heapIndex));
        releaseSlot(index);
        return true;
    }

    /** True when the slot still names a pending (or currently
     *  firing) event. */
    bool
    slotPending(std::uint32_t index, std::uint32_t generation) const
    {
        const Slot& s = *slotPtr(index);
        return s.generation == generation &&
               s.heapIndex != kFreeIndex;
    }

  private:
    friend class FiredEvent;

    static constexpr std::size_t kSlabBits = 8;
    static constexpr std::size_t kSlabSize = std::size_t{1}
                                             << kSlabBits;
    static constexpr std::size_t kSlabMask = kSlabSize - 1;
    static constexpr std::int32_t kFreeIndex = -1;
    static constexpr std::int32_t kExecutingIndex = -2;

    struct Slot {
        EventAction action;
        SimTime when = 0;
        std::uint64_t sequence = 0;
        const char* label = "";
        std::uint32_t generation = 0;
        std::int32_t heapIndex = kFreeIndex;
    };

    struct HeapEntry {
        SimTime when;
        std::uint64_t sequence;
        std::uint32_t slot;

        bool
        before(const HeapEntry& other) const
        {
            if (when != other.when)
                return when < other.when;
            return sequence < other.sequence;
        }
    };

    Slot*
    slotPtr(std::uint32_t index)
    {
        return &slabs_[index >> kSlabBits][index & kSlabMask];
    }
    const Slot*
    slotPtr(std::uint32_t index) const
    {
        return &slabs_[index >> kSlabBits][index & kSlabMask];
    }

    std::uint32_t acquireSlot();
    void releaseSlot(std::uint32_t index);

    /** Ordered fold over the pending multiset (snapshot digest). */
    std::uint64_t pendingDigest() const;
    /** Fold over per-slot generations in slot order (snapshot
     *  digest; pins handle-generation state). */
    std::uint64_t generationDigest() const;

    void heapPush(std::uint32_t slot, SimTime when,
                  std::uint64_t sequence);
    void heapRemoveTop();
    void heapRemoveAt(std::size_t pos);
    /** Restores heap order after the entry at @p pos changed from
     *  @p old to @p moved. */
    void heapRekey(std::size_t pos, const HeapEntry& old,
                   const HeapEntry& moved);
    void siftUp(std::size_t pos, HeapEntry moving);
    void siftDown(std::size_t pos, HeapEntry moving);

    std::vector<std::unique_ptr<Slot[]>> slabs_;
    std::vector<std::uint32_t> freeList_;
    std::vector<HeapEntry> heap_;
    std::uint64_t nextSequence_ = 0;
};

inline bool
EventHandle::cancel()
{
    return queue_ != nullptr && queue_->cancelSlot(slot_, generation_);
}

inline bool
EventHandle::pending() const
{
    return queue_ != nullptr && queue_->slotPending(slot_, generation_);
}

}  // namespace uqsim

#endif  // UQSIM_CORE_ENGINE_EVENT_QUEUE_H_
