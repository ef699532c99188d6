#ifndef UQSIM_CORE_ENGINE_EVENT_QUEUE_H_
#define UQSIM_CORE_ENGINE_EVENT_QUEUE_H_

/**
 * @file
 * Priority queue of events ordered by (time, sequence).
 *
 * All events are stored in increasing time order; every simulation
 * cycle the queue manager pops the earliest event (paper §III-A).
 *
 * Structure: event payloads (closure and label) live in fixed-size
 * slots carved from slab allocations (addresses stable for the
 * queue's lifetime) and recycled through a free list, so
 * steady-state scheduling touches no allocator.  The ready order is
 * a 4-ary min-heap of 16-byte entries: the firing time, then one key
 * word `sequence << 24 | slot`.  Sequence numbers are unique, so the
 * key orders ties by sequence alone and the slot never decides
 * order.  Each slot's heap position and generation sit in a dense
 * array beside the heap, so a sift, a re-key or a pending() check
 * touches only the heap and that array, never a slot.  Cancellation
 * removes the entry in O(log n) and recycles its slot at once.
 *
 * reserveSequence() takes the next sequence number without
 * scheduling anything; schedule() and rekey() can then place an
 * event under that number, so it sorts among ties as if it had been
 * scheduled at the moment of the reservation.  A fluid solver
 * reserves one number per re-timed flow and keeps one timer at the
 * earliest flow's (time, number) (hw/fluid_solver.h).  rekey() moves
 * a pending event with one in-place sift, keeping its slot and
 * closure; rekey(h, t, reserveSequence()) is cancel() plus schedule()
 * at t.  Keeping reserved numbers unique among pending events is the
 * caller's job, and auditCheck() reports a duplicate.  The key
 * packing bounds a queue to 2^40 sequence numbers and 2^24 slots;
 * past either it throws std::length_error.
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
class Digest;
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
        // Written out rather than shared with the overload below: a
        // helper here changes GCC's inlining in callers.
        requireSequence();
        const std::uint32_t index = acquireSlot();
        Slot& s = *slotPtr(index);
        s.action = EventAction(std::forward<F>(action));
        s.label = label;
        heapPush(HeapEntry{when, nextSequence_++ << kSlotBits | index});
        return EventHandle(this, index, marks_[index].generation);
    }

    /**
     * schedule() under @p sequence, a number reserveSequence() has
     * handed out, instead of the next one; takes no number.  Throws
     * std::invalid_argument, changing nothing, for a number not yet
     * handed out.
     */
    template <typename F>
    EventHandle
    schedule(SimTime when, F&& action, const char* label,
             std::uint64_t sequence)
    {
        requireReserved(sequence);
        const std::uint32_t index = acquireSlot();
        Slot& s = *slotPtr(index);
        s.action = EventAction(std::forward<F>(action));
        s.label = label;
        heapPush(HeapEntry{when, sequence << kSlotBits | index});
        return EventHandle(this, index, marks_[index].generation);
    }

    /**
     * Takes the next sequence number without scheduling anything, for
     * a later schedule() or rekey() under it.  Throws
     * std::length_error, changing nothing, once all kSequenceLimit
     * numbers are used.
     */
    std::uint64_t
    reserveSequence()
    {
        requireSequence();
        return nextSequence_++;
    }

    /**
     * Moves the pending event named by @p handle to (@p when,
     * @p sequence), where @p sequence is a number reserveSequence()
     * has handed out: the event keeps its slot and closure, the
     * slot's generation goes up by one, and @p handle moves to the
     * new generation (copies of the old handle stop being pending).
     * rekey(handle, when, reserveSequence()) is cancelling the event
     * and scheduling the same action and label at @p when, with one
     * sift instead of a closure rebuild.  Returns false and changes
     * nothing when @p handle names no pending event (fired,
     * cancelled, firing now, or a default handle); throws
     * std::invalid_argument, changing nothing, for a number not yet
     * handed out.
     */
    bool
    rekey(EventHandle& handle, SimTime when, std::uint64_t sequence)
    {
        if (handle.queue_ != this)
            return false;
        SlotMark& mark = marks_[handle.slot_];
        if (mark.generation != handle.generation_ || mark.heapIndex < 0)
            return false;
        requireReserved(sequence);
        const auto pos = static_cast<std::size_t>(mark.heapIndex);
        handle.generation_ = ++mark.generation;
        heapRekey(pos, heap_[pos],
                  HeapEntry{when, sequence << kSlotBits | handle.slot_});
        return true;
    }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events (cancelled entries are removed
     *  eagerly, so this is exact). */
    std::size_t size() const { return heap_.size(); }

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
        FiredEvent(EventQueue* queue, SimTime when, std::uint64_t key)
            : queue_(queue), when_(when), key_(key)
        {
        }

        FiredEvent(FiredEvent&& other) noexcept
            : queue_(other.queue_), when_(other.when_), key_(other.key_)
        {
            other.queue_ = nullptr;
        }

        FiredEvent(const FiredEvent&) = delete;
        FiredEvent& operator=(const FiredEvent&) = delete;
        FiredEvent& operator=(FiredEvent&&) = delete;

        ~FiredEvent()
        {
            if (queue_ != nullptr)
                queue_->releaseSlot(slotOf(key_));
        }

        explicit operator bool() const { return queue_ != nullptr; }

        SimTime when() const { return when_; }
        std::uint64_t sequence() const { return key_ >> kSlotBits; }
        const char*
        label() const
        {
            return queue_->slotPtr(slotOf(key_))->label;
        }

        /** Runs the event's action. */
        void invoke() { queue_->slotPtr(slotOf(key_))->action(); }

      private:
        EventQueue* queue_ = nullptr;
        SimTime when_ = 0;
        /** The popped heap entry's key. */
        std::uint64_t key_ = 0;
    };

    /** Removes and returns the earliest event; false-y when empty. */
    FiredEvent
    pop()
    {
        if (heap_.empty())
            return FiredEvent();
        const HeapEntry top = heap_.front();
        heapRemoveTop();
        marks_[slotOf(top.key)].heapIndex = kExecutingIndex;
        return FiredEvent(this, top.when, top.key);
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

    /** Sequence numbers handed out so far, by schedule() and
     *  reserveSequence() alike (diagnostics). */
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
     *   - position consistency (heap entry <-> slot's heap index),
     *     and every entry's sequence below the counter and unique
     *     among the pending entries,
     *   - pool accounting: pending + free == capacity, with no slot
     *     stuck in the "executing" state (a leaked FiredEvent).
     * Returns one message per violation; empty when consistent.
     * O(capacity); intended for audit mode and tests, not the hot
     * path.  Must be called between events (no FiredEvent alive).
     */
    std::vector<std::string> auditCheck() const;

    // Snapshot support (snapshot.h) ---------------------------------

    /**
     * Folds the queue's bookkeeping into @p digest: sequence counter,
     * heap/pool/free-list sizes, the pending multiset in sorted
     * (when, sequence, label) order, and the per-slot generation
     * counters in slot order.  Events themselves are closures and
     * are *not* folded; restore replays them (see snapshot.h).  Must
     * be called between events.
     */
    void foldState(snapshot::Digest& digest) const;

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
        const SlotMark& mark = marks_[index];
        if (mark.generation != generation)
            return false;
        if (mark.heapIndex == kExecutingIndex)
            return true;
        if (mark.heapIndex < 0)
            return false;
        heapRemoveAt(static_cast<std::size_t>(mark.heapIndex));
        releaseSlot(index);
        return true;
    }

    /** True when the slot still names a pending (or currently
     *  firing) event. */
    bool
    slotPending(std::uint32_t index, std::uint32_t generation) const
    {
        const SlotMark& mark = marks_[index];
        return mark.generation == generation &&
               mark.heapIndex != kFreeIndex;
    }

    /** Bits of a heap key that name the slot; the rest hold the
     *  sequence number. */
    static constexpr unsigned kSlotBits = 24;
    /** Slots a queue may carve: slot indices fit kSlotBits. */
    static constexpr std::size_t kSlotLimit = std::size_t{1}
                                              << kSlotBits;
    /** Sequence numbers a queue may assign. */
    static constexpr std::uint64_t kSequenceLimit = std::uint64_t{1}
                                                    << (64 - kSlotBits);

  private:
    friend class FiredEvent;
    /** Tests reach the counters to hit the key bounds without 2^40
     *  schedules or a 2^24-slot pool. */
    friend struct EventQueueBoundsProbe;

    static constexpr std::size_t kSlabBits = 8;
    static constexpr std::size_t kSlabSize = std::size_t{1}
                                             << kSlabBits;
    static constexpr std::size_t kSlabMask = kSlabSize - 1;
    static constexpr std::int32_t kFreeIndex = -1;
    static constexpr std::int32_t kExecutingIndex = -2;
    static constexpr std::uint64_t kSlotMask = kSlotLimit - 1;

    /** An event's payload; its time and sequence live in its heap
     *  entry (or, once popped, in the FiredEvent). */
    struct Slot {
        EventAction action;
        const char* label = "";
    };

    /** A slot's heap position (or kFreeIndex / kExecutingIndex) and
     *  generation, kept apart from the slot in marks_. */
    struct SlotMark {
        std::int32_t heapIndex = kFreeIndex;
        std::uint32_t generation = 0;
    };

    struct HeapEntry {
        SimTime when;
        /** sequence << kSlotBits | slot */
        std::uint64_t key;

        std::uint64_t sequence() const { return key >> kSlotBits; }

        bool
        before(const HeapEntry& other) const
        {
            if (when != other.when)
                return when < other.when;
            return key < other.key;
        }
    };
    static_assert(sizeof(HeapEntry) == 16);

    static std::uint32_t
    slotOf(std::uint64_t key)
    {
        return static_cast<std::uint32_t>(key & kSlotMask);
    }

    /** Throws std::length_error once every sequence number the key
     *  can hold has been assigned; changes nothing. */
    void
    requireSequence() const
    {
        if (nextSequence_ >= kSequenceLimit)
            throwSequenceLimit();
    }
    [[noreturn]] static void throwSequenceLimit();

    /** Throws std::invalid_argument when @p sequence has not been
     *  handed out yet; changes nothing. */
    void
    requireReserved(std::uint64_t sequence) const
    {
        if (sequence >= nextSequence_)
            throwUnreserved(sequence);
    }
    [[noreturn]] void throwUnreserved(std::uint64_t sequence) const;


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

    /** Throws std::length_error, changing nothing, when the pool is
     *  full and already holds kSlotLimit slots. */
    std::uint32_t acquireSlot();
    void releaseSlot(std::uint32_t index);

    void heapPush(HeapEntry entry);
    void heapRemoveTop();
    void heapRemoveAt(std::size_t pos);
    /** Restores heap order after the entry at @p pos changed from
     *  @p old to @p moved. */
    void heapRekey(std::size_t pos, const HeapEntry& old,
                   const HeapEntry& moved);
    void siftUp(std::size_t pos, HeapEntry moving);
    void siftDown(std::size_t pos, HeapEntry moving);

    std::vector<std::unique_ptr<Slot[]>> slabs_;
    /** One mark per carved slot, by slot index. */
    std::vector<SlotMark> marks_;
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
