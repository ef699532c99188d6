#include "uqsim/core/engine/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "uqsim/snapshot/snapshot.h"

namespace uqsim {

std::uint32_t
EventQueue::acquireSlot()
{
    if (freeList_.empty()) {
        if (poolCapacity() + kSlabSize > kSlotLimit) {
            throw std::length_error(
                "event queue: more than " + std::to_string(kSlotLimit) +
                " events pending at once (heap keys hold " +
                std::to_string(kSlotBits) + "-bit slot indices)");
        }
        const std::uint32_t base =
            static_cast<std::uint32_t>(slabs_.size() * kSlabSize);
        slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
        marks_.resize(poolCapacity());
        freeList_.reserve(kSlabSize);
        // Reversed so the lowest index is handed out first.
        for (std::size_t i = kSlabSize; i-- > 0;) {
            freeList_.push_back(base +
                                static_cast<std::uint32_t>(i));
        }
    }
    const std::uint32_t index = freeList_.back();
    freeList_.pop_back();
    return index;
}

void
EventQueue::releaseSlot(std::uint32_t index)
{
    slotPtr(index)->action.reset();
    SlotMark& mark = marks_[index];
    mark.heapIndex = kFreeIndex;
    ++mark.generation;
    freeList_.push_back(index);
}

void
EventQueue::throwSequenceLimit()
{
    throw std::length_error(
        "event queue: all " + std::to_string(kSequenceLimit) +
        " sequence numbers are used (heap keys hold " +
        std::to_string(64 - kSlotBits) + "-bit sequence numbers)");
}

void
EventQueue::throwUnreserved(std::uint64_t sequence) const
{
    throw std::invalid_argument(
        "event queue: sequence " + std::to_string(sequence) +
        " was never reserved (counter at " +
        std::to_string(nextSequence_) + ")");
}

std::vector<std::string>
EventQueue::auditCheck() const
{
    std::vector<std::string> violations;

    // Heap ordering: every entry sorts at or after its parent.
    for (std::size_t pos = 1; pos < heap_.size(); ++pos) {
        const std::size_t parent = (pos - 1) >> 2;
        if (heap_[pos].before(heap_[parent])) {
            violations.push_back(
                "heap order violated at position " +
                std::to_string(pos) + ": child (t=" +
                std::to_string(heap_[pos].when) + ", seq=" +
                std::to_string(heap_[pos].sequence()) +
                ") sorts before its parent");
        }
    }

    // Positions: a heap entry and its slot's mark must agree, and
    // its sequence number must have been handed out.
    for (std::size_t pos = 0; pos < heap_.size(); ++pos) {
        const HeapEntry& entry = heap_[pos];
        const std::uint32_t slot = slotOf(entry.key);
        if (slot >= poolCapacity()) {
            violations.push_back("heap entry at position " +
                                 std::to_string(pos) +
                                 " names slot " +
                                 std::to_string(slot) +
                                 " beyond the pool capacity");
            continue;
        }
        if (marks_[slot].heapIndex != static_cast<std::int32_t>(pos)) {
            violations.push_back(
                "slot " + std::to_string(slot) + " heap position is " +
                std::to_string(marks_[slot].heapIndex) +
                " but the slot sits at heap position " +
                std::to_string(pos));
        }
        if (entry.sequence() >= nextSequence_) {
            violations.push_back(
                "slot " + std::to_string(slot) + " sequence " +
                std::to_string(entry.sequence()) +
                " was never assigned (counter at " +
                std::to_string(nextSequence_) + ")");
        }
    }

    // Uniqueness: sequence numbers order ties, so two pending entries
    // under one reserved number would tie on the slot instead.
    std::vector<std::uint64_t> keys;
    keys.reserve(heap_.size());
    for (const HeapEntry& entry : heap_)
        keys.push_back(entry.key);
    std::sort(keys.begin(), keys.end());
    for (std::size_t i = 1; i < keys.size(); ++i) {
        if ((keys[i] >> kSlotBits) == (keys[i - 1] >> kSlotBits)) {
            violations.push_back(
                "slots " + std::to_string(slotOf(keys[i - 1])) +
                " and " + std::to_string(slotOf(keys[i])) +
                " are both pending under sequence " +
                std::to_string(keys[i] >> kSlotBits));
        }
    }

    // Pool accounting: every carved slot is pending, free, or — only
    // while an event fires — executing.  auditCheck runs between
    // events, so an executing slot here is a leaked FiredEvent.
    std::size_t executing = 0;
    std::size_t marked_free = 0;
    for (const SlotMark& mark : marks_) {
        if (mark.heapIndex == kExecutingIndex)
            ++executing;
        else if (mark.heapIndex == kFreeIndex)
            ++marked_free;
    }
    if (executing > 0) {
        violations.push_back(
            std::to_string(executing) +
            " slot(s) stuck in the executing state (leaked "
            "FiredEvent)");
    }
    if (marked_free != freeList_.size()) {
        violations.push_back(
            "free accounting mismatch: " +
            std::to_string(marked_free) +
            " slot(s) marked free but the free list holds " +
            std::to_string(freeList_.size()));
    }
    if (heap_.size() + freeList_.size() + executing !=
        poolCapacity()) {
        violations.push_back(
            "pool accounting mismatch: pending " +
            std::to_string(heap_.size()) + " + free " +
            std::to_string(freeList_.size()) + " + executing " +
            std::to_string(executing) + " != capacity " +
            std::to_string(poolCapacity()));
    }
    return violations;
}

std::size_t
EventQueue::tieGroupSize(std::size_t cap) const
{
    if (heap_.empty() || cap == 0)
        return 0;
    const SimTime front = heap_.front().when;
    std::size_t count = 0;
    for (const HeapEntry& entry : heap_) {
        if (entry.when == front && ++count >= cap)
            break;
    }
    return count;
}

EventQueue::FiredEvent
EventQueue::popTie(std::size_t k)
{
    if (heap_.empty())
        return FiredEvent();
    if (k == 0)
        return pop();
    const SimTime front = heap_.front().when;
    // Select the (k+1)-th smallest sequence among the tie group.
    // The tie group is small (bounded by the explorer's branching
    // cap in practice), so a linear selection is fine.
    std::uint64_t chosen_seq = 0;
    std::size_t chosen_pos = heap_.size();
    std::uint64_t floor_seq = 0;  // sequences <= floor already taken
    bool have_floor = false;
    for (std::size_t round = 0; round <= k; ++round) {
        chosen_pos = heap_.size();
        for (std::size_t pos = 0; pos < heap_.size(); ++pos) {
            const HeapEntry& entry = heap_[pos];
            if (entry.when != front)
                continue;
            if (have_floor && entry.sequence() <= floor_seq)
                continue;
            if (chosen_pos == heap_.size() ||
                entry.sequence() < chosen_seq) {
                chosen_seq = entry.sequence();
                chosen_pos = pos;
            }
        }
        if (chosen_pos == heap_.size())
            return FiredEvent();  // k beyond the tie group
        floor_seq = chosen_seq;
        have_floor = true;
    }
    const HeapEntry chosen = heap_[chosen_pos];
    heapRemoveAt(chosen_pos);
    marks_[slotOf(chosen.key)].heapIndex = kExecutingIndex;
    return FiredEvent(this, chosen.when, chosen.key);
}

std::uint64_t
EventQueue::pendingStateHash() const
{
    constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
    constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const HeapEntry& entry : heap_) {
        const Slot& s = *slotPtr(slotOf(entry.key));
        // Hash the label by content: literal addresses are not
        // stable enough to compare fingerprints across schedules.
        std::uint64_t label = kFnvOffset;
        for (const char* p = s.label; *p != '\0'; ++p) {
            label = (label ^ static_cast<unsigned char>(*p)) *
                    kFnvPrime;
        }
        std::uint64_t x =
            static_cast<std::uint64_t>(entry.when) ^ label;
        // splitmix64-style finalizer, then a commutative fold so
        // heap layout (and pop order history) cannot matter.
        x ^= x >> 30;
        x *= 0xBF58476D1CE4E5B9ULL;
        x ^= x >> 27;
        x *= 0x94D049BB133111EBULL;
        x ^= x >> 31;
        h += x;
    }
    return h;
}

void
EventQueue::foldState(snapshot::Digest& digest) const
{
    digest.u64(nextSequence_);
    digest.u64(heap_.size());
    digest.u64(freeList_.size());
    digest.u64(poolCapacity());
    // Pending events in sorted (when, sequence) order — NOT heap
    // layout order, which depends on the insertion/removal history in
    // ways the replayed queue reproduces anyway but that would make
    // the fold fragile to future heap tweaks.  Labels are string
    // literals with stable content, so folding them pins *which*
    // events are pending, not just when.
    std::vector<const HeapEntry*> sorted;
    sorted.reserve(heap_.size());
    for (const HeapEntry& entry : heap_)
        sorted.push_back(&entry);
    std::sort(sorted.begin(), sorted.end(),
              [](const HeapEntry* a, const HeapEntry* b) {
                  return a->before(*b);
              });
    for (const HeapEntry* entry : sorted) {
        digest.i64(entry->when);
        digest.u64(entry->sequence());
        digest.str(slotPtr(slotOf(entry->key))->label);
    }
    // Slot-index order: slot allocation is deterministic under
    // replay, so generation counters (and with them every live
    // EventHandle's validity) replay exactly.
    for (const SlotMark& mark : marks_)
        digest.u32(mark.generation);
}

void
EventQueue::heapPush(HeapEntry entry)
{
    heap_.push_back(entry);
    siftUp(heap_.size() - 1, entry);
}

void
EventQueue::heapRemoveTop()
{
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        siftDown(0, last);
}

void
EventQueue::heapRemoveAt(std::size_t pos)
{
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size())
        return;
    // The replacement may belong above or below the vacated
    // position; try both directions (one is a no-op).
    siftDown(pos, last);
    pos = static_cast<std::size_t>(marks_[slotOf(last.key)].heapIndex);
    siftUp(pos, heap_[pos]);
}

void
EventQueue::heapRekey(std::size_t pos, const HeapEntry& old,
                      const HeapEntry& moved)
{
    // The parent sorts before old and the children after it, so an
    // earlier key can only move up and a later one only down.
    if (moved.before(old))
        siftUp(pos, moved);
    else
        siftDown(pos, moved);
}

void
EventQueue::siftUp(std::size_t pos, HeapEntry moving)
{
    while (pos > 0) {
        const std::size_t parent = (pos - 1) >> 2;
        const HeapEntry& p = heap_[parent];
        if (p.before(moving))
            break;
        heap_[pos] = p;
        marks_[slotOf(p.key)].heapIndex = static_cast<std::int32_t>(pos);
        pos = parent;
    }
    heap_[pos] = moving;
    marks_[slotOf(moving.key)].heapIndex = static_cast<std::int32_t>(pos);
}

void
EventQueue::siftDown(std::size_t pos, HeapEntry moving)
{
    const std::size_t n = heap_.size();
    while (true) {
        const std::size_t first = pos * 4 + 1;
        if (first >= n)
            break;
        const std::size_t end = first + 4 < n ? first + 4 : n;
        std::size_t best = first;
        for (std::size_t c = first + 1; c < end; ++c) {
            if (heap_[c].before(heap_[best]))
                best = c;
        }
        if (moving.before(heap_[best]))
            break;
        heap_[pos] = heap_[best];
        marks_[slotOf(heap_[pos].key)].heapIndex =
            static_cast<std::int32_t>(pos);
        pos = best;
    }
    heap_[pos] = moving;
    marks_[slotOf(moving.key)].heapIndex = static_cast<std::int32_t>(pos);
}

}  // namespace uqsim
