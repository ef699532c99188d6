#include "uqsim/core/engine/event_queue.h"

#include <algorithm>
#include <string>

#include "uqsim/snapshot/snapshot.h"

namespace uqsim {

std::uint32_t
EventQueue::acquireSlot()
{
    if (freeList_.empty()) {
        const std::uint32_t base =
            static_cast<std::uint32_t>(slabs_.size() * kSlabSize);
        slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
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
    Slot& s = *slotPtr(index);
    s.action.reset();
    s.heapIndex = kFreeIndex;
    ++s.generation;
    freeList_.push_back(index);
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
                std::to_string(heap_[pos].sequence) +
                ") sorts before its parent");
        }
    }

    // Back-pointers: a heap entry and its slot must agree.
    for (std::size_t pos = 0; pos < heap_.size(); ++pos) {
        const HeapEntry& entry = heap_[pos];
        if (entry.slot >= poolCapacity()) {
            violations.push_back("heap entry at position " +
                                 std::to_string(pos) +
                                 " names slot " +
                                 std::to_string(entry.slot) +
                                 " beyond the pool capacity");
            continue;
        }
        const Slot& s = *slotPtr(entry.slot);
        if (s.heapIndex != static_cast<std::int32_t>(pos)) {
            violations.push_back(
                "slot " + std::to_string(entry.slot) +
                " back-pointer is " + std::to_string(s.heapIndex) +
                " but the slot sits at heap position " +
                std::to_string(pos));
        }
        if (s.when != entry.when || s.sequence != entry.sequence) {
            violations.push_back(
                "slot " + std::to_string(entry.slot) +
                " payload (t, seq) disagrees with its heap entry");
        }
    }

    // Pool accounting: every carved slot is pending, free, or — only
    // while an event fires — executing.  auditCheck runs between
    // events, so an executing slot here is a leaked FiredEvent.
    std::size_t executing = 0;
    std::size_t marked_free = 0;
    for (std::uint32_t index = 0;
         index < static_cast<std::uint32_t>(poolCapacity()); ++index) {
        const Slot& s = *slotPtr(index);
        if (s.heapIndex == kExecutingIndex)
            ++executing;
        else if (s.heapIndex == kFreeIndex)
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
            if (have_floor && entry.sequence <= floor_seq)
                continue;
            if (chosen_pos == heap_.size() ||
                entry.sequence < chosen_seq) {
                chosen_seq = entry.sequence;
                chosen_pos = pos;
            }
        }
        if (chosen_pos == heap_.size())
            return FiredEvent();  // k beyond the tie group
        floor_seq = chosen_seq;
        have_floor = true;
    }
    const std::uint32_t slot = heap_[chosen_pos].slot;
    heapRemoveAt(chosen_pos);
    slotPtr(slot)->heapIndex = kExecutingIndex;
    return FiredEvent(this, slot);
}

std::uint64_t
EventQueue::pendingStateHash() const
{
    constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
    constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (const HeapEntry& entry : heap_) {
        const Slot& s = *slotPtr(entry.slot);
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

std::uint64_t
EventQueue::pendingDigest() const
{
    // Sorted (when, sequence) order — NOT heap layout order, which
    // depends on the insertion/removal history in ways the replayed
    // queue reproduces anyway but that would make the digest fragile
    // to future heap tweaks.  Labels are string literals with stable
    // content, so folding them pins *which* events are pending, not
    // just when.
    std::vector<const HeapEntry*> sorted;
    sorted.reserve(heap_.size());
    for (const HeapEntry& entry : heap_)
        sorted.push_back(&entry);
    std::sort(sorted.begin(), sorted.end(),
              [](const HeapEntry* a, const HeapEntry* b) {
                  return a->before(*b);
              });
    snapshot::Digest digest;
    for (const HeapEntry* entry : sorted) {
        digest.i64(entry->when);
        digest.u64(entry->sequence);
        digest.str(slotPtr(entry->slot)->label);
    }
    return digest.value();
}

std::uint64_t
EventQueue::generationDigest() const
{
    // Slot-index order: slot allocation is deterministic under
    // replay, so generation counters (and with them every live
    // EventHandle's validity) replay exactly.
    snapshot::Digest digest;
    for (std::uint32_t index = 0;
         index < static_cast<std::uint32_t>(poolCapacity()); ++index) {
        digest.u32(slotPtr(index)->generation);
    }
    return digest.value();
}

void
EventQueue::saveState(snapshot::SnapshotWriter& writer) const
{
    writer.putU64(nextSequence_);
    writer.putU64(heap_.size());
    writer.putU64(freeList_.size());
    writer.putU64(poolCapacity());
    writer.putU64(pendingDigest());
    writer.putU64(generationDigest());
}

void
EventQueue::loadState(snapshot::SnapshotReader& reader) const
{
    reader.requireU64("queue.next_sequence", nextSequence_);
    reader.requireU64("queue.pending", heap_.size());
    reader.requireU64("queue.free_slots", freeList_.size());
    reader.requireU64("queue.pool_capacity", poolCapacity());
    reader.requireU64("queue.pending_digest", pendingDigest());
    reader.requireU64("queue.generation_digest", generationDigest());
}

void
EventQueue::heapPush(std::uint32_t slot, SimTime when,
                     std::uint64_t sequence)
{
    heap_.push_back(HeapEntry{when, sequence, slot});
    siftUp(heap_.size() - 1, heap_.back());
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
    pos = static_cast<std::size_t>(
        slotPtr(last.slot)->heapIndex);
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
        slotPtr(p.slot)->heapIndex = static_cast<std::int32_t>(pos);
        pos = parent;
    }
    heap_[pos] = moving;
    slotPtr(moving.slot)->heapIndex = static_cast<std::int32_t>(pos);
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
        slotPtr(heap_[pos].slot)->heapIndex =
            static_cast<std::int32_t>(pos);
        pos = best;
    }
    heap_[pos] = moving;
    slotPtr(moving.slot)->heapIndex = static_cast<std::int32_t>(pos);
}

}  // namespace uqsim
