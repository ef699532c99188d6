/**
 * @file
 * Unit tests for the DES engine: time, events, queue ordering,
 * cancellation, re-keying, the slab event pool with
 * generation-stamped handles, and the simulator run loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "uqsim/core/engine/event_queue.h"
#include "uqsim/core/engine/inline_function.h"
#include "uqsim/core/engine/simulator.h"
#include "uqsim/random/rng.h"
#include "uqsim/snapshot/snapshot.h"

namespace uqsim {
namespace {

// -------------------------------------------------------------- SimTime

TEST(SimTime, Conversions)
{
    EXPECT_EQ(secondsToSimTime(1.0), kSecond);
    EXPECT_EQ(secondsToSimTime(0.001), kMillisecond);
    EXPECT_EQ(secondsToSimTime(2.5e-6), 2500 * kNanosecond);
    EXPECT_DOUBLE_EQ(simTimeToSeconds(kSecond), 1.0);
    EXPECT_DOUBLE_EQ(simTimeToMillis(kSecond), 1000.0);
    EXPECT_DOUBLE_EQ(simTimeToMicros(kMillisecond), 1000.0);
}

TEST(SimTime, RoundsToNearestTick)
{
    EXPECT_EQ(secondsToSimTime(1.4e-9), 1);
    EXPECT_EQ(secondsToSimTime(1.6e-9), 2);
    EXPECT_EQ(secondsToSimTime(0.0), 0);
}

TEST(SimTime, Formatting)
{
    EXPECT_EQ(formatSimTime(500), "500ns");
    EXPECT_NE(formatSimTime(12 * kMicrosecond).find("us"),
              std::string::npos);
    EXPECT_NE(formatSimTime(3 * kMillisecond).find("ms"),
              std::string::npos);
    EXPECT_NE(formatSimTime(2 * kSecond).find("s"), std::string::npos);
}

// -------------------------------------------------------- InlineFunction

TEST(InlineFunction, HoldsMoveOnlyCallables)
{
    auto value = std::make_unique<int>(41);
    InlineFunction<int(), 64> fn =
        [v = std::move(value)]() { return *v + 1; };
    EXPECT_TRUE(static_cast<bool>(fn));
    EXPECT_TRUE(fn.storedInline());
    EXPECT_EQ(fn(), 42);

    InlineFunction<int(), 64> moved = std::move(fn);
    EXPECT_FALSE(static_cast<bool>(fn));
    EXPECT_EQ(moved(), 42);
}

TEST(InlineFunction, OversizedCapturesFallBackToHeap)
{
    struct Big {
        char bytes[200] = {};
    };
    Big big;
    big.bytes[0] = 7;
    InlineFunction<int(), 64> fn =
        [big]() { return static_cast<int>(big.bytes[0]); };
    EXPECT_FALSE(fn.storedInline());
    EXPECT_EQ(fn(), 7);
}

/** Counts destructions of a capture's live copy; a moved-from copy
 *  is not live, so each callable counts exactly once. */
struct LiveCount {
    explicit LiveCount(int* counter) : destroyed(counter) {}
    LiveCount(LiveCount&& other) noexcept : destroyed(other.destroyed)
    {
        other.destroyed = nullptr;
    }
    LiveCount(const LiveCount&) = delete;
    LiveCount& operator=(const LiveCount&) = delete;
    ~LiveCount()
    {
        if (destroyed != nullptr)
            ++*destroyed;
    }

    int* destroyed;
};

/** A callable of exactly @p Bytes bytes. */
template <std::size_t Bytes>
struct Spill {
    LiveCount count;
    int value;
    unsigned char pad[Bytes - sizeof(LiveCount) - sizeof(int)] = {};

    int operator()() const { return value; }
};

/** Over-aligned: answers its value only from a 64-aligned address. */
struct alignas(64) AlignedSpill {
    LiveCount count;
    int value;

    int
    operator()() const
    {
        return reinterpret_cast<std::uintptr_t>(this) % 64 == 0 ? value
                                                                : -1;
    }
};

template <typename Fn>
void
expectSpillRoundTrip(int value)
{
    int destroyed = 0;
    {
        InlineFunction<int(), 64> fn = Fn{LiveCount(&destroyed), value};
        EXPECT_FALSE(fn.storedInline());
        EXPECT_EQ(fn(), value);
        InlineFunction<int(), 64> moved = std::move(fn);
        EXPECT_EQ(moved(), value);
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(InlineFunction, SpilledCallablesRunAndDieOnce)
{
    static_assert(sizeof(Spill<72>) == 72);
    static_assert(sizeof(Spill<200>) == 200);
    static_assert(sizeof(Spill<600>) == 600);
    expectSpillRoundTrip<Spill<72>>(72);
    expectSpillRoundTrip<Spill<200>>(200);
    // Past the largest pooled class, and over-aligned: plain new.
    expectSpillRoundTrip<Spill<600>>(600);
    expectSpillRoundTrip<AlignedSpill>(64);
}

/** A callable of @p Bytes bytes answering its own address. */
template <std::size_t Bytes>
struct Where {
    unsigned char pad[Bytes] = {};

    const void* operator()() const { return this; }
};

TEST(InlineFunction, SameClassSpillReusesTheFreedBlock)
{
    InlineFunction<const void*(), 64> first = Where<200>{};
    const void* block = first();
    first.reset();
    // 200 and 240 bytes share the 256-byte class.
    InlineFunction<const void*(), 64> second = Where<240>{};
    EXPECT_EQ(second(), block);
    InlineFunction<const void*(), 64> moved = std::move(second);
    EXPECT_EQ(moved(), block);
}

TEST(InlineFunction, SpillMayDieOnAnotherThread)
{
    int destroyed = 0;
    InlineFunction<int(), 64> made_there;
    std::thread([&] {
        made_there = Spill<200>{LiveCount(&destroyed), 1};
    }).join();
    EXPECT_EQ(made_there(), 1);
    made_there.reset();
    EXPECT_EQ(destroyed, 1);

    InlineFunction<int(), 64> made_here =
        Spill<200>{LiveCount(&destroyed), 2};
    int answer = 0;
    std::thread([&] {
        answer = made_here();
        made_here.reset();
    }).join();
    EXPECT_EQ(answer, 2);
    EXPECT_EQ(destroyed, 2);
}

// ------------------------------------------------------------ EventQueue

TEST(EventQueue, PopsInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(30, [&order]() { order.push_back(3); });
    queue.schedule(10, [&order]() { order.push_back(1); });
    queue.schedule(20, [&order]() { order.push_back(2); });
    while (!queue.empty()) {
        EventQueue::FiredEvent event = queue.pop();
        event.invoke();
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesAreFifo)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i)
        queue.schedule(100, [&order, i]() { order.push_back(i); });
    while (!queue.empty()) {
        EventQueue::FiredEvent event = queue.pop();
        event.invoke();
    }
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest)
{
    EventQueue queue;
    EXPECT_EQ(queue.nextTime(), kSimTimeMax);
    queue.schedule(42, [] {});
    EXPECT_EQ(queue.nextTime(), 42);
}

TEST(EventQueue, PopOnEmptyIsFalsey)
{
    EventQueue queue;
    EXPECT_FALSE(queue.pop());
}

TEST(EventQueue, CancellationDropsEvent)
{
    EventQueue queue;
    bool fired = false;
    EventHandle handle =
        queue.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(handle.pending());
    EXPECT_TRUE(handle.cancel());
    EXPECT_FALSE(handle.pending());
    EXPECT_TRUE(queue.empty());
    EXPECT_FALSE(queue.pop());
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelledBehindLiveEvent)
{
    EventQueue queue;
    bool live_fired = false;
    queue.schedule(5, [&] { live_fired = true; });
    EventHandle handle = queue.schedule(10, [] {});
    handle.cancel();
    EXPECT_FALSE(queue.empty());
    queue.pop().invoke();
    EXPECT_TRUE(live_fired);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, HandleAfterExecutionIsNotPending)
{
    EventQueue queue;
    EventHandle handle = queue.schedule(1, [] {});
    queue.pop().invoke();
    EXPECT_FALSE(handle.pending());
    EXPECT_FALSE(handle.cancel());
}

TEST(EventQueue, DefaultHandleIsInert)
{
    EventHandle handle;
    EXPECT_FALSE(handle.pending());
    EXPECT_FALSE(handle.cancel());
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsNoOp)
{
    // Cancel frees the slot; the next schedule reuses it with a
    // bumped generation.  The stale handle must neither cancel nor
    // report the new occupant as pending.
    EventQueue queue;
    EventHandle first = queue.schedule(10, [] {});
    ASSERT_TRUE(first.cancel());
    bool second_fired = false;
    EventHandle second =
        queue.schedule(20, [&] { second_fired = true; });
    EXPECT_FALSE(first.pending());
    EXPECT_FALSE(first.cancel());
    EXPECT_TRUE(second.pending());
    queue.pop().invoke();
    EXPECT_TRUE(second_fired);
}

TEST(EventQueue, CancelThenPopKeepsOrdering)
{
    // Cancelling interior heap entries (O(log n) removal) must not
    // disturb the (when, sequence) pop order of the survivors.
    EventQueue queue;
    std::vector<int> order;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 20; ++i) {
        handles.push_back(queue.schedule(
            static_cast<SimTime>(100 - i * 5),
            [&order, i]() { order.push_back(i); }));
    }
    for (int i = 0; i < 20; i += 2)
        EXPECT_TRUE(handles[static_cast<std::size_t>(i)].cancel());
    EXPECT_EQ(queue.size(), 10u);
    while (!queue.empty())
        queue.pop().invoke();
    // Odd ids survive; later ids have earlier times.
    const std::vector<int> expected = {19, 17, 15, 13, 11,
                                       9,  7,  5,  3,  1};
    EXPECT_EQ(order, expected);
}

TEST(EventQueue, SelfCancelDuringExecutionIsSafe)
{
    // An event cancelling its own handle while firing matches the
    // old cancelled-flag semantics: reports success, no effect, and
    // the slot is still recycled cleanly afterwards.
    EventQueue queue;
    EventHandle handle;
    int fired = 0;
    handle = queue.schedule(5, [&]() {
        ++fired;
        EXPECT_TRUE(handle.cancel());
    });
    queue.pop().invoke();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(handle.pending());
    // The queue keeps working after the self-cancel.
    queue.schedule(6, [&]() { ++fired; });
    queue.pop().invoke();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EagerCancelReclaimsSlots)
{
    // Timeout-style workload: every event is scheduled far in the
    // future and cancelled almost immediately.  Cancellation removes
    // the heap entry eagerly and recycles the slot, so both the heap
    // and the slab pool stay near the live population instead of
    // growing with the cancellation churn.
    EventQueue queue;
    std::vector<EventHandle> live;
    for (int i = 0; i < 100000; ++i) {
        EventHandle handle = queue.schedule(
            static_cast<SimTime>(1000000 + i), [] {});
        if (i % 100 == 0)
            live.push_back(handle);  // 1% survive
        else
            EXPECT_TRUE(handle.cancel());
    }
    EXPECT_EQ(queue.size(), live.size());
    EXPECT_EQ(queue.liveSize(), live.size());
    // 1000 live slots; the pool holds them plus at most a slab of
    // slack, nowhere near the 100000 the purge-based queue flirted
    // with before its scans kicked in.
    EXPECT_LT(queue.poolCapacity(), 2048u);
    for (EventHandle& handle : live)
        EXPECT_TRUE(handle.pending());
}

TEST(EventQueue, RandomScheduleCancelMatchesSortedReference)
{
    // 10k random schedule/cancel operations checked against a plain
    // sorted reference: the 4-ary index-tracked heap must pop the
    // exact (when, sequence) order the spec demands.
    struct Ref {
        SimTime when;
        std::uint64_t sequence;
        int id;
    };
    random::Rng rng(20260806);
    EventQueue queue;
    std::vector<Ref> reference;
    std::vector<int> fired;
    std::vector<std::pair<int, EventHandle>> cancellable;
    std::uint64_t sequence = 0;
    int next_id = 0;
    for (int op = 0; op < 10000; ++op) {
        const bool do_cancel =
            !cancellable.empty() && rng.nextBounded(100) < 40;
        if (do_cancel) {
            const std::size_t pick = static_cast<std::size_t>(
                rng.nextBounded(
                    static_cast<std::uint64_t>(cancellable.size())));
            const int id = cancellable[pick].first;
            EXPECT_TRUE(cancellable[pick].second.cancel());
            cancellable.erase(cancellable.begin() +
                              static_cast<std::ptrdiff_t>(pick));
            reference.erase(
                std::find_if(reference.begin(), reference.end(),
                             [id](const Ref& r) {
                                 return r.id == id;
                             }));
        } else {
            const SimTime when =
                static_cast<SimTime>(rng.nextBounded(5000));
            const int id = next_id++;
            EventHandle handle = queue.schedule(
                when, [&fired, id]() { fired.push_back(id); });
            reference.push_back(Ref{when, sequence, id});
            // Keep roughly half of the live events cancellable.
            if (rng.nextBounded(2) == 0)
                cancellable.emplace_back(id, handle);
        }
        ++sequence;
    }
    std::sort(reference.begin(), reference.end(),
              [](const Ref& a, const Ref& b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  return a.sequence < b.sequence;
              });
    ASSERT_EQ(queue.size(), reference.size());
    while (!queue.empty()) {
        EventQueue::FiredEvent event = queue.pop();
        event.invoke();
    }
    ASSERT_EQ(fired.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_EQ(fired[i], reference[i].id) << "at pop " << i;
}

TEST(EventQueue, MoveOnlyActionsAreSupported)
{
    EventQueue queue;
    auto payload = std::make_unique<int>(9);
    int seen = 0;
    queue.schedule(1, [p = std::move(payload), &seen]() { seen = *p; });
    queue.pop().invoke();
    EXPECT_EQ(seen, 9);
}

// ------------------------------------------------------------- re-keying

/** The queue's ENGINE snapshot fields (sequence counter, sizes,
 *  pending and generation digests) as assembled bytes. */
std::vector<std::uint8_t>
engineSection(const EventQueue& queue)
{
    snapshot::SnapshotWriter writer;
    writer.beginSection(snapshot::SectionId::Engine);
    queue.saveState(writer);
    writer.endSection();
    return writer.assemble();
}

TEST(EventQueue, RekeyMatchesCancelPlusSchedule)
{
    // Two queues see one seeded stream of schedule, cancel, re-time
    // and pop operations.  `plain` re-times with cancel() plus
    // schedule() of a rebuilt action; `keyed` re-keys in place.
    // After every operation the two must be indistinguishable.
    struct Event {
        const char* label;
        EventHandle plain;
        EventHandle keyed;
    };
    const char* const kLabels[] = {"a", "b", "c"};
    random::Rng rng(20261017);
    EventQueue plain;
    EventQueue keyed;
    std::vector<Event> events;
    std::vector<std::size_t> plainFired;
    std::vector<std::size_t> keyedFired;
    SimTime now = 0;
    int rekeyed = 0;
    for (int op = 0; op < 4000; ++op) {
        const std::uint64_t kind = rng.nextBounded(100);
        if (kind < 30 || events.empty()) {
            const SimTime when =
                now + static_cast<SimTime>(rng.nextBounded(200));
            const std::size_t id = events.size();
            const char* label = kLabels[rng.nextBounded(3)];
            events.push_back(Event{
                label,
                plain.schedule(
                    when, [&plainFired, id]() { plainFired.push_back(id); },
                    label),
                keyed.schedule(
                    when, [&keyedFired, id]() { keyedFired.push_back(id); },
                    label)});
        } else if (kind < 75) {
            // Re-time or cancel a recent event, live or not.
            const std::size_t window =
                std::min<std::size_t>(events.size(), 48);
            const std::size_t id =
                events.size() - 1 -
                static_cast<std::size_t>(rng.nextBounded(window));
            Event& event = events[id];
            const bool pending = event.plain.pending();
            ASSERT_EQ(event.keyed.pending(), pending) << "op " << op;
            if (kind < 60) {
                const SimTime when =
                    now + static_cast<SimTime>(rng.nextBounded(200));
                const EventHandle old = event.keyed;
                if (pending) {
                    event.plain.cancel();
                    event.plain = plain.schedule(
                        when,
                        [&plainFired, id]() { plainFired.push_back(id); },
                        event.label);
                    ++rekeyed;
                }
                EXPECT_EQ(keyed.rekey(event.keyed, when), pending);
                if (pending) {
                    EXPECT_TRUE(event.keyed.pending());
                    EXPECT_FALSE(old.pending());
                }
            } else {
                EXPECT_EQ(event.keyed.cancel(), event.plain.cancel());
            }
        } else {
            EventQueue::FiredEvent a = plain.pop();
            EventQueue::FiredEvent b = keyed.pop();
            ASSERT_EQ(static_cast<bool>(a), static_cast<bool>(b));
            if (a) {
                EXPECT_EQ(a.when(), b.when()) << "op " << op;
                EXPECT_EQ(a.sequence(), b.sequence()) << "op " << op;
                EXPECT_STREQ(a.label(), b.label()) << "op " << op;
                now = a.when();
                a.invoke();
                b.invoke();
            }
        }
        ASSERT_EQ(plain.size(), keyed.size()) << "op " << op;
        ASSERT_EQ(plain.freeSlots(), keyed.freeSlots()) << "op " << op;
        ASSERT_EQ(plain.poolCapacity(), keyed.poolCapacity());
        ASSERT_EQ(plain.scheduledCount(), keyed.scheduledCount());
        ASSERT_EQ(engineSection(plain), engineSection(keyed))
            << "op " << op;
        ASSERT_TRUE(keyed.auditCheck().empty()) << "op " << op;
    }
    // The re-keyed closures are the original ones: every event fired
    // its own action, in the same order in both queues.
    EXPECT_EQ(plainFired, keyedFired);
    EXPECT_GT(rekeyed, 300);
    EXPECT_GT(plainFired.size(), 500u);
}

TEST(EventQueue, RekeyOfDeadHandlesChangesNothing)
{
    EventQueue queue;
    EventHandle fired = queue.schedule(1, [] {}, "fired");
    EventHandle cancelled = queue.schedule(2, [] {}, "cancelled");
    EventHandle live = queue.schedule(3, [] {}, "live");
    queue.pop().invoke();
    ASSERT_TRUE(cancelled.cancel());
    EventHandle none;
    const std::vector<std::uint8_t> before = engineSection(queue);
    EXPECT_FALSE(queue.rekey(fired, 10));
    EXPECT_FALSE(queue.rekey(cancelled, 10));
    EXPECT_FALSE(queue.rekey(none, 10));
    EXPECT_EQ(engineSection(queue), before);
    EXPECT_EQ(queue.scheduledCount(), 3u);
    EXPECT_TRUE(queue.auditCheck().empty());

    // An event re-keying itself while it fires is not pending in the
    // heap, so nothing changes either.
    EventHandle self;
    bool selfRekeyed = true;
    self = queue.schedule(
        0, [&]() { selfRekeyed = queue.rekey(self, 20); }, "self");
    queue.pop().invoke();
    EXPECT_FALSE(selfRekeyed);
    EXPECT_EQ(queue.scheduledCount(), 4u);
    EXPECT_TRUE(live.pending());
}

TEST(EventQueue, RekeyRetiresCopiesOfTheOldHandle)
{
    EventQueue queue;
    int fired = 0;
    EventHandle handle = queue.schedule(5, [&]() { ++fired; }, "e");
    const EventHandle copy = handle;
    ASSERT_TRUE(queue.rekey(handle, 9));
    EXPECT_FALSE(copy.pending());
    EventHandle stale = copy;
    EXPECT_FALSE(stale.cancel());
    EXPECT_TRUE(handle.pending());
    EXPECT_EQ(queue.size(), 1u);
    EventQueue::FiredEvent event = queue.pop();
    EXPECT_EQ(event.when(), 9);
    EXPECT_EQ(event.sequence(), 1u);
    EXPECT_STREQ(event.label(), "e");
    event.invoke();
    EXPECT_EQ(fired, 1);
}

// -------------------------------------------------------------- Simulator

TEST(Simulator, ClockAdvancesWithEvents)
{
    Simulator sim;
    std::vector<SimTime> times;
    sim.scheduleAt(10, [&] { times.push_back(sim.now()); });
    sim.scheduleAt(30, [&] { times.push_back(sim.now()); });
    EXPECT_EQ(sim.run(), StopReason::Drained);
    EXPECT_EQ(times, (std::vector<SimTime>{10, 30}));
    EXPECT_EQ(sim.now(), 30);
    EXPECT_EQ(sim.executedEvents(), 2u);
}

TEST(Simulator, EventsScheduleCausallyDependentEvents)
{
    Simulator sim;
    int fired = 0;
    sim.scheduleAt(5, [&] {
        ++fired;
        sim.scheduleAfter(10, [&] { ++fired; });
    });
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.now(), 15);
}

TEST(Simulator, RunUntilStopsAtLimit)
{
    Simulator sim;
    int fired = 0;
    sim.scheduleAt(10, [&] { ++fired; });
    sim.scheduleAt(100, [&] { ++fired; });
    EXPECT_EQ(sim.run(50), StopReason::TimeLimit);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 50);
    // Resume to drain the remaining event.
    EXPECT_EQ(sim.run(), StopReason::Drained);
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventExactlyAtLimitFires)
{
    Simulator sim;
    bool fired = false;
    sim.scheduleAt(50, [&] { fired = true; });
    sim.run(50);
    EXPECT_TRUE(fired);
}

TEST(Simulator, EventLimitStops)
{
    Simulator sim;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        sim.scheduleAt(i, [&] { ++fired; });
    EXPECT_EQ(sim.run(kSimTimeMax, 3), StopReason::EventLimit);
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, StopFromEvent)
{
    Simulator sim;
    int fired = 0;
    sim.scheduleAt(1, [&] {
        ++fired;
        sim.stop();
    });
    sim.scheduleAt(2, [&] { ++fired; });
    EXPECT_EQ(sim.run(), StopReason::Stopped);
    EXPECT_EQ(fired, 1);
}

TEST(Simulator, SchedulingInPastThrows)
{
    Simulator sim;
    sim.scheduleAt(10, [] {});
    sim.run();
    EXPECT_THROW(sim.scheduleAt(5, [] {}), std::logic_error);
    EXPECT_THROW(sim.scheduleAfter(-1, [] {}), std::logic_error);
}

TEST(Simulator, RekeyIntoThePastThrowsAndChangesNothing)
{
    Simulator sim;
    sim.scheduleAt(10, [] {});
    EventHandle later = sim.scheduleAt(20, [] {}, "later");
    sim.run(15);
    ASSERT_EQ(sim.now(), 15);
    const std::uint64_t scheduled = sim.queue().scheduledCount();
    const std::vector<std::uint8_t> before = engineSection(sim.queue());
    EXPECT_THROW(sim.rekeyAt(later, 14), std::logic_error);
    EXPECT_TRUE(later.pending());
    EXPECT_EQ(sim.queue().scheduledCount(), scheduled);
    EXPECT_EQ(engineSection(sim.queue()), before);
    // Now is not the past.
    EXPECT_TRUE(sim.rekeyAt(later, 15));
    sim.run();
    EXPECT_EQ(sim.now(), 15);
}

TEST(Simulator, MakeStreamIsDeterministic)
{
    Simulator a(99), b(99);
    auto sa = a.makeStream("svc");
    auto sb = b.makeStream("svc");
    EXPECT_EQ(sa.nextU64(), sb.nextU64());
    auto other = a.makeStream("other");
    EXPECT_NE(sa.nextU64(), other.nextU64());
}

TEST(Simulator, CancelViaHandle)
{
    Simulator sim;
    bool fired = false;
    EventHandle handle = sim.scheduleAt(10, [&] { fired = true; });
    handle.cancel();
    sim.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, TraceLoggingHooks)
{
    Simulator sim;
    std::vector<std::string> lines;
    sim.logger().setLevel(LogLevel::Trace);
    sim.logger().setSink(nullptr);
    sim.logger().setHook(
        [&](const std::string& line) { lines.push_back(line); });
    sim.scheduleAt(10, [] {}, "my-event");
    sim.run();
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("my-event"), std::string::npos);
}

TEST(Logger, LevelFiltering)
{
    Logger logger;
    EXPECT_FALSE(logger.enabled(LogLevel::Error));  // Off by default
    logger.setLevel(LogLevel::Warn);
    EXPECT_TRUE(logger.enabled(LogLevel::Error));
    EXPECT_TRUE(logger.enabled(LogLevel::Warn));
    EXPECT_FALSE(logger.enabled(LogLevel::Info));
    EXPECT_FALSE(logger.enabled(LogLevel::Trace));
}

TEST(EngineAudit, QueueAuditIsCleanThroughScheduleCancelPop)
{
    EventQueue queue;
    EXPECT_TRUE(queue.auditCheck().empty());
    std::vector<EventHandle> handles;
    for (int i = 0; i < 100; ++i)
        handles.push_back(queue.schedule(100 - i, [] {}, "e"));
    EXPECT_TRUE(queue.auditCheck().empty());
    for (int i = 0; i < 100; i += 3)
        handles[static_cast<std::size_t>(i)].cancel();
    EXPECT_TRUE(queue.auditCheck().empty());
    while (!queue.empty()) {
        EventQueue::FiredEvent event = queue.pop();
        event.invoke();
    }
    const std::vector<std::string> findings = queue.auditCheck();
    EXPECT_TRUE(findings.empty());
    EXPECT_EQ(queue.freeSlots(), queue.poolCapacity());
}

TEST(EngineAudit, LeakedFiredEventIsDetected)
{
    // auditCheck is documented "between events": holding a FiredEvent
    // across the check is exactly the leak it exists to catch.
    EventQueue queue;
    queue.schedule(1, [] {}, "leak");
    {
        EventQueue::FiredEvent held = queue.pop();
        const std::vector<std::string> findings = queue.auditCheck();
        ASSERT_FALSE(findings.empty());
        bool mentions_leak = false;
        for (const std::string& finding : findings)
            mentions_leak |=
                finding.find("FiredEvent") != std::string::npos;
        EXPECT_TRUE(mentions_leak);
        held.invoke();
    }
    // The RAII release restores clean accounting.
    EXPECT_TRUE(queue.auditCheck().empty());
}

TEST(EngineAudit, SimulatorAuditAndControlPolling)
{
    Simulator sim;
    RunControl control;
    sim.setRunControl(&control);
    int fired = 0;
    for (int i = 0; i < 3000; ++i)
        sim.scheduleAt(i, [&fired] { ++fired; }, "tick");
    sim.run();
    EXPECT_EQ(fired, 3000);
    EXPECT_TRUE(sim.auditEngine().clean());
    // The control saw progress watermarks published along the way.
    EXPECT_GT(control.eventWatermark(), 0u);
}

TEST(EngineAudit, EventBudgetAbortsBetweenEvents)
{
    Simulator sim;
    RunControl control;
    control.setMaxEvents(Simulator::kControlPollEvents);
    sim.setRunControl(&control);
    int fired = 0;
    for (int i = 0; i < 5000; ++i)
        sim.scheduleAt(i, [&fired] { ++fired; }, "tick");
    EXPECT_THROW(sim.run(), SimulationAbortError);
    // The abort happened between events at poll granularity, so the
    // engine's pooled storage is still consistent.
    EXPECT_TRUE(sim.auditEngine().clean());
    EXPECT_EQ(static_cast<std::uint64_t>(fired),
              Simulator::kControlPollEvents);
    EXPECT_EQ(control.abortRequested(), AbortReason::EventBudget);
}

TEST(EngineAudit, ExternalAbortIsHonored)
{
    Simulator sim;
    RunControl control;
    sim.setRunControl(&control);
    for (int i = 0; i < 5000; ++i)
        sim.scheduleAt(i, [] {}, "tick");
    control.requestAbort(AbortReason::External);
    try {
        sim.run();
        FAIL() << "expected SimulationAbortError";
    } catch (const SimulationAbortError& error) {
        EXPECT_EQ(error.reason(), AbortReason::External);
        EXPECT_NE(std::string(error.what()).find("external"),
                  std::string::npos);
    }
}

}  // namespace
}  // namespace uqsim
