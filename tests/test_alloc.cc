/**
 * @file
 * Steady-state heap allocation on the hot path.
 *
 * docs/ARCHITECTURE.md ("Hot path") promises that a warm run
 * allocates nothing per event: stage subqueues, batch vectors, root
 * records, event slots and closure spills are all recycled.  This
 * binary replaces every form of the global operator new with a
 * counting one, runs the models:: bundles perfbench uses, with its
 * parameters, on short horizons, and bounds the allocations per
 * executed event between 40% and 90% of the horizon, after the run
 * has reached its working set.
 *
 * Past saturation (social at 10 kQPS) the backlog grows for the whole
 * run, so in-flight state keeps reaching new highs by design; that
 * phase's number is printed, not bounded.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "uqsim/core/sim/simulation.h"
#include "uqsim/models/applications.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void*
countedAlloc(std::size_t size, std::size_t align, bool nothrow)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    // aligned_alloc wants the size to be a multiple of the alignment.
    void* block = align <= alignof(std::max_align_t)
                      ? std::malloc(size)
                      : std::aligned_alloc(
                            align, (size + align - 1) / align * align);
    if (block == nullptr && !nothrow)
        throw std::bad_alloc();
    return block;
}

}  // namespace

// Every replaceable allocation and deallocation form, so no path
// escapes the count (or frees a counted block through the runtime's
// own operator delete).
void* operator new(std::size_t size)
{
    return countedAlloc(size, 0, false);
}
void* operator new[](std::size_t size)
{
    return countedAlloc(size, 0, false);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return countedAlloc(size, 0, true);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return countedAlloc(size, 0, true);
}
void* operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align), false);
}
void* operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align), false);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept
{
    return countedAlloc(size, static_cast<std::size_t>(align), true);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept
{
    return countedAlloc(size, static_cast<std::size_t>(align), true);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept
{
    std::free(block);
}
void operator delete[](void* block, std::size_t) noexcept
{
    std::free(block);
}
void operator delete(void* block, const std::nothrow_t&) noexcept
{
    std::free(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept
{
    std::free(block);
}
void operator delete(void* block, std::align_val_t) noexcept
{
    std::free(block);
}
void operator delete[](void* block, std::align_val_t) noexcept
{
    std::free(block);
}
void operator delete(void* block, std::size_t, std::align_val_t) noexcept
{
    std::free(block);
}
void operator delete[](void* block, std::size_t,
                       std::align_val_t) noexcept
{
    std::free(block);
}
void operator delete(void* block, std::align_val_t,
                     const std::nothrow_t&) noexcept
{
    std::free(block);
}
void operator delete[](void* block, std::align_val_t,
                       const std::nothrow_t&) noexcept
{
    std::free(block);
}

namespace uqsim {
namespace {

/** Bound on allocations per executed event once a run is warm. */
constexpr double kMaxAllocationsPerEvent = 0.05;

struct Window {
    std::uint64_t allocations = 0;
    std::uint64_t events = 0;

    double
    perEvent() const
    {
        return events == 0 ? 0.0
                           : static_cast<double>(allocations) /
                                 static_cast<double>(events);
    }
};

/** Runs @p bundle and counts allocations and executed events between
 *  40% and 90% of its horizon. */
Window
measure(const ConfigBundle& bundle, const char* name)
{
    std::unique_ptr<Simulation> sim = Simulation::fromBundle(bundle);
    const double horizon = sim->options().durationSeconds;
    sim->advanceToTime(secondsToSimTime(0.4 * horizon));
    const std::uint64_t events_before = sim->sim().executedEvents();
    g_allocations.store(0);
    g_counting.store(true);
    sim->advanceToTime(secondsToSimTime(0.9 * horizon));
    g_counting.store(false);
    Window window;
    window.allocations = g_allocations.load();
    window.events = sim->sim().executedEvents() - events_before;
    std::printf("%s: %llu allocations over %llu events, %.4f per event\n",
                name,
                static_cast<unsigned long long>(window.allocations),
                static_cast<unsigned long long>(window.events),
                window.perEvent());
    return window;
}

/** perfbench's run parameters (perfbench/workloads.cc) on a shorter
 *  horizon. */
models::RunParams
runParams(double qps, double warmup, double horizon, int connections)
{
    models::RunParams run;
    run.qps = qps;
    run.seed = 1;
    run.warmupSeconds = warmup;
    run.durationSeconds = horizon;
    run.clientConnections = connections;
    return run;
}

ConfigBundle
socialBundle(double qps)
{
    models::SocialNetworkParams params;
    params.run = runParams(qps, 0.25, 1.0, 320);
    return models::socialNetworkBundle(params);
}

TEST(SteadyStateAllocation, SocialNetworkAt2kQps)
{
    const Window window = measure(socialBundle(2000.0), "social@2k");
    ASSERT_GT(window.events, 10000u);
    EXPECT_LE(window.perEvent(), kMaxAllocationsPerEvent);
}

TEST(SteadyStateAllocation, SocialNetworkAt7kQps)
{
    const Window window = measure(socialBundle(7000.0), "social@7k");
    ASSERT_GT(window.events, 10000u);
    EXPECT_LE(window.perEvent(), kMaxAllocationsPerEvent);
}

TEST(SteadyStateAllocation, SocialNetworkPastSaturationIsReported)
{
    // The backlog grows for the whole run, so its high-water marks
    // (and their allocations) keep moving: reported, not bounded.
    const Window window = measure(socialBundle(10000.0), "social@10k");
    EXPECT_GT(window.events, 10000u);
}

TEST(SteadyStateAllocation, FatTreeIncast)
{
    models::FanoutFatTreeParams params;
    params.run = runParams(600.0, 0.25, 2.0, 128);
    params.fanout = 16;
    params.responseBytes = 64 * 1024;
    const Window window =
        measure(models::fanoutFatTreeBundle(params), "incast");
    ASSERT_GT(window.events, 10000u);
    EXPECT_LE(window.perEvent(), kMaxAllocationsPerEvent);
}

TEST(SteadyStateAllocation, SharedDisk)
{
    models::CacheStampedeParams params;
    params.run = runParams(4400.0, 0.5, 4.0, 320);
    params.hitRate = 0.35;
    params.writeFraction = 0.2;
    params.diskReadMBps = 200.0;
    params.diskQueueDepth = 32;
    const Window window =
        measure(models::cacheStampedeBundle(params), "stampede");
    ASSERT_GT(window.events, 10000u);
    EXPECT_LE(window.perEvent(), kMaxAllocationsPerEvent);
}

}  // namespace
}  // namespace uqsim
