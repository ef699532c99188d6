#include "host_speed.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

/** Entries alive at once: a loaded run's pending-event population. */
constexpr std::uint32_t kLiveEntries = 4096;
/** Events per kernel run. */
constexpr int kKernelEvents = 70000;

struct Pending {
    std::uint64_t when;
    std::uint32_t id;

    bool
    operator>(const Pending& other) const
    {
        return when != other.when ? when > other.when : id > other.id;
    }
};

/** Keeps the kernel's result observable so it is not optimized out. */
volatile std::uint64_t g_sink = 0;

}  // namespace

double
kernelSeconds()
{
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
    const auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    std::priority_queue<Pending, std::vector<Pending>, std::greater<>> heap;
    std::unordered_map<std::uint32_t,
                       std::unique_ptr<std::vector<std::uint64_t>>>
        live;
    std::uint32_t next_id = 0;
    // Exponential gaps, as the simulator's samplers draw them: the
    // floating-point log belongs to the simulated work's mix.
    const auto spawn = [&](std::uint64_t now) {
        const std::uint32_t id = next_id++;
        live.emplace(id, std::make_unique<std::vector<std::uint64_t>>(
                             1 + next() % 8, now));
        const double u =
            (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
        heap.push(Pending{now + static_cast<std::uint64_t>(
                                    -std::log(u) * 1024.0),
                          id});
    };
    for (std::uint32_t i = 0; i < kLiveEntries; ++i)
        spawn(0);
    std::uint64_t checksum = 0;
    for (int event = 0; event < kKernelEvents; ++event) {
        const Pending top = heap.top();
        heap.pop();
        const auto it = live.find(top.id);
        checksum += it->second->size() ^ it->second->back();
        live.erase(it);
        spawn(top.when);
    }
    g_sink = checksum;
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
referenceScale(double before, double after)
{
    return kReferenceKernelSeconds / (0.5 * (before + after));
}

}  // namespace perfbench
