#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/**
 * @file
 * The benchmark's workloads.  A workload is one or more phases run
 * back to back; each phase is one Simulation built from a model
 * bundle.  Every phase's seed derives from the benchmark's --seed.
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "uqsim/core/sim/config.h"
#include "uqsim/core/sim/report.h"

namespace perfbench {

/** Counters one phase run exposes to the shape checks. */
struct ShapeInputs {
    const uqsim::RunReport& report;
    std::uint64_t flowReshares = 0;
    std::uint64_t flowFailovers = 0;
    std::uint64_t hedges = 0;
    std::uint64_t diskReads = 0;
    std::uint64_t diskWrites = 0;
};

struct Phase {
    std::string name;
    /** Builds the phase's bundle from the phase seed. */
    std::function<uqsim::ConfigBundle(std::uint64_t seed)> bundle;
    /** Simulated horizon (warm-up included), seconds. */
    double simSeconds = 0.0;
    /** Empty when the phase passes its shape check, else why not. */
    std::function<std::string(const ShapeInputs&)> shapeCheck;
};

struct Workload {
    std::string name;
    std::vector<Phase> phases;
    /** Phase whose mid-run checkpoint the resume measurement uses. */
    std::size_t checkpointPhase = 0;
};

/** Phase seed: the benchmark seed mixed with the phase index. */
std::uint64_t phaseSeed(std::uint64_t seed, std::size_t phase);

/** The named workload; throws std::invalid_argument when unknown. */
Workload makeWorkload(const std::string& name);

/** Slice length for per-slice host timing, simulated seconds. */
constexpr double kSliceSeconds = 0.01;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
