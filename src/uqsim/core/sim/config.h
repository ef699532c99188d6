#ifndef UQSIM_CORE_SIM_CONFIG_H_
#define UQSIM_CORE_SIM_CONFIG_H_

/**
 * @file
 * Simulation options and the five-input configuration bundle
 * (Table I): service.json files, graph.json, path.json,
 * machines.json, and client.json.
 */

#include <string>
#include <vector>

#include "uqsim/json/json_value.h"

namespace uqsim {

/** Run-control options. */
struct SimulationOptions {
    /** Master random seed. */
    std::uint64_t seed = 1;
    /** Warm-up period discarded from statistics (seconds). */
    double warmupSeconds = 1.0;
    /** Total simulated time (seconds), including warm-up. */
    double durationSeconds = 11.0;

    /** Parses {"seed": 1, "warmup_s": 1, "duration_s": 11}. */
    static SimulationOptions fromJson(const json::JsonValue& doc);
};

/** The simulator inputs, as parsed JSON documents. */
struct ConfigBundle {
    json::JsonValue machines;
    std::vector<json::JsonValue> services;
    json::JsonValue graph;
    json::JsonValue paths;
    json::JsonValue client;
    /** Optional fault-injection timeline (faults.json); null when
     *  the file is absent. */
    json::JsonValue faults;
    SimulationOptions options;

    /**
     * Loads a bundle from a directory containing machines.json,
     * graph.json, path.json, client.json, an optional options.json,
     * an optional faults.json, and a services/ subdirectory of
     * service.json files.
     */
    static ConfigBundle fromDirectory(const std::string& directory);
};

}  // namespace uqsim

#endif  // UQSIM_CORE_SIM_CONFIG_H_
