#include "uqsim/core/sim/config.h"

#include <algorithm>
#include <filesystem>

#include "uqsim/json/json_parser.h"
#include "uqsim/json/validation.h"

namespace uqsim {

SimulationOptions
SimulationOptions::fromJson(const json::JsonValue& doc)
{
    json::requireKnownKeys(doc, {"seed", "warmup_s", "duration_s"},
                           "options.json");
    SimulationOptions options;
    options.seed = static_cast<std::uint64_t>(
        doc.getOr("seed", std::int64_t{1}));
    options.warmupSeconds = doc.getOr("warmup_s", options.warmupSeconds);
    options.durationSeconds =
        doc.getOr("duration_s", options.durationSeconds);
    return options;
}

ConfigBundle
ConfigBundle::fromDirectory(const std::string& directory)
{
    namespace fs = std::filesystem;
    const fs::path root(directory);
    if (!fs::is_directory(root)) {
        throw json::JsonError("config directory not found: " +
                              directory);
    }
    ConfigBundle bundle;
    bundle.machines = json::parseFile((root / "machines.json").string());
    bundle.graph = json::parseFile((root / "graph.json").string());
    bundle.paths = json::parseFile((root / "path.json").string());
    bundle.client = json::parseFile((root / "client.json").string());
    const fs::path options_path = root / "options.json";
    if (fs::exists(options_path)) {
        bundle.options = SimulationOptions::fromJson(
            json::parseFile(options_path.string()));
    }
    const fs::path faults_path = root / "faults.json";
    if (fs::exists(faults_path))
        bundle.faults = json::parseFile(faults_path.string());
    const fs::path services_dir = root / "services";
    if (!fs::is_directory(services_dir)) {
        throw json::JsonError("missing services/ directory under " +
                              directory);
    }
    std::vector<fs::path> service_files;
    for (const auto& entry : fs::directory_iterator(services_dir)) {
        if (entry.path().extension() == ".json")
            service_files.push_back(entry.path());
    }
    std::sort(service_files.begin(), service_files.end());
    for (const fs::path& path : service_files)
        bundle.services.push_back(json::parseFile(path.string()));
    return bundle;
}

}  // namespace uqsim
