#include "uqsim/fault/fault_plan.h"

#include <iterator>

#include "uqsim/json/validation.h"

namespace uqsim {
namespace fault {

namespace {

/** Each kind's faults.json type name and keys, in Kind order. */
const struct {
    const char* name;
    std::vector<std::string> keys;
} kKinds[] = {
    {"crash",
     {"type", "instance", "service", "at_s", "recover_s", "mtbf_s",
      "mttr_s"}},
    {"slow", {"type", "instance", "service", "start_s", "end_s", "factor"}},
    {"network",
     {"type", "start_s", "end_s", "extra_latency_us", "loss_prob"}},
    {"link_down",
     {"type", "link", "start_s", "end_s", "mtbf_s", "mttr_s"}},
    {"link_degraded",
     {"type", "link", "start_s", "end_s", "capacity_factor",
      "latency_factor"}},
    {"switch_down", {"type", "switch", "start_s", "end_s"}},
    {"partition", {"type", "groups", "start_s", "end_s"}},
};
static_assert(std::size(kKinds) ==
              static_cast<std::size_t>(FaultSpec::Kind::Partition) + 1);

FaultSpec::Kind
kindFromString(const std::string& name)
{
    std::vector<std::string> names;
    for (std::size_t k = 0; k < std::size(kKinds); ++k) {
        if (name == kKinds[k].name)
            return static_cast<FaultSpec::Kind>(k);
        names.push_back(kKinds[k].name);
    }
    std::string message = "unknown fault type \"" + name + "\"";
    const std::string suggestion = json::suggestClosest(name, names);
    if (!suggestion.empty())
        message += "; did you mean \"" + suggestion + "\"?";
    throw json::JsonError(message);
}

/** Reads "instance"/"service"; exactly one of them names the target. */
void
readTarget(const json::JsonValue& doc, const std::string& kind,
           FaultSpec& spec)
{
    spec.instance = doc.getOr("instance", std::string());
    spec.service = doc.getOr("service", std::string());
    if (spec.instance.empty() == spec.service.empty())
        throw json::JsonError(kind +
                              " fault needs exactly one of \"instance\" "
                              "or \"service\"");
}

/** Reads the required fabric name under @p key. */
std::string
readName(const json::JsonValue& doc, const std::string& kind,
         const char* key)
{
    std::string name = doc.getOr(key, std::string());
    if (name.empty())
        throw json::JsonError(kind + " fault needs \"" + key + "\"");
    return name;
}

/** Reads mtbf_s/mttr_s: a positive MTBF makes the spec stochastic,
 *  and a stochastic spec needs a positive MTTR. */
void
readOutages(const json::JsonValue& doc, const std::string& kind,
            FaultSpec& spec)
{
    spec.mtbfSeconds = doc.getOr("mtbf_s", 0.0);
    spec.mttrSeconds = doc.getOr("mttr_s", 0.0);
    if (spec.stochastic() && spec.mttrSeconds <= 0.0)
        throw json::JsonError("stochastic " + kind +
                              " fault needs mttr_s > 0");
}

/**
 * Reads the window from @p startKey/@p endKey.  A scripted window
 * must end after it starts; with @p openEnded an end of 0 leaves it
 * open instead.  A stochastic spec ignores its window.
 */
void
readWindow(const json::JsonValue& doc, const std::string& kind,
           FaultSpec& spec, bool openEnded,
           const std::string& startKey = "start_s",
           const std::string& endKey = "end_s")
{
    spec.startSeconds = doc.getOr(startKey, 0.0);
    spec.endSeconds = doc.getOr(endKey, 0.0);
    if (spec.stochastic() || (openEnded && spec.endSeconds <= 0.0))
        return;
    if (spec.endSeconds <= spec.startSeconds)
        throw json::JsonError(kind + " fault " + endKey +
                              " must exceed " + startKey);
}

}  // namespace

FaultSpec
FaultSpec::fromJson(const json::JsonValue& doc)
{
    FaultSpec spec;
    const std::string kind = doc.at("type").asString();
    spec.kind = kindFromString(kind);
    json::requireKnownKeys(
        doc, kKinds[static_cast<std::size_t>(spec.kind)].keys,
        kind + " fault");
    switch (spec.kind) {
      case Kind::Crash:
        readTarget(doc, kind, spec);
        readOutages(doc, kind, spec);
        readWindow(doc, kind, spec, true, "at_s", "recover_s");
        break;
      case Kind::Slow:
        readTarget(doc, kind, spec);
        spec.factor = doc.getOr("factor", 1.0);
        if (spec.factor <= 0.0)
            throw json::JsonError("slow fault factor must be > 0");
        readWindow(doc, kind, spec, true);
        break;
      case Kind::Network:
        spec.extraLatencySeconds =
            doc.getOr("extra_latency_us", 0.0) * 1e-6;
        spec.lossProbability = doc.getOr("loss_prob", 0.0);
        if (spec.lossProbability < 0.0 || spec.lossProbability > 1.0)
            throw json::JsonError(
                "network fault loss_prob must be in [0, 1]");
        readWindow(doc, kind, spec, true);
        break;
      case Kind::LinkDown:
        spec.link = readName(doc, kind, "link");
        readOutages(doc, kind, spec);
        readWindow(doc, kind, spec, false);
        break;
      case Kind::LinkDegraded:
        spec.link = readName(doc, kind, "link");
        spec.capacityFactor = doc.getOr("capacity_factor", 1.0);
        spec.latencyFactor = doc.getOr("latency_factor", 1.0);
        if (!(spec.capacityFactor > 0.0) || spec.capacityFactor > 1.0)
            throw json::JsonError(
                "link_degraded capacity_factor must be in (0, 1]");
        if (spec.latencyFactor < 1.0)
            throw json::JsonError(
                "link_degraded latency_factor must be >= 1");
        readWindow(doc, kind, spec, false);
        break;
      case Kind::SwitchDown:
        spec.switchName = readName(doc, kind, "switch");
        readWindow(doc, kind, spec, false);
        break;
      case Kind::Partition:
        if (const json::JsonValue* groups = doc.find("groups")) {
            for (const json::JsonValue& group : groups->asArray()) {
                std::vector<std::string> hosts;
                for (const json::JsonValue& host : group.asArray())
                    hosts.push_back(host.asString());
                if (hosts.empty())
                    throw json::JsonError(
                        "partition fault groups must be non-empty");
                spec.groups.push_back(std::move(hosts));
            }
        }
        if (spec.groups.size() < 2)
            throw json::JsonError(
                "partition fault needs at least two groups");
        readWindow(doc, kind, spec, false);
        break;
    }
    return spec;
}

FaultPlan
FaultPlan::fromJson(const json::JsonValue& doc)
{
    json::requireKnownKeys(doc, {"faults"}, "faults.json");
    FaultPlan plan;
    if (const json::JsonValue* faults = doc.find("faults")) {
        for (const json::JsonValue& entry : faults->asArray())
            plan.faults.push_back(FaultSpec::fromJson(entry));
    }
    return plan;
}

}  // namespace fault
}  // namespace uqsim
