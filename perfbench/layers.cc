#include "layers.h"

#include <utility>

namespace perfbench {

namespace {

struct Rule {
    const char* text;
    bool prefix;  ///< true: label starts with text; false: equals it
    int layer;
};

// Literal labels and literal-prefixed label families in src/uqsim.
// test_label_map.py scans the sources and fails when a label is not
// covered here.
constexpr Rule kRules[] = {
    {"client/", true, kWorkload},
    {"warmup-boundary", false, kWorkload},
    {"dispatch/", true, kApp},
    {"timer/", true, kApp},
    {"net/wire", false, kNet},
    {"net/loopback", false, kNet},
    {"net/drop", false, kNet},
    {"net/flow", false, kFlow},
    {"net/failover", false, kFlow},
    {"net/unreachable", false, kFlow},
    {"net/link-drop", false, kFlow},
    {"disk/op", false, kDisk},
    {"fault/", true, kFault},
    {"power/", true, kOther},
    {"bighouse/", true, kOther},
    {"callback", false, kOther},
};

constexpr std::string_view kIrqSuffix = "/irq/done";

}  // namespace

const char*
layerName(int layer)
{
    switch (layer) {
      case kWorkload: return "workload";
      case kApp: return "app";
      case kService: return "service";
      case kIrq: return "hw.irq";
      case kNet: return "hw.net";
      case kFlow: return "hw.flow";
      case kDisk: return "hw.disk";
      case kFault: return "fault";
      case kOther: return "other";
      case kUnmapped: return "unmapped";
      default: return "?";
    }
}

LabelClassifier::LabelClassifier(std::vector<std::string> instances)
    : instances_(std::move(instances))
{
}

int
LabelClassifier::classify(std::string_view label)
{
    const auto it = cache_.find(std::string(label));
    if (it != cache_.end())
        return it->second;
    const int layer = classifyUncached(label);
    cache_.emplace(std::string(label), layer);
    return layer;
}

int
LabelClassifier::classifyUncached(std::string_view label) const
{
    // "<machine>/irq/done": machine names are arbitrary, so the
    // suffix decides before any prefix rule.
    if (label.size() > kIrqSuffix.size() &&
        label.substr(label.size() - kIrqSuffix.size()) == kIrqSuffix)
        return kIrq;
    for (const Rule& rule : kRules) {
        const std::string_view text(rule.text);
        if (rule.prefix ? label.substr(0, text.size()) == text
                        : label == text)
            return rule.layer;
    }
    for (const std::string& instance : instances_) {
        if (label.size() > instance.size() &&
            label.substr(0, instance.size()) == instance &&
            label[instance.size()] == '/')
            return kService;
    }
    return kUnmapped;
}

}  // namespace perfbench
