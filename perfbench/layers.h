#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

/**
 * @file
 * Event label -> simulator layer map used by the traced run.
 *
 * Every engine event carries a label: a string literal such as
 * "net/flow" or "disk/op", or a generated form such as
 * "<instance>/<stage>" or "<machine>/irq/done".  The classifier names
 * the layer that owns each label.  Service labels are recognised
 * positively, by the instance names of the simulation being traced,
 * so an unknown label falls through to kUnmapped instead of being
 * silently charged to the service layer.
 */

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

enum Layer : int {
    kWorkload = 0,  ///< client/*, warmup-boundary
    kApp,           ///< dispatch/*, timer/*
    kService,       ///< <instance>/<stage>, <instance>/spawn|retire
    kIrq,           ///< <machine>/irq/done
    kNet,           ///< net/wire, net/loopback, net/drop
    kFlow,          ///< net/flow, net/failover, net/unreachable, ...
    kDisk,          ///< disk/op
    kFault,         ///< fault/*
    kOther,         ///< power/*, bighouse/*, the "callback" default
    kUnmapped,      ///< any other label
    kLayerCount,
};

/** Metric-name prefix of @p layer ("workload", "hw.flow", ...). */
const char* layerName(int layer);

/** Maps event labels to layers; results are cached per label. */
class LabelClassifier {
  public:
    /** @p instances: the traced simulation's instance names. */
    explicit LabelClassifier(std::vector<std::string> instances);

    int classify(std::string_view label);

  private:
    int classifyUncached(std::string_view label) const;

    std::vector<std::string> instances_;
    std::unordered_map<std::string, int> cache_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
