#include "uqsim/stats/running_quantile.h"

#include <algorithm>
#include <functional>

namespace uqsim {
namespace stats {

RunningQuantile::RunningQuantile(double q) : percent_(q * 100.0) {}

void
RunningQuantile::add(double value)
{
    if (!lower_.empty() && value < lower_.front()) {
        lower_.push_back(value);
        std::push_heap(lower_.begin(), lower_.end());
    } else {
        upper_.push_back(value);
        std::push_heap(upper_.begin(), upper_.end(), std::greater<>());
    }
    // Rebalance so lower_ holds exactly rank_.lo + 1 observations.
    rank_ = Type7Rank::of(percent_, count());
    while (lower_.size() < rank_.lo + 1) {
        std::pop_heap(upper_.begin(), upper_.end(), std::greater<>());
        lower_.push_back(upper_.back());
        upper_.pop_back();
        std::push_heap(lower_.begin(), lower_.end());
    }
    while (lower_.size() > rank_.lo + 1) {
        std::pop_heap(lower_.begin(), lower_.end());
        upper_.push_back(lower_.back());
        lower_.pop_back();
        std::push_heap(upper_.begin(), upper_.end(), std::greater<>());
    }
}

double
RunningQuantile::value() const
{
    if (lower_.empty())
        return 0.0;
    // hi is lo or lo + 1, and hi <= n - 1, so upper_ is non-empty
    // whenever it is read.
    const double lo_value = lower_.front();
    return rank_.interpolate(
        lo_value, rank_.hi == rank_.lo ? lo_value : upper_.front());
}

}  // namespace stats
}  // namespace uqsim
