#include "uqsim/stats/percentile_recorder.h"

#include <algorithm>
#include <cmath>

namespace uqsim {
namespace stats {

Type7Rank
Type7Rank::of(double p, std::size_t n)
{
    const double clamped = std::clamp(p, 0.0, 100.0);
    const double rank = clamped / 100.0 * static_cast<double>(n - 1);
    Type7Rank at;
    at.lo = static_cast<std::size_t>(std::floor(rank));
    at.hi = static_cast<std::size_t>(std::ceil(rank));
    at.frac = rank - static_cast<double>(at.lo);
    return at;
}

void
PercentileRecorder::add(double value)
{
    values_.push_back(value);
    summary_.add(value);
    sortedValid_ = false;
}

void
PercentileRecorder::merge(const PercentileRecorder& other)
{
    if (other.values_.empty())
        return;
    if (&other == this) {
        PercentileRecorder copy = other;
        merge(copy);
        return;
    }
    values_.insert(values_.end(), other.values_.begin(),
                   other.values_.end());
    summary_.merge(other.summary_);
    sortedValid_ = false;
}

void
PercentileRecorder::ensureSorted() const
{
    if (sortedValid_)
        return;
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sortedValid_ = true;
}

double
PercentileRecorder::percentile(double p) const
{
    if (values_.empty())
        return 0.0;
    ensureSorted();
    const Type7Rank at = Type7Rank::of(p, sorted_.size());
    return at.interpolate(sorted_[at.lo], sorted_[at.hi]);
}

void
PercentileRecorder::reset()
{
    // Swap with empties instead of clear(): after merging large
    // replications the capacity would otherwise stay pinned at the
    // pooled size for the rest of the sweep.
    std::vector<double>().swap(values_);
    std::vector<double>().swap(sorted_);
    sortedValid_ = false;
    summary_.reset();
}

}  // namespace stats
}  // namespace uqsim
