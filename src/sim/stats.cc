#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>


namespace gtsc::sim
{

void
Distribution::reservoirPush(double v)
{
    // One-time full reservation: the reservoir never reallocates
    // afterwards (compaction halves in place), keeping sample() off
    // the allocator in steady state.
    if (reservoir_.capacity() < kReservoirCapacity)
        reservoir_.reserve(kReservoirCapacity);
    if (reservoir_.size() >= kReservoirCapacity) {
        // Compact: keep every other retained sample (the ones whose
        // original index is an even multiple of the old stride) and
        // double the stride.
        std::size_t keep = 0;
        for (std::size_t i = 0; i < reservoir_.size(); i += 2)
            reservoir_[keep++] = reservoir_[i];
        reservoir_.resize(keep);
        strideMask_ = strideMask_ * 2 + 1;
        // The current sample survives only if it is still on-stride.
        if (((count_ - 1) & strideMask_) != 0)
            return;
    }
    reservoir_.push_back(v);
}

double
Distribution::stddev() const
{
    if (count_ < 2)
        return 0.0;
    double n = static_cast<double>(count_);
    double var = sumSq_ / n - (sum_ / n) * (sum_ / n);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

double
Distribution::percentile(double p) const
{
    if (reservoir_.empty())
        return 0.0;
    std::vector<double> sorted(reservoir_);
    std::sort(sorted.begin(), sorted.end());
    if (p <= 0.0)
        return sorted.front();
    if (p >= 1.0)
        return sorted.back();
    auto idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[idx];
}

void
Distribution::merge(const Distribution &o)
{
    if (o.count_ == 0)
        return;
    if (count_ == 0 || o.min_ < min_)
        min_ = o.min_;
    if (o.max_ > max_)
        max_ = o.max_;
    count_ += o.count_;
    sum_ += o.sum_;
    sumSq_ += o.sumSq_;
    // Concatenate the reservoirs, then re-thin deterministically
    // until the merged set fits. The result is still a systematic
    // subsample of the union, which is all percentiles need.
    reservoir_.insert(reservoir_.end(), o.reservoir_.begin(),
                      o.reservoir_.end());
    strideMask_ = std::max(strideMask_, o.strideMask_);
    while (reservoir_.size() > kReservoirCapacity) {
        std::size_t keep = 0;
        for (std::size_t i = 0; i < reservoir_.size(); i += 2)
            reservoir_[keep++] = reservoir_[i];
        reservoir_.resize(keep);
        strideMask_ = strideMask_ * 2 + 1;
    }
}

Distribution
Distribution::restore(std::uint64_t count, double sum, double sum_sq,
                      double max, double min,
                      std::uint64_t stride_mask,
                      std::vector<double> reservoir)
{
    Distribution d;
    d.count_ = count;
    d.sum_ = sum;
    d.sumSq_ = sum_sq;
    d.max_ = max;
    d.min_ = min;
    d.strideMask_ = stride_mask;
    d.reservoir_ = std::move(reservoir);
    return d;
}

std::uint64_t &
StatSet::counter(const std::string &name)
{
    return counters_[name];
}

Distribution &
StatSet::distribution(const std::string &name)
{
    return dists_[name];
}

std::uint64_t
StatSet::get(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

const Distribution &
StatSet::getDistribution(const std::string &name) const
{
    static const Distribution kEmpty;
    auto it = dists_.find(name);
    return it == dists_.end() ? kEmpty : it->second;
}

std::uint64_t
StatSet::sumPrefix(const std::string &prefix) const
{
    // The matching keys form a contiguous range in the sorted map:
    // [lower_bound(prefix), lower_bound(successor)) where the
    // successor is the prefix with its last non-0xff byte
    // incremented (trailing 0xff bytes dropped — such a prefix has
    // no upper bound and the range runs to end()). Bounding the
    // range up front replaces the per-element starts-with compare
    // with two O(log n) lookups.
    auto first = counters_.lower_bound(prefix);
    auto last = counters_.end();
    std::string succ = prefix;
    while (!succ.empty() &&
           static_cast<unsigned char>(succ.back()) == 0xff)
        succ.pop_back();
    if (!succ.empty()) {
        succ.back() =
            static_cast<char>(static_cast<unsigned char>(succ.back()) +
                              1);
        last = counters_.lower_bound(succ);
    }
    std::uint64_t total = 0;
    for (auto it = first; it != last; ++it)
        total += it->second;
    return total;
}

void
StatSet::merge(const StatSet &other)
{
    for (const auto &kv : other.counters_)
        counters_[kv.first] += kv.second;
    for (const auto &kv : other.dists_)
        dists_[kv.first].merge(kv.second);
}

std::string
StatSet::toString() const
{
    std::ostringstream oss;
    for (const auto &kv : counters_)
        oss << kv.first << " " << kv.second << "\n";
    for (const auto &kv : dists_) {
        oss << kv.first << ".mean " << kv.second.mean() << "\n";
        oss << kv.first << ".max " << kv.second.max() << "\n";
        oss << kv.first << ".count " << kv.second.count() << "\n";
    }
    return oss.str();
}

void
StatSet::clear()
{
    counters_.clear();
    dists_.clear();
}

} // namespace gtsc::sim
