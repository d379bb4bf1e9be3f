/**
 * @file
 * Statistics registry: named counters, scalars and histograms that
 * components register into a shared StatSet and the harness reads out
 * after a run. Loosely modeled on gem5's stats package, heavily
 * simplified.
 */

#ifndef GTSC_SIM_STATS_HH_
#define GTSC_SIM_STATS_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/log.hh"

namespace gtsc::sim
{

/**
 * Streaming tracker for latency-style samples: mean/max/min/stddev
 * plus a fixed-size reservoir for percentile estimates.
 *
 * The reservoir is a deterministic systematic subsample: every
 * 2^k-th sample is kept, and when the fixed buffer fills, every
 * other retained sample is dropped and the stride doubles. No RNG,
 * so runs (and the fast-forward equivalence tests) stay
 * bit-reproducible.
 */
class Distribution
{
  public:
    /** Retained samples for percentile estimation. */
    static constexpr std::size_t kReservoirCapacity = 512;

    void
    sample(double v)
    {
        count_++;
        sum_ += v;
        sumSq_ += v * v;
        if (v > max_)
            max_ = v;
        if (count_ == 1 || v < min_)
            min_ = v;
        if (((count_ - 1) & strideMask_) == 0)
            reservoirPush(v);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double max() const { return max_; }
    double min() const { return count_ ? min_ : 0.0; }

    /** Population standard deviation; 0 with fewer than 2 samples. */
    double stddev() const;

    /**
     * Percentile estimate from the reservoir, p in [0, 1]. Exact
     * while fewer than kReservoirCapacity samples arrived; a
     * systematic-subsample estimate afterwards. 0 when empty.
     */
    double percentile(double p) const;
    double p50() const { return percentile(0.50); }
    double p99() const { return percentile(0.99); }

    /** Samples currently retained for percentiles (tests). */
    std::size_t reservoirSize() const { return reservoir_.size(); }

    void merge(const Distribution &o);

    /**
     * Raw-state accessors plus an exact rebuild, for the persistent
     * result store: restore() with the values read back from a live
     * distribution yields a bit-identical one (same mean/stddev and
     * the same reservoir, hence the same percentile estimates).
     */
    double sumSquares() const { return sumSq_; }
    std::uint64_t strideMask() const { return strideMask_; }
    const std::vector<double> &reservoirSamples() const
    {
        return reservoir_;
    }
    static Distribution restore(std::uint64_t count, double sum,
                                double sum_sq, double max, double min,
                                std::uint64_t stride_mask,
                                std::vector<double> reservoir);

  private:
    void reservoirPush(double v);

    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double max_ = 0.0;
    double min_ = 0.0;
    /** Sample index i is retained iff (i & strideMask_) == 0. */
    std::uint64_t strideMask_ = 0;
    std::vector<double> reservoir_;
};

/**
 * A flat set of named statistics.
 *
 * Counters are created on first use; names are dot-separated
 * ("l1.sm3.hits"). Components keep raw references/pointers to their
 * counters for cheap increments on hot paths.
 */
class StatSet
{
  public:
    /** Get (creating if needed) a counter by name. */
    std::uint64_t &counter(const std::string &name);

    /** Get (creating if needed) a distribution by name. */
    Distribution &distribution(const std::string &name);

    /** Read a counter; 0 when absent. */
    std::uint64_t get(const std::string &name) const;

    /** Read a distribution; empty when absent. */
    const Distribution &getDistribution(const std::string &name) const;

    /** Sum of all counters whose name starts with the prefix. */
    std::uint64_t sumPrefix(const std::string &prefix) const;

    /** All counters, sorted by name. */
    const std::map<std::string, std::uint64_t> &counters() const
    {
        return counters_;
    }

    const std::map<std::string, Distribution> &distributions() const
    {
        return dists_;
    }

    /** Merge another stat set into this one (counters add). */
    void merge(const StatSet &other);

    /** Render "name value" lines, sorted. */
    std::string toString() const;

    void clear();

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, Distribution> dists_;
};

} // namespace gtsc::sim

#endif // GTSC_SIM_STATS_HH_
