/**
 * @file
 * Stat timeline sampler: periodic snapshots of a StatSet.
 *
 * Every `interval` cycles the sampler snapshots the counters whose
 * names match a configurable prefix list, turning end-of-run
 * aggregates (e.g. the Figure-13 stall breakdown) into a time
 * series. Export is CSV (one row per interval, per-interval deltas)
 * or JSON. Sampling only happens when the subsystem is enabled, so
 * there is no steady-state cost when off; the GPU main loop clamps
 * its jumps over idle cycles at sample boundaries, so every sample
 * lands on its cycle.
 */

#ifndef GTSC_OBS_TIMELINE_HH_
#define GTSC_OBS_TIMELINE_HH_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace gtsc::sim
{
class StatSet;
}

namespace gtsc::obs
{

class StatTimeline
{
  public:
    /**
     * @param stats    the live StatSet to snapshot (not owned)
     * @param interval sampling period in cycles (> 0)
     * @param prefixes counter-name prefixes to keep; empty = all
     */
    StatTimeline(const sim::StatSet &stats, Cycle interval,
                 std::vector<std::string> prefixes);

    Cycle interval() const { return interval_; }

    /**
     * Cycle the next sample is due at. The main loop must not jump
     * past this.
     */
    Cycle nextSampleAt() const { return nextAt_; }

    /**
     * Take a snapshot if `now` has reached the next sample point.
     * Idempotent per cycle (safe to call every iteration).
     */
    void
    sample(Cycle now)
    {
        if (now >= nextAt_)
            takeSample(now);
    }

    /** Force a final partial-interval snapshot at end of run. */
    void finish(Cycle now);

    std::size_t numSamples() const { return samples_.size(); }

    /**
     * CSV: header `cycle,<key>,...`; one row per sample with the
     * per-interval delta of each counter. Columns are the sorted
     * union of keys seen across all samples.
     */
    void writeCsv(std::ostream &os) const;

    /** Same data as JSON: {"interval":N,"samples":[{...},...]}. */
    void writeJson(std::ostream &os) const;

  private:
    struct Sample
    {
        Cycle cycle;
        std::map<std::string, std::uint64_t> values; ///< cumulative
    };

    void takeSample(Cycle now);
    std::vector<std::string> columnUnion() const;

    const sim::StatSet &stats_;
    Cycle interval_;
    Cycle nextAt_;
    Cycle lastSampled_ = kCycleNever; ///< duplicate-cycle guard
    std::vector<std::string> prefixes_;
    std::vector<Sample> samples_;
};

} // namespace gtsc::obs

#endif // GTSC_OBS_TIMELINE_HH_
