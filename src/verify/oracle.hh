/**
 * @file
 * Value-serializability oracle for the verification lab.
 *
 * A snapshottable mem::CoherenceProbe that keeps, per word, the full
 * ordered version history {epoch, wts, value} of committed stores and
 * eagerly validates every G-TSC load against it: a load at logical
 * time ts must observe the value of the version with the largest
 * wts <= ts in its epoch (the Tardis serializability argument,
 * Lemma 2 of the proof paper — see docs/VERIFICATION.md). Store
 * commits are checked for per-word wts monotonicity (physiological
 * time only moves forward, Lemma 1).
 *
 * Unlike harness::CoherenceChecker this oracle's whole state is a
 * value type, so the model checker can capture/restore it alongside
 * the controller snapshots when exploring interleavings.
 */

#ifndef GTSC_VERIFY_ORACLE_HH_
#define GTSC_VERIFY_ORACLE_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "mem/coherence_probe.hh"
#include "sim/types.hh"

namespace gtsc::verify
{

class VersionOracle final : public mem::CoherenceProbe
{
  public:
    /** One committed store to one word (24 bytes: no padding). */
    struct Version
    {
        Addr addr = 0;
        Ts wts = 0;
        std::uint32_t epoch = 0;
        std::uint32_t value = 0;

        bool operator==(const Version &) const = default;
    };

    /** Whole-oracle snapshot (a value: copyable, comparable). */
    struct State
    {
        std::uint32_t epoch = 0;
        /**
         * Every word's version history, sorted by word address; each
         * word's run is contiguous and in append order. One flat
         * vector, so capture and restore are one assignment that
         * reuses the destination's capacity.
         */
        std::vector<Version> versions;

        bool operator==(const State &) const = default;
    };

    // --- CoherenceProbe ---
    void onStoreTs(Addr word_addr, std::uint32_t epoch, Ts wts,
                   std::uint32_t value, SmId sm, WarpId warp) override;
    void onLoadTs(Addr word_addr, std::uint32_t epoch, Ts ts,
                  std::uint32_t value, SmId sm, WarpId warp) override;

    /** Physical-time hooks unused: the lab checks G-TSC only. */
    void
    onStorePhys(Addr, Cycle, std::uint32_t, SmId, WarpId) override
    {}
    void
    onLoadPhys(Addr, Cycle, Cycle, std::uint32_t, SmId, WarpId) override
    {}

    /**
     * Timestamp reset: all old-epoch versions become unreachable
     * (every L1 flushes, L2 rewinds to wts=1 keeping its data), so
     * the history collapses to one version per word — the final
     * pre-reset value at {new_epoch, wts=0}.
     */
    void onEpochReset(std::uint32_t new_epoch) override;

    const State &state() const { return state_; }
    void restore(const State &s) { state_ = s; }

    /** Move the violations recorded since the last drain (messages)
     *  to the end of `out`. */
    void
    drainViolations(std::vector<std::string> &out)
    {
        for (auto &v : violations_)
            out.push_back(std::move(v));
        violations_.clear();
    }

  private:
    State state_;
    std::vector<std::string> violations_;
};

} // namespace gtsc::verify

#endif // GTSC_VERIFY_ORACLE_HH_
