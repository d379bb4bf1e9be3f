/**
 * @file
 * The logical-timestamp domain shared by every G-TSC controller.
 *
 * Section V-D: timestamps are narrow (16 bits by default). When an
 * update at any L2 bank would exceed the maximum, the bank signals a
 * reset: every L2 bank rewinds its block timestamps (wts=1,
 * rts=lease) and its memory timestamp, and a new epoch begins. L1
 * caches notice the epoch change lazily (on their next access or
 * response), flush, and reset their warp timestamps — mirroring the
 * paper's reset message piggybacked on responses.
 */

#ifndef GTSC_CORE_TS_DOMAIN_HH_
#define GTSC_CORE_TS_DOMAIN_HH_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/gtsc_state.hh"
#include "sim/config.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gtsc::core
{

class TsDomain
{
  public:
    TsDomain(const sim::Config &cfg, sim::StatSet &stats)
        : tsResets_(&stats.counter("gtsc.ts_resets"))
    {
        unsigned width = cfg.getUnsigned("gtsc.ts_bits");
        if (width < 4 || width > 62)
            GTSC_FATAL("gtsc.ts_bits must be in [4,62], got ", width);
        tsMax_ = (Ts{1} << width) - 1;
        lease_ = cfg.getUint("gtsc.lease");
        if (lease_ == 0 || lease_ * 4 > tsMax_)
            GTSC_FATAL("gtsc.lease=", lease_,
                       " must be in [1, tsMax/4] for ts_bits");
        tsBytes_ = (width + 7) / 8;
    }

    Ts tsMax() const { return tsMax_; }
    Ts lease() const { return lease_; }
    unsigned tsBytes() const { return tsBytes_; }
    std::uint32_t epoch() const { return epoch_; }

    /** L2 banks register their rewind action here. */
    void
    addResetListener(std::function<void()> fn)
    {
        listeners_.push_back(std::move(fn));
    }

    /**
     * An L2 bank hit the timestamp ceiling: start a new epoch and
     * rewind every bank. Callers recompute their timestamps in the
     * new epoch afterwards.
     */
    void
    triggerReset()
    {
        ++epoch_;
        ++(*tsResets_);
        for (auto &fn : listeners_)
            fn();
    }

    /** Snapshot the domain (verification lab): the epoch alone
     *  fully describes its future behaviour. */
    TsDomainVerifyState
    captureVerifyState() const
    {
        return TsDomainVerifyState{epoch_};
    }

    /**
     * Restore a snapshot. Listeners are NOT fired — the caller
     * restores every component's state explicitly.
     */
    void
    restoreVerifyState(const TsDomainVerifyState &s)
    {
        epoch_ = s.epoch;
    }

  private:
    std::uint64_t *tsResets_;
    Ts tsMax_ = 0;
    Ts lease_ = 0;
    unsigned tsBytes_ = 2;
    std::uint32_t epoch_ = 0;
    std::vector<std::function<void()>> listeners_;
};

} // namespace gtsc::core

#endif // GTSC_CORE_TS_DOMAIN_HH_
