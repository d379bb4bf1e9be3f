/**
 * @file
 * TimeWheel — the parking structure behind active-set scheduling.
 *
 * Each member id (a dense component index) is either *armed* at some
 * cycle or *parked* (kCycleNever). arm() merges with min semantics:
 * re-arming an already-armed id at a later cycle is a no-op, so wake
 * sources can fire eagerly without coordinating. popDue(now) returns
 * every id due at or before `now` — ascending, so callers tick due
 * components in component-index order — and disarms them; a
 * component re-arms itself after its tick from its nextWorkCycle()
 * horizon.
 *
 * A family holds one member per SM, per L2 partition or per network,
 * so the wheel is one armed cycle per id, scanned in id order: the
 * scan yields the ascending order with no sort, and the slot array
 * is sized once at reset, so arming and popping never touch the
 * heap.
 */

#ifndef GTSC_SIM_TIME_WHEEL_HH_
#define GTSC_SIM_TIME_WHEEL_HH_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace gtsc::sim
{

class TimeWheel
{
  public:
    /** @param n number of member ids (0..n-1), all initially parked. */
    explicit TimeWheel(std::size_t n = 0) { reset(n); }

    /** Re-park every id and rewind the drain frontier to cycle 0. */
    void reset(std::size_t n)
    {
        slots_.assign(n, kCycleNever);
        base_ = 0;
    }

    std::size_t size() const { return slots_.size(); }
    bool anyArmed() const { return nextWake() != kCycleNever; }
    bool armed(std::uint32_t id) const
    {
        return slots_[id] != kCycleNever;
    }
    Cycle armedAt(std::uint32_t id) const { return slots_[id]; }

    /**
     * Request a wake at `when` (min-merged with any earlier arm).
     * Arms at or before the drain frontier become due at the next
     * popDue() call — waking a component "now" after its phase has
     * passed this cycle naturally defers to the next cycle, the first
     * of its phases after the work arrived.
     */
    void arm(std::uint32_t id, Cycle when)
    {
        slots_[id] = std::min(slots_[id], std::max(when, base_));
    }

    /**
     * Collect every id due at or before `now` into `out` (ascending
     * id), disarm them, and advance the drain frontier to now+1.
     */
    void popDue(Cycle now, std::vector<std::uint32_t> &out)
    {
        out.clear();
        if (now < base_)
            return;
        for (std::uint32_t id = 0; id < slots_.size(); ++id) {
            if (slots_[id] <= now) {
                slots_[id] = kCycleNever;
                out.push_back(id);
            }
        }
        base_ = now + 1;
    }

    /**
     * Exact earliest armed cycle (kCycleNever when all parked).
     * Called only on cycles where the main loop ticked nothing and
     * weighs a jump.
     */
    Cycle nextWake() const
    {
        Cycle m = kCycleNever;
        for (const Cycle c : slots_)
            m = std::min(m, c);
        return m;
    }

  private:
    std::vector<Cycle> slots_; ///< armed cycle per id
    Cycle base_ = 0;           ///< next undrained cycle
};

} // namespace gtsc::sim

#endif // GTSC_SIM_TIME_WHEEL_HH_
