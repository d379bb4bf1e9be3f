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
 * Near arms (within `span` cycles of the drain frontier) link into a
 * power-of-two bucket ring indexed by cycle; far arms go to an
 * unsorted overflow list guarded by a cached minimum. Every id holds
 * at most one position (intrusive prev/next arrays, O(1) unlink on an
 * earlier re-arm), and every container is preallocated at reset, so
 * steady-state operation never touches the heap — a zero-alloc
 * invariant the hot loop's other structures already keep. nextWake()
 * is an exact O(n) scan of the slot array — it is only consulted when
 * the main loop considers a jump, never on busy cycles.
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
    /**
     * @param n    number of member ids (0..n-1), all initially parked.
     * @param span bucket-ring width in cycles; rounded up to a power
     *             of two. Arms further than this from the drain
     *             frontier land in the overflow list.
     */
    explicit TimeWheel(std::size_t n = 0, std::size_t span = 256)
    {
        std::size_t w = 1;
        while (w < span)
            w <<= 1;
        head_.assign(w, kNil);
        mask_ = w - 1;
        reset(n);
    }

    /** Re-park every id and rewind the drain frontier to cycle 0. */
    void reset(std::size_t n)
    {
        slots_.assign(n, kCycleNever);
        loc_.assign(n, kLocNone);
        next_.assign(n, kNil);
        prev_.assign(n, kNil);
        ovPos_.assign(n, 0);
        std::fill(head_.begin(), head_.end(), kNil);
        overflow_.clear();
        overflow_.reserve(n);
        overflowMin_ = kCycleNever;
        base_ = 0;
        armedCount_ = 0;
    }

    std::size_t size() const { return slots_.size(); }
    bool anyArmed() const { return armedCount_ != 0; }
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
        if (when < base_)
            when = base_;
        const Cycle cur = slots_[id];
        if (when >= cur)
            return;
        if (cur == kCycleNever)
            ++armedCount_;
        else
            unlink(id);
        slots_[id] = when;
        if (when - base_ < head_.size()) {
            const std::size_t b = static_cast<std::size_t>(when) & mask_;
            loc_[id] = static_cast<std::uint32_t>(b);
            prev_[id] = kNil;
            next_[id] = head_[b];
            if (head_[b] != kNil)
                prev_[head_[b]] = id;
            head_[b] = id;
        } else {
            loc_[id] = kLocOverflow;
            ovPos_[id] = static_cast<std::uint32_t>(overflow_.size());
            overflow_.push_back(id);
            overflowMin_ = std::min(overflowMin_, when);
        }
    }

    /**
     * Collect every id due at or before `now` into `out` (ascending
     * id), disarm them, and advance the drain frontier to now+1.
     * Cost is O(buckets visited + linked entries); a jump of any
     * length visits each ring bucket at most once, and the overflow
     * list is only walked when its cached minimum is due.
     */
    void popDue(Cycle now, std::vector<std::uint32_t> &out)
    {
        out.clear();
        if (now < base_)
            return;
        if (armedCount_ == 0) {
            base_ = now + 1;
            return;
        }
        if (now - base_ >= head_.size() - 1) {
            // Long jump: every bucket holds at least one drained
            // cycle, so sweep each once keeping only future entries.
            for (std::size_t b = 0; b < head_.size(); ++b)
                drainBucket(b, now, out);
        } else {
            for (Cycle c = base_; c <= now; ++c)
                drainBucket(static_cast<std::size_t>(c) & mask_, now,
                            out);
        }
        base_ = now + 1;
        if (overflowMin_ <= now) {
            // The cached min is conservative (an unlink may leave it
            // stale-low), so this walk can come up empty; either way
            // it re-establishes the exact minimum.
            overflowMin_ = kCycleNever;
            std::size_t i = 0;
            while (i < overflow_.size()) {
                const std::uint32_t id = overflow_[i];
                if (slots_[id] <= now) {
                    removeOverflowAt(i);
                    loc_[id] = kLocNone;
                    slots_[id] = kCycleNever;
                    --armedCount_;
                    out.push_back(id);
                } else {
                    overflowMin_ = std::min(overflowMin_, slots_[id]);
                    ++i;
                }
            }
        }
        std::sort(out.begin(), out.end());
    }

    /**
     * Exact earliest armed cycle (kCycleNever when all parked).
     * Linear in the member count — called only on cycles where the
     * main loop ticked nothing and weighs a jump.
     */
    Cycle nextWake() const
    {
        Cycle m = kCycleNever;
        for (const Cycle c : slots_)
            m = std::min(m, c);
        return m;
    }

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;
    static constexpr std::uint32_t kLocNone = 0xffffffffu;
    static constexpr std::uint32_t kLocOverflow = 0xfffffffeu;

    /** Detach an armed id from whichever container holds it. */
    void unlink(std::uint32_t id)
    {
        const std::uint32_t loc = loc_[id];
        if (loc == kLocNone)
            return;
        if (loc == kLocOverflow) {
            removeOverflowAt(ovPos_[id]);
        } else {
            if (prev_[id] != kNil)
                next_[prev_[id]] = next_[id];
            else
                head_[loc] = next_[id];
            if (next_[id] != kNil)
                prev_[next_[id]] = prev_[id];
        }
        loc_[id] = kLocNone;
    }

    void removeOverflowAt(std::size_t i)
    {
        const std::uint32_t last = overflow_.back();
        overflow_[i] = last;
        ovPos_[last] = static_cast<std::uint32_t>(i);
        overflow_.pop_back();
    }

    /** Pop the ids due by `now` out of one bucket's list; ids of a
     * later wrap generation (when > now) stay linked. */
    void drainBucket(std::size_t b, Cycle now,
                     std::vector<std::uint32_t> &out)
    {
        std::uint32_t id = head_[b];
        while (id != kNil) {
            const std::uint32_t nxt = next_[id];
            if (slots_[id] <= now) {
                if (prev_[id] != kNil)
                    next_[prev_[id]] = next_[id];
                else
                    head_[b] = next_[id];
                if (nxt != kNil)
                    prev_[nxt] = prev_[id];
                loc_[id] = kLocNone;
                slots_[id] = kCycleNever;
                --armedCount_;
                out.push_back(id);
            }
            id = nxt;
        }
    }

    std::vector<Cycle> slots_; ///< armed cycle per id
    /** Bucket index, kLocOverflow, or kLocNone per id. */
    std::vector<std::uint32_t> loc_;
    std::vector<std::uint32_t> next_, prev_; ///< intrusive bucket links
    std::vector<std::uint32_t> head_;        ///< bucket ring heads
    std::vector<std::uint32_t> overflow_;    ///< far-armed ids
    std::vector<std::uint32_t> ovPos_;       ///< id -> overflow_ index
    Cycle overflowMin_ = kCycleNever;
    std::size_t mask_ = 0;
    Cycle base_ = 0; ///< next undrained cycle
    std::size_t armedCount_ = 0;
};

} // namespace gtsc::sim

#endif // GTSC_SIM_TIME_WHEEL_HH_
