/**
 * @file
 * ArrivalRing — a dense ring of in-flight NoC packets, indexed by
 * their arrival cycle. The crossbar is its only user. The mesh keeps
 * a heap: a packet its busy ejection port defers re-enters at the
 * next cycle ahead of later-injected arrivals there, and a bucket
 * holds push order, not injection order.
 *
 * Each in-flight entry is bucketed by its absolute arrival cycle,
 * `arrive & (span-1)`, under the **pure bucket** invariant: an entry
 * is inserted directly only while `arrive - base_ < span`, so when
 * cycle c drains, every entry in bucket (c & mask) arrived exactly at
 * c — no generation tags, no per-entry comparisons. Arrivals beyond
 * the window go to a stable overflow list and migrate into the ring
 * at every base advance; an overflow entry with arrival X always
 * predates (has a lower sequence number than) any direct insert with
 * arrival X, because direct inserts for X only become possible after
 * the base advance that migrates it — so buckets stay in injection
 * order by construction.
 *
 * drainDue() therefore visits due entries in exact (arrive, inject
 * order) priority-queue order without a heap: ascending occupied
 * buckets (found by a bitmap scan), each in push order. A cached
 * next-arrival cycle makes the nothing-due check O(1).
 *
 * All buckets share one flat slot array, `bucket_capacity` slots per
 * bucket, plus a per-bucket fill count, allocated once by init(). A
 * bucket is one arrival cycle, so the crossbar sizes it to its source
 * count: a source's arrivals strictly increase (each packet holds its
 * injection link for at least one cycle), so no cycle sees two from
 * one source. A push past the capacity is a simulation bug.
 */

#ifndef GTSC_NOC_ARRIVAL_RING_HH_
#define GTSC_NOC_ARRIVAL_RING_HH_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/bitmask.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace gtsc::noc
{

/**
 * The crossbar's window span. Arrival lag is injection backlog + tx +
 * hop latency, normally well under a hundred cycles; 1024 keeps even
 * heavily backlogged sources in-window, and anything beyond takes
 * the (correct, slower) overflow path.
 */
inline constexpr unsigned kArrivalRingSpan = 1024;

template <typename T>
class ArrivalRing
{
  public:
    /** Size the ring: `span` buckets (power of two) of
     *  `bucket_capacity` slots each. Call once at setup. */
    void
    init(unsigned span, unsigned bucket_capacity)
    {
        GTSC_ASSERT((span & (span - 1)) == 0 && span != 0,
                    "ArrivalRing span must be a power of two");
        span_ = span;
        mask_ = span - 1;
        capacity_ = bucket_capacity;
        slots_.resize(std::size_t{span_} * capacity_);
        fill_.assign(span_, 0);
        occ_.resize(span_);
        overflow_.reserve(16);
        overflowDue_.reserve(16);
    }

    /** Earliest queued arrival cycle; kCycleNever when empty. O(1). */
    Cycle nextArrival() const { return next_; }

    /**
     * Queue `entry` to surface at cycle `arrive` (> now). `now` is
     * the push cycle: an empty ring re-bases its window to now+1 so a
     * long idle gap (stale base_) cannot push near arrivals onto the
     * overflow path. Re-basing to now+1 — not to `arrive` — keeps the
     * window valid for later same-cycle pushes whose arrival is
     * earlier (sources carry different serialization backlogs).
     */
    void
    push(Cycle now, Cycle arrive, T entry)
    {
        GTSC_ASSERT(arrive > now, "arrival not in the future: ", arrive,
                    " <= ", now);
        if (count_ == 0 && now + 1 > base_)
            base_ = now + 1;
        GTSC_ASSERT(arrive >= base_,
                    "arrival in the past: ", arrive, " < ", base_);
        ++count_;
        if (arrive - base_ < span_) {
            place(arrive, std::move(entry));
        } else {
            overflow_.push_back(Overflow{arrive, std::move(entry)});
            overflowMin_ = std::min(overflowMin_, arrive);
        }
        next_ = std::min(next_, arrive);
    }

    /**
     * Visit every entry with arrive <= now as f(arrive, entry), in
     * exact (arrive, insertion) order, then advance the window past
     * `now`. The callback must not push into this ring (deliveries
     * that re-inject do so after the drain returns).
     */
    template <typename F>
    void
    drainDue(Cycle now, F &&f)
    {
        // In-window due buckets, ascending. Every occupied bucket
        // maps to one exact cycle in [base_, base_+span) (pure
        // bucket invariant), so the bitmap scan yields cycles in
        // order.
        while (true) {
            Cycle c = ringNext();
            if (c > now)
                break;
            unsigned idx = static_cast<unsigned>(c) & mask_;
            T *bucket = &slots_[std::size_t{idx} * capacity_];
            const unsigned n = fill_[idx];
            occ_.clear(idx);
            count_ -= n;
            for (unsigned i = 0; i < n; ++i)
                f(c, bucket[i]);
            fill_[idx] = 0;
        }
        // Due overflow is only reachable when now >= base_+span —
        // the whole window drained above, and every overflow arrival
        // (>= base_+span) sorts after every in-window one. Stable
        // sort restores (arrive, insertion) order among them.
        if (overflowMin_ <= now)
            drainOverflowDue(now, f);
        if (now >= base_)
            base_ = now + 1;
        migrate();
        next_ = std::min(ringNext(), overflowMin_);
    }

  private:
    struct Overflow
    {
        Cycle arrive;
        T entry;
    };

    /** Append to the bucket of in-window cycle `arrive`. */
    void
    place(Cycle arrive, T &&entry)
    {
        unsigned idx = static_cast<unsigned>(arrive) & mask_;
        GTSC_ASSERT(fill_[idx] < capacity_, "ArrivalRing bucket for cycle ",
                    arrive, " is full");
        slots_[std::size_t{idx} * capacity_ + fill_[idx]++] =
            std::move(entry);
        occ_.set(idx);
    }

    /** Min occupied in-window cycle via the bucket bitmap. */
    Cycle
    ringNext() const
    {
        unsigned start = static_cast<unsigned>(base_) & mask_;
        unsigned idx = occ_.findNextWrap(start);
        if (idx == sim::BitMask::kNpos)
            return kCycleNever;
        return base_ + ((idx - start) & mask_);
    }

    template <typename F>
    void
    drainOverflowDue(Cycle now, F &&f)
    {
        overflowDue_.clear();
        std::size_t keep = 0;
        for (auto &oe : overflow_) {
            if (oe.arrive <= now)
                overflowDue_.push_back(std::move(oe));
            else
                overflow_[keep++] = std::move(oe);
        }
        overflow_.resize(keep);
        count_ -= overflowDue_.size();
        std::stable_sort(overflowDue_.begin(), overflowDue_.end(),
                         [](const Overflow &a, const Overflow &b) {
                             return a.arrive < b.arrive;
                         });
        for (auto &oe : overflowDue_)
            f(oe.arrive, oe.entry);
    }

    /** Move overflow entries that fit the (advanced) window into
     *  their buckets, preserving relative order. */
    void
    migrate()
    {
        if (overflow_.empty()) {
            overflowMin_ = kCycleNever;
            return;
        }
        std::size_t keep = 0;
        overflowMin_ = kCycleNever;
        for (auto &oe : overflow_) {
            if (oe.arrive - base_ < span_) {
                place(oe.arrive, std::move(oe.entry));
            } else {
                overflowMin_ = std::min(overflowMin_, oe.arrive);
                overflow_[keep++] = std::move(oe);
            }
        }
        overflow_.resize(keep);
    }

    unsigned span_ = 0;
    unsigned mask_ = 0;
    unsigned capacity_ = 0;
    std::uint64_t count_ = 0;
    Cycle base_ = 0;
    Cycle next_ = kCycleNever;
    Cycle overflowMin_ = kCycleNever;
    /** Bucket b is slots_[b * capacity_, b * capacity_ + fill_[b]). */
    std::vector<T> slots_;
    std::vector<unsigned> fill_;
    sim::BitMask occ_;
    std::vector<Overflow> overflow_;
    std::vector<Overflow> overflowDue_;
};

} // namespace gtsc::noc

#endif // GTSC_NOC_ARRIVAL_RING_HH_
