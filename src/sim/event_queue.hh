/**
 * @file
 * A deterministic discrete-event queue.
 *
 * Components tick only on cycles where they have work (the main
 * loop's wake wheels, DESIGN.md §7); latency-shaped completions are
 * events here instead: L1 load completions, L2 access latency and
 * DRAM service. Events scheduled for the same cycle fire in
 * insertion order, which keeps runs bit-reproducible.
 */

#ifndef GTSC_SIM_EVENT_QUEUE_HH_
#define GTSC_SIM_EVENT_QUEUE_HH_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace gtsc::sim
{

/** Min-heap of (cycle, sequence, callback). */
class EventQueue
{
  public:
    /** Every hot completion captures only [this, slot] (its payload
     *  parks in a sim::SlotPool), which std::function stores inline,
     *  so scheduling one allocates nothing. */
    using Callback = std::function<void()>;

    /** Schedule cb to run at the given absolute cycle. */
    void
    schedule(Cycle when, Callback cb)
    {
        heap_.push(Event{when, nextSeq_++, std::move(cb)});
    }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Cycle of the earliest pending event; kCycleNever when empty. */
    Cycle
    nextEventCycle() const
    {
        return heap_.empty() ? kCycleNever : heap_.top().when;
    }

    /**
     * The cycle most recently passed to runUntil(). Callbacks that
     * need "now" (e.g. to schedule follow-up work) read this.
     */
    Cycle now() const { return now_; }

    /**
     * Run every event scheduled at or before `now`, in time order
     * (ties broken by scheduling order). Events may schedule further
     * events, including for the current cycle.
     */
    void
    runUntil(Cycle now)
    {
        now_ = now;
        while (!heap_.empty() && heap_.top().when <= now) {
            // Move out before pop so the callback can re-schedule.
            Callback cb = std::move(
                const_cast<Event &>(heap_.top()).cb);
            heap_.pop();
            cb();
        }
    }

    std::size_t size() const { return heap_.size(); }

  private:
    struct Event
    {
        Cycle when;
        std::uint64_t seq;
        Callback cb;

        bool
        operator>(const Event &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
    std::uint64_t nextSeq_ = 0;
    Cycle now_ = 0;
};

} // namespace gtsc::sim

#endif // GTSC_SIM_EVENT_QUEUE_HH_
