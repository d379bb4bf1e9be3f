/**
 * @file
 * Miss Status Holding Registers.
 *
 * One entry per outstanding line; accesses from different warps to
 * the same line merge into the entry's waiter list so a single
 * request goes to the lower level (Section II-A / V-B of the paper).
 * The same structure also parks accesses that are blocked behind a
 * locked (store-in-flight) line for G-TSC's update-visibility rule.
 *
 * The table is capacity-bounded (typically 32-64 entries) and its
 * entries live in a sim::PooledKeyMap: lookup is a linear scan over
 * packed line addresses, free() returns the slot without destroying
 * the entry, so waiter-vector capacity is recycled across misses and
 * the MSHR stops allocating once warmed up. Entry pointers are
 * stable across alloc/free.
 */

#ifndef GTSC_MEM_MSHR_HH_
#define GTSC_MEM_MSHR_HH_

#include <cstddef>
#include <vector>

#include "mem/access.hh"
#include "obs/events.hh"
#include "obs/tracer.hh"
#include "sim/event_queue.hh"
#include "sim/slot_pool.hh"
#include "sim/types.hh"

namespace gtsc::mem
{

struct MshrEntry
{
    Addr lineAddr = 0;
    /** A BusRd has been sent and its fill is pending. */
    bool requestSent = false;
    /** Outstanding requests for this line (forward-all sends one
     * per merged load; combining keeps this at 1). */
    unsigned outstanding = 0;
    /** Entry exists only to park accesses behind a locked line. */
    bool lockWait = false;
    /** wts the outstanding BusRd carried (G-TSC renewal matching). */
    Ts requestWts = 0;
    /** Accesses to replay when the entry resolves, in arrival order. */
    std::vector<Access> waiters;
};

/** Fixed-capacity MSHR table keyed by line address. */
class Mshr
{
  public:
    explicit Mshr(std::size_t capacity) : capacity_(capacity) {}

    MshrEntry *find(Addr line_addr) { return entries_.find(line_addr); }

    /** Allocate an entry; nullptr when the table is full. The
     *  entry's fields are reset but its waiter vector keeps the
     *  capacity it accumulated in earlier lives. */
    MshrEntry *
    alloc(Addr line_addr)
    {
        if (full())
            return nullptr;
        MshrEntry &e = entries_.emplace(line_addr);
        e.lineAddr = line_addr;
        e.requestSent = false;
        e.outstanding = 0;
        e.lockWait = false;
        e.requestWts = 0;
        e.waiters.clear();
        record(obs::EventKind::MshrAlloc, line_addr);
        return &e;
    }

    void
    free(Addr line_addr)
    {
        if (entries_.erase(line_addr))
            record(obs::EventKind::MshrRetire, line_addr);
    }

    /**
     * Enable alloc/retire event tracing. `clock` supplies the
     * current cycle (EventQueue::now() tracks the main loop).
     */
    void
    setTrace(obs::Tracer *tracer, obs::Tracer::TrackId track,
             const sim::EventQueue *clock)
    {
        trace_ = tracer;
        track_ = track;
        clock_ = clock;
    }

    bool full() const { return entries_.size() >= capacity_; }
    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** Visit live entries in line-address order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        entries_.forEach([&f](Addr, const MshrEntry &e) { f(e); });
    }

    void clear() { entries_.clear(); }

  private:
    /** Trace an alloc/retire with the table's size after it. */
    void
    record(obs::EventKind kind, Addr line_addr)
    {
        if (trace_) {
            trace_->record(track_,
                           obs::Event{clock_->now(), line_addr,
                                      entries_.size(), 0, kind, 0, 0});
        }
    }

    std::size_t capacity_;
    sim::PooledKeyMap<Addr, MshrEntry> entries_;
    obs::Tracer *trace_ = nullptr;
    obs::Tracer::TrackId track_ = 0;
    const sim::EventQueue *clock_ = nullptr;
};

} // namespace gtsc::mem

#endif // GTSC_MEM_MSHR_HH_
