/**
 * @file
 * Abstract cache-controller interfaces the GPU model drives.
 *
 * The SM talks to an L1Controller; L1 and L2 exchange Packets over
 * the interconnect via injected send functions; the L2Controller
 * talks to its DRAM channel directly. Concrete implementations live
 * in src/core (G-TSC) and src/protocols (TC, baselines).
 */

#ifndef GTSC_MEM_CONTROLLERS_HH_
#define GTSC_MEM_CONTROLLERS_HH_

#include <cstdint>
#include <functional>
#include <utility>

#include "mem/access.hh"
#include "mem/packet.hh"
#include "sim/types.hh"

// Horizon contract (main loop, DESIGN.md §7)
// ------------------------------------------
// Every ticked component reports, via nextWorkCycle(now), the
// earliest future cycle at which its tick() could do anything
// observable: change state, accept or emit a packet, or mutate a
// statistic (per-cycle occupancy counters included). The GPU main
// loop parks the component until that cycle and jumps straight to
// the earliest one when nothing is due, so the contract is strict:
//
//  - The returned cycle must be > now (kCycleNever when the
//    component is fully quiescent and only external input — a
//    delivered packet, an event-queue callback — can wake it).
//  - It must be conservative: ticking the component at any cycle in
//    (now, horizon) must be a no-op, including stat updates.
//  - It need not be tight: a horizon before the real work only costs
//    no-op ticks. Returning now + 1 is always correct and simply
//    keeps the component ticking while the condition holds.
//
// Work that completes through the shared EventQueue does not need to
// be reported: the main loop folds events_.nextEventCycle() into the
// same minimum.
//
// Wake contract (main loop, DESIGN.md §7)
// ---------------------------------------
// A component is ticked *only* on cycles where it has work. After
// each tick it is parked and re-armed at its nextWorkCycle()
// horizon; between those cycles it is never ticked at all. A parked
// component can acquire work earlier than its horizon only through
// an external entry point — receiveRequest/receiveResponse/access, a
// network inject, a DRAM push — or through one of its own
// event-queue callbacks. Every such path that can create tick() work
// must call the wake hook with the current cycle:
//
//  - Waking is min-merged: waking an already-armed component at a
//    later cycle is a no-op, so wake sites may fire eagerly and
//    redundantly. An unnecessary wake costs one no-op tick; a missed
//    wake leaves work unticked and changes results (the hot-path
//    goldens catch it).
//  - A wake at the current cycle ticks the component this cycle if
//    its phase has not run yet, else next cycle — the first of its
//    phases after the new state became visible.
//  - Entry points that only schedule event-queue callbacks (and
//    create no tick() work) need no wake; the loop runs the event
//    queues every cycle it executes and folds nextEventCycle() into
//    its jump horizon.
//
// Reject-generation contract (L1 only, DESIGN.md §7)
// --------------------------------------------------
// Every L1 keeps a reject generation: a counter that moves at every
// entry point that can turn a rejected access() into an accepted
// one, and a record of the counters its latest reject bumped
// (lastReject). The entry points are an accepted access() (so each
// replay a tick() accepts), receiveResponse, flush, noteSpinRetry and
// any verify restore/evict hook; G-TSC also moves it on a TsDomain
// reset. A reject leaves it where it is. The guarantee: access() of
// the same Access at the same generation is rejected again and bumps
// the same counters by the same amounts, whatever the cycle. The SM
// relies on it to park on such a retry and charge the recorded
// counters itself instead of calling access(); it is woken through
// the generation hook, which fires on every move.

namespace gtsc::obs
{
class Tracer;
}

namespace gtsc::mem
{

/**
 * The counters one rejected access() bumped, each by one: the tag
 * probe (when the controller counts one) and the reject cause. A
 * null slot is unused. charge() repeats the reject's stat effect.
 */
struct RejectCharge
{
    std::uint64_t *counters[2] = {nullptr, nullptr};

    void
    charge(std::uint64_t times) const
    {
        for (std::uint64_t *c : counters) {
            if (c)
                *c += times;
        }
    }
};

/**
 * Private (per-SM) cache controller.
 *
 * Completion is asynchronous: access() returning true only means the
 * access was accepted (it may complete the same call for an L1 hit).
 * Returning false is a structural reject (MSHR full, ...) and the SM
 * must retry the same access on a later cycle.
 */
class L1Controller
{
  public:
    /** A load finished; result carries data + checker timing. */
    using LoadDoneFn =
        std::function<void(const Access &, const AccessResult &)>;
    /** A store was globally performed; gwct != 0 only for TC-Weak. */
    using StoreDoneFn = std::function<void(const Access &, Cycle gwct)>;
    /** Inject a request packet into the request network. */
    using SendFn = std::function<void(Packet &&)>;
    /** Re-arm this parked component (wake contract above). */
    using WakeFn = std::function<void(Cycle)>;
    /** The reject generation moved (reject-generation contract). */
    using GenerationFn = std::function<void()>;

    virtual ~L1Controller() = default;

    void setLoadDone(LoadDoneFn f) { loadDone_ = std::move(f); }
    void setStoreDone(StoreDoneFn f) { storeDone_ = std::move(f); }
    void setSend(SendFn f) { send_ = std::move(f); }
    void setWakeHook(WakeFn f) { wake_ = std::move(f); }
    void setGenerationHook(GenerationFn f) { generationMoved_ = std::move(f); }

    /** Reject generation (contract above); starts at 1. */
    std::uint64_t rejectGeneration() const { return rejectGen_; }

    /** Counters the latest rejected access() bumped. */
    const RejectCharge &lastReject() const { return lastReject_; }

    /** Accept a coalesced access; false = structural stall, retry. */
    virtual bool access(const Access &access, Cycle now) = 0;

    /** A response packet arrived from the interconnect. */
    virtual void receiveResponse(Packet &&pkt, Cycle now) = 0;

    /** Per-cycle housekeeping (replays, latency pipelines). */
    virtual void tick(Cycle now) = 0;

    /**
     * Earliest future cycle at which tick() could make progress; see
     * the horizon contract above. The default never skips.
     */
    virtual Cycle nextWorkCycle(Cycle now) const { return now + 1; }

    /** Kernel-boundary flush (GPU L1s are flushed between kernels). */
    virtual void flush(Cycle now) = 0;

    /**
     * A warp failed a spin-wait iteration on this address. G-TSC
     * advances the warp's logical clock so the next probe renews its
     * lease instead of re-reading a stale local copy forever (the
     * Tardis livelock-avoidance rule). Other protocols ignore this.
     */
    virtual void noteSpinRetry(WarpId warp, Addr line_addr)
    {
        (void)warp;
        (void)line_addr;
    }

    /** Outstanding state that must drain before kernel end. */
    virtual bool quiescent() const = 0;

    /**
     * Opt into event tracing (obs subsystem). Implementations
     * register a track and record protocol events; the default is a
     * no-op so protocols without instrumentation keep working.
     */
    virtual void attachTracer(obs::Tracer &tracer) { (void)tracer; }

  protected:
    /** Notify the scheduler this component has tick() work at `now`
     *  (no-op when unhooked, as in unit tests that tick directly). */
    void
    wake(Cycle now)
    {
        if (wake_)
            wake_(now);
    }

    /** A rejected access may now be accepted: move the generation
     *  and tell the hook. */
    void
    moveGeneration()
    {
        ++rejectGen_;
        if (generationMoved_)
            generationMoved_();
    }

    /**
     * Reject an access: bump `cause`, record it with the tag-probe
     * counter `tag` the access already bumped (null when none), and
     * return false for access() to pass on.
     */
    bool
    reject(std::uint64_t *tag, std::uint64_t *cause)
    {
        ++(*cause);
        lastReject_.counters[0] = tag;
        lastReject_.counters[1] = cause;
        return false;
    }

    /** A completed load parked in a sim::SlotPool until its
     *  completion event fires, so the event captures only
     *  [this, slot] (no per-load closure allocation). */
    struct LoadReply
    {
        Access acc;
        AccessResult res;
    };

    LoadDoneFn loadDone_;
    StoreDoneFn storeDone_;
    SendFn send_;
    WakeFn wake_;

  private:
    GenerationFn generationMoved_;
    std::uint64_t rejectGen_ = 1;
    RejectCharge lastReject_;
};

/**
 * Shared (per-partition) cache controller.
 */
class L2Controller
{
  public:
    /** Inject a response packet into the response network. */
    using SendFn = std::function<void(Packet &&)>;
    /** Re-arm this parked component (wake contract above). */
    using WakeFn = std::function<void(Cycle)>;

    virtual ~L2Controller() = default;

    void setSend(SendFn f) { send_ = std::move(f); }
    void setWakeHook(WakeFn f) { wake_ = std::move(f); }

    /** A request packet arrived from the interconnect. */
    virtual void receiveRequest(Packet &&pkt, Cycle now) = 0;

    /** Per-cycle housekeeping (service queues, stalled stores). */
    virtual void tick(Cycle now) = 0;

    /**
     * Earliest future cycle at which tick() could make progress; see
     * the horizon contract above. The default never skips.
     */
    virtual Cycle nextWorkCycle(Cycle now) const { return now + 1; }

    /**
     * Kernel-boundary flush: write dirty lines back to memory and
     * invalidate, so host-side re-initialization between kernels is
     * visible. Protocol bookkeeping (e.g. G-TSC's mem_ts) must be
     * preserved across the flush. Only called when quiescent.
     */
    virtual void flushAll(Cycle now) { (void)now; }

    /** Outstanding state that must drain before simulation end. */
    virtual bool quiescent() const = 0;

    /** Opt into event tracing; no-op by default (see L1Controller). */
    virtual void attachTracer(obs::Tracer &tracer) { (void)tracer; }

  protected:
    /** Notify the scheduler this component has tick() work at `now`. */
    void
    wake(Cycle now)
    {
        if (wake_)
            wake_(now);
    }

    SendFn send_;
    WakeFn wake_;
};

} // namespace gtsc::mem

#endif // GTSC_MEM_CONTROLLERS_HH_
