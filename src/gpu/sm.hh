/**
 * @file
 * Streaming Multiprocessor timing model.
 *
 * Holds warp contexts, issues one instruction per cycle from a
 * greedy-then-oldest scheduler, coalesces memory instructions and
 * drives the private-cache controller. Implements the consistency
 * model: under SC every memory instruction blocks its warp until
 * globally performed (one outstanding request per warp, Section VI);
 * under RC stores are fire-and-forget and fences stall the warp
 * until all of its stores are acknowledged (and, for TC-Weak, until
 * the warp's Global Write Completion Time has passed).
 */

#ifndef GTSC_GPU_SM_HH_
#define GTSC_GPU_SM_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "gpu/coalescer.hh"
#include "gpu/kernel.hh"
#include "gpu/params.hh"
#include "mem/controllers.hh"
#include "obs/events.hh"
#include "sim/bitmask.hh"
#include "sim/config.hh"
#include "sim/ring_buffer.hh"
#include "sim/small_function.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gtsc::gpu
{

class Sm
{
  public:
    Sm(SmId id, const GpuParams &params, const sim::Config &cfg,
       sim::StatSet &stats, mem::L1Controller &l1,
       StoreValueSource &values);

    /**
     * Install one program per warp and mark all warps runnable.
     * Takes the vector by rvalue reference and only moves the
     * programs out, so the caller keeps the buffer and can relaunch
     * kernel after kernel without reallocating it (zero-alloc steady
     * state).
     */
    void
    launchKernel(std::vector<std::unique_ptr<WarpProgram>> &&programs);

    /**
     * Advance one cycle: wake warps, issue, account stalls. O(1) on
     * stall/idle cycles: when the cached horizon proves no warp can
     * issue, wake or retry at `now` (and no L1 callback has touched
     * warp state since it was computed), the tick reduces to the
     * exact per-cycle accounting the full pass would have done — one
     * stall-bucket increment and the per-warp fence-stall counter.
     */
    void
    tick(Cycle now)
    {
        now_ = now;
        if (idleTickValid_ && now < cachedNextWork_) {
            win_.fenceStallCycles += cachedWaitFence_;
            ++(*cachedStallBucket_);
            return;
        }
        tickFull(now);
    }

    /**
     * Earliest future cycle at which tick() could issue, wake a warp
     * or retry a structural reject (horizon contract,
     * mem/controllers.hh). Warps blocked purely on memory responses
     * report kCycleNever — their wake-up is driven by the L1.
     */
    Cycle nextWorkCycle(Cycle now) const;

    /**
     * Account `span` skipped cycles in bulk, exactly as `span`
     * no-progress tick()s would have: one stall/idle cycle per
     * skipped cycle in the Figure 13 breakdown, plus the per-warp
     * fence-stall counter for every fence-blocked warp. Only valid
     * while nextWorkCycle() exceeds the skipped range (no warp wakes
     * or issues inside it).
     */
    void fastForwardStats(Cycle span);

    /**
     * Advance the cached callback timestamp after a fast-forward
     * jump. L1 completion callbacks (which fire from the event queue
     * and network delivery, *before* this SM's tick on a given
     * cycle) read now_, so it must lag the loop cycle by exactly one
     * — as it does when every cycle is ticked. A spin-load backoff
     * computed from a now_ that lags by the whole skipped span would
     * retry earlier than the pure cycle-driven loop.
     */
    void syncTo(Cycle now) { now_ = now; }

    /**
     * Deferred catch-up for the active-set scheduler: account every
     * skipped parked cycle in (now_, upto] as fastForwardStats()
     * would and advance now_ to upto. Valid exactly when the SM was
     * parked through that range — the scheduler never jumps past an
     * armed cycle, so a parked SM's horizon always exceeds it. Called
     * before a due tick, before anything samples this SM's counters
     * (timeline, span end, loop exit), and from the L1 completion
     * callbacks so they observe a now_ lagging the loop by one cycle.
     */
    void
    accountThrough(Cycle upto)
    {
        if (now_ >= upto)
            return;
        fastForwardStats(upto - now_);
        now_ = upto;
    }

    /**
     * Point this SM at its scheduler's current-cycle counter
     * (GpuSystem::cycle_). The completion callbacks catch up skipped parked
     * cycles against it before processing; with the always-tick
     * loops now_ never lags, so the catch-up is a dead branch.
     */
    void setSchedNow(const Cycle *sched) { schedNow_ = sched; }

    /**
     * Re-arm hook (wake contract, mem/controllers.hh): fired after
     * every L1 completion callback, the only external path that
     * hands a parked SM work before its horizon.
     */
    void setWakeHook(sim::SmallFunction<void()> fn)
    {
        wake_ = std::move(fn);
    }

    /**
     * Opt into warp issue/stall/resume event tracing. Events are
     * only recorded at state transitions (which happen on identical
     * cycles with fast-forward on or off), never per idle cycle.
     */
    void attachTracer(obs::Tracer &tracer);

    /** All warps have exited (stores may still be outstanding).
     *  O(1): maintained as a live-warp count at the two transition
     *  points (kernel launch, Exit retire). */
    bool allWarpsDone() const { return liveWarps_ == 0; }

    /**
     * Add the windowed counter block into the StatSet and zero it.
     * Hot-path increments hit the local POD block (one cache line)
     * instead of scattered map nodes; anything that reads the SM's
     * counters by name — timeline samples, the end-of-kernel
     * harvest — must be preceded by a flush. GpuSystem
     * owns those call sites.
     */
    void flushStatWindow();

    /** No accesses awaiting submission and no outstanding stores. */
    bool quiescent() const;

    std::uint64_t instructionsRetired() const { return retiredTotal_; }

    /** Issue slots consumed across all full ticks (diagnostic for
     *  the issue-utilization ratio in bench/sweep_scaling; never a
     *  StatSet counter, so golden stat dumps are unaffected). */
    std::uint64_t issueSlotsUsed() const { return issueSlotsUsed_; }

    SmId id() const { return id_; }

  private:
    enum class WarpState : std::uint8_t
    {
        Idle,        ///< no program installed
        Ready,       ///< can issue
        WaitCompute, ///< busy until readyAt (also spin backoff)
        WaitMem,     ///< blocked on current memory instruction
        WaitFence,   ///< blocked on fence condition
        Done,        ///< program exhausted
    };

    /**
     * Cold/bulky per-warp context. The fields the per-cycle
     * scheduler scans (state, readyAt, the mem-retry flag) live in
     * parallel arrays instead — warpState_/warpReadyAt_/memRetry_ —
     * so wake, issue-candidate and stall-classification passes walk
     * a few contiguous cachelines rather than striding through
     * ~400-byte WarpCtx records (WarpInstr alone is 32 lane
     * addresses).
     */
    struct WarpCtx
    {
        std::unique_ptr<WarpProgram> program;
        WarpInstr cur;
        /** Pre-decoded cursor for `cur` when it is a memory
         *  instruction: the coalescing plan (target line set, word
         *  masks) computed once at fetch, so issue slots and spin
         *  retries never re-derive lane addresses. */
        CoalescePlan plan;
        bool hasCur = false;
        /** Accesses accepted-pending submission (structural retries).
         *  Drained by cursor (submitHead) instead of front-erase so
         *  the ~176-byte Access elements never shift; the buffer is
         *  cleared and its capacity reused once fully drained. */
        std::vector<mem::Access> toSubmit;
        /** First not-yet-submitted index into toSubmit. */
        std::size_t submitHead = 0;
        /** Accesses of the current instruction awaiting completion. */
        unsigned inFlight = 0;
        /** Store acks not yet received (fences, SC blocking). */
        unsigned outstandingStores = 0;
        Cycle gwct = 0;
        std::uint32_t spinIters = 0;
        std::uint32_t spinObserved = 0;
        /** TSO: stores waiting to drain in order (store buffer). */
        sim::RingBuffer<mem::Access> storeFifo;
        /** TSO: store-buffer entries submitted, awaiting their ack. */
        unsigned storesSubmitted = 0;
        /** TSO: current load aliases a buffered store; must drain. */
        bool loadWaitsStores = false;

        bool
        submitsPending() const
        {
            return submitHead < toSubmit.size();
        }
    };

    /** Full tick pass (wake, issue, classify); see tick(). */
    void tickFull(Cycle now);

    /** Horizon scan over all warps (the uncached nextWorkCycle). */
    Cycle computeNextWork(Cycle now) const;

    /**
     * Drop the cached horizon/stall classification. Called wherever
     * warp state changes outside the full tick pass itself: kernel
     * launch and the L1 completion callbacks.
     */
    void
    invalidateTickCache()
    {
        horizonValid_ = false;
        idleTickValid_ = false;
    }

    /** Mask holding warps in state `s` (nullptr for Idle/Done —
     *  those are the complement of the four tracked masks). */
    sim::BitMask *
    maskFor(WarpState s)
    {
        switch (s) {
          case WarpState::Ready:
            return &readyMask_;
          case WarpState::WaitCompute:
            return &waitComputeMask_;
          case WarpState::WaitMem:
            return &waitMemMask_;
          case WarpState::WaitFence:
            return &waitFenceMask_;
          default:
            return nullptr;
        }
    }

    /** The single warp-state transition point: updates the byte
     *  array and the packed masks together. */
    void
    setWarpState(unsigned w, WarpState s)
    {
        WarpState old = warpState_[w];
        if (old == s)
            return;
        if (sim::BitMask *m = maskFor(old))
            m->clear(w);
        if (sim::BitMask *m = maskFor(s))
            m->set(w);
        warpState_[w] = s;
    }

    /** The single memRetry_ transition point (byte + mask bit). */
    void
    setMemRetry(unsigned w, bool v)
    {
        memRetry_[w] = v ? 1 : 0;
        if (v)
            retryMask_.set(w);
        else
            retryMask_.clear(w);
    }

    /** Try to make progress for warp w; true if an issue slot used. */
    bool issueWarp(unsigned w, Cycle now);

    /** TSO: push the next buffered store into the cache, in order. */
    void drainStoreFifo(unsigned w, Cycle now);

    /** Start executing instruction `instr` on warp w. */
    bool beginInstr(unsigned w, Cycle now);

    /** Submit queued accesses to L1; true if all were accepted.
     *  Maintains memRetry_[w] (callers guarantee the warp is not
     *  alias-blocked when they call this). */
    bool drainSubmits(unsigned w, Cycle now);

    void retire(unsigned w);
    bool fenceSatisfied(const WarpCtx &warp, Cycle now) const;
    void finishMemInstr(unsigned w, Cycle now);

    /** Record a warp trace event (caller checks trace_ != nullptr). */
    void traceWarp(obs::EventKind kind, Cycle now, unsigned w,
                   std::uint16_t detail, Addr addr);

    void onLoadDone(const mem::Access &acc, const mem::AccessResult &res,
                    Cycle now);
    void onStoreDone(const mem::Access &acc, Cycle gwct, Cycle now);

    SmId id_;
    GpuParams params_;
    sim::StatSet &stats_;
    mem::L1Controller &l1_;
    Coalescer coalescer_;

    /** Warp scheduling policy (gpu.scheduler). */
    enum class Scheduler : std::uint8_t
    {
        Gto,    ///< greedy-then-oldest (default, GPGPU-Sim's GTO)
        Rr,     ///< loose round-robin from the last issued warp
        Oldest, ///< always lowest warp id first
    };

    std::vector<WarpCtx> warps_;
    // --- hot per-warp scheduler state (SoA; see WarpCtx comment) ---
    /** Scheduling state, one byte per warp. */
    std::vector<WarpState> warpState_;
    /** Wake cycle for WaitCompute warps (parallel to warpState_). */
    std::vector<Cycle> warpReadyAt_;
    /**
     * 1 iff the warp has submits pending and is not alias-blocked
     * (submitsPending() && !loadWaitsStores) — the WaitMem warps an
     * issue slot must retry. Maintained by drainSubmits and the two
     * loadWaitsStores transition points.
     */
    std::vector<std::uint8_t> memRetry_;

    // --- packed scheduling masks (one uint64 word per 64 warps) ---
    // Derived views of warpState_/memRetry_/storeFifo occupancy kept
    // exactly in sync at every transition (setWarpState /
    // setMemRetry / the storeFifo push-drain points): the wake pass
    // walks only waitComputeMask_|waitFenceMask_, the issue pickers
    // are ctz scans over readyMask_|retryMask_, and the no-issue
    // classification is four popcount/any queries. The byte arrays
    // stay authoritative for everything cold (mask↔vector
    // equivalence invariant, DESIGN.md §10).
    sim::BitMask readyMask_;
    sim::BitMask waitComputeMask_;
    sim::BitMask waitMemMask_;
    sim::BitMask waitFenceMask_;
    /** Mirror of memRetry_ (set bits ⊆ waitMemMask_). */
    sim::BitMask retryMask_;
    /** Warps whose storeFifo is non-empty (empty outside TSO,
     *  letting the per-cycle drain pass be skipped entirely). */
    sim::BitMask storeFifoMask_;
    /** Coalescer output scratch; swapped into warp.toSubmit so both
     *  buffers recycle their capacity (zero-alloc steady state). */
    std::vector<mem::Access> coalesceBuf_;
    Scheduler scheduler_;
    unsigned lastIssued_ = 0;
    std::uint64_t nextAccessId_ = 1;
    std::uint64_t retiredTotal_ = 0;
    /** Issue slots consumed (diagnostic; see issueSlotsUsed()). */
    std::uint64_t issueSlotsUsed_ = 0;
    Cycle now_ = 0; ///< updated at tick entry; callbacks use it
    /** Scheduler's current cycle (setSchedNow); callbacks catch
     *  now_ up to lag it by one before running. */
    const Cycle *schedNow_ = nullptr;
    /** Active-set re-arm hook; empty under the always-tick loop. */
    sim::SmallFunction<void()> wake_;

    /** Warps not yet Done/Idle (O(1) allWarpsDone). */
    unsigned liveWarps_ = 0;

    // --- cached tick/horizon state (data-oriented hot path) ---
    // Valid while no warp state has changed since it was computed:
    // the full tick pass refreshes it after a no-issue cycle, and
    // every external mutation point calls invalidateTickCache().
    /** Cached nextWorkCycle() result (absolute cycle). */
    mutable Cycle cachedNextWork_ = 0;
    mutable bool horizonValid_ = false;
    /** The no-issue classification caches below are usable. */
    bool idleTickValid_ = false;
    /** Stall bucket the classification chose (idle/compute/mem);
     *  points into win_. */
    std::uint64_t *cachedStallBucket_ = nullptr;
    /** Warps in WaitFence (per-cycle fence-stall accounting). */
    unsigned cachedWaitFence_ = 0;

    unsigned issueWidth_;
    Cycle spinBackoff_;

    /**
     * Windowed counter block: every hot-path stat increment lands
     * here (one POD cache line) and flushStatWindow() batches it
     * into the StatSet's map nodes. Field order mirrors the cached
     * pointers below.
     */
    struct StatWindow
    {
        std::uint64_t activeCycles = 0;
        std::uint64_t memStallCycles = 0;
        std::uint64_t computeStallCycles = 0;
        std::uint64_t idleCycles = 0;
        std::uint64_t instrs = 0;
        std::uint64_t loads = 0;
        std::uint64_t stores = 0;
        std::uint64_t fences = 0;
        std::uint64_t spinRetries = 0;
        std::uint64_t spinGiveups = 0;
        std::uint64_t fenceStallCycles = 0;
    };
    StatWindow win_;

    // flush targets in the StatSet (stable map-node addresses)
    std::uint64_t *activeCycles_;
    std::uint64_t *memStallCycles_;
    std::uint64_t *computeStallCycles_;
    std::uint64_t *idleCycles_;
    std::uint64_t *instrs_;
    std::uint64_t *loads_;
    std::uint64_t *stores_;
    std::uint64_t *fences_;
    std::uint64_t *spinRetries_;
    std::uint64_t *spinGiveups_;
    std::uint64_t *fenceStallCycles_;

    obs::Tracer *trace_ = nullptr;
    std::uint32_t track_ = 0; ///< obs::Tracer::TrackId
};

} // namespace gtsc::gpu

#endif // GTSC_GPU_SM_HH_
