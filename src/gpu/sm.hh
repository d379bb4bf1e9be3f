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
#include <functional>
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
     * Install one program per warp and mark all warps runnable. Every
     * warp needs a program: one with no work runs `exit`. Takes the
     * vector by rvalue reference and only moves the programs out, so
     * the caller keeps the buffer and can relaunch kernel after
     * kernel without reallocating it (zero-alloc steady state).
     */
    void
    launchKernel(std::vector<std::unique_ptr<WarpProgram>> &&programs);

    /**
     * Advance one cycle: wake warps, issue, account stalls. The main
     * loop calls it only at the SM's own horizon or after an L1
     * callback or generation move woke it; skipped cycles are
     * accounted in bulk (accountThrough).
     *
     * A picked structural retry whose warp recorded the L1's current
     * reject generation at its last reject is doomed (reject-
     * generation contract, mem/controllers.hh): it uses the issue
     * slot and charges the recorded reject counters without calling
     * access(). When the scheduler's next pick is pinned to such a
     * warp — GTO's greedy warp, or Oldest's lowest ready-or-retry
     * warp; never under RR — the SM parks on it.
     */
    void tick(Cycle now);

    /**
     * Earliest future cycle at which tick() could issue, wake a warp
     * or retry a structural reject (horizon contract,
     * mem/controllers.hh). Warps blocked purely on memory responses
     * report kCycleNever — their wake-up is driven by the L1. A
     * parked SM reports only its compute, fence and store-buffer
     * wakes: its doomed retries are charged in bulk, and the L1
     * wakes it when its generation moves.
     */
    Cycle nextWorkCycle(Cycle now) const;

    /**
     * Account `span` skipped cycles in bulk, exactly as `span`
     * tick()s that neither wake a warp nor change one would have:
     * the per-warp fence-stall counter for every fence-blocked warp,
     * plus either one stall/idle cycle in the Figure 13 breakdown or,
     * when parked, one active cycle, one issue slot and the parked
     * warp's recorded L1 reject counters. Only valid while
     * nextWorkCycle() exceeds the skipped range (no warp wakes or
     * issues for real inside it).
     */
    void fastForwardStats(Cycle span);

    /**
     * Deferred catch-up for a parked SM: account every skipped cycle
     * in (now_, upto] as fastForwardStats() would and advance now_
     * to upto. Valid exactly when the SM was parked through that
     * range — the main loop never jumps past an armed cycle, so a
     * parked SM's horizon always exceeds it. Called before a due
     * tick, before anything samples this SM's counters (timeline,
     * loop exit; the bulk charge lands in the L1's counters too),
     * from the L1 generation hook, and from the L1 completion
     * callbacks, which fire from the event queue and network
     * delivery *before* this SM's tick on a given cycle and so must
     * observe a now_ lagging the loop by exactly one cycle (a
     * spin-load backoff computed from a staler now_ would retry
     * early).
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
     * (GpuSystem::cycle_). The completion callbacks catch up skipped
     * parked cycles against it before processing.
     */
    void setSchedNow(const Cycle *sched) { schedNow_ = sched; }

    /**
     * Re-arm hook (wake contract, mem/controllers.hh), min-merged by
     * the scheduler. The two external paths that can hand a parked
     * SM work before its horizon fire it: every L1 completion
     * callback, with the horizon the SM recomputes after it (the
     * current cycle when a warp can issue, later when the callback
     * left only a doomed retry or waits), and a move of the L1's
     * reject generation while parked, with the current cycle.
     */
    void setWakeHook(std::function<void(Cycle)> fn)
    {
        wake_ = std::move(fn);
    }

    /**
     * Opt into warp issue/stall/resume event tracing. Events are
     * only recorded at state transitions, never per idle cycle.
     */
    void attachTracer(obs::Tracer &tracer);

    /** All warps have exited (stores may still be outstanding): no
     *  warp is in any state mask. */
    bool
    allWarpsDone() const
    {
        return !readyMask_.any() && !waitComputeMask_.any() &&
               !waitMemMask_.any() && !waitFenceMask_.any();
    }

    /** No accesses awaiting submission and no outstanding stores. */
    bool quiescent() const;

    /** Issue slots consumed across all full ticks (diagnostic for
     *  perfbench's gpu.issue_slots_* metrics; never a StatSet
     *  counter, so golden stat dumps are unaffected). */
    std::uint64_t issueSlotsUsed() const { return issueSlotsUsed_; }

    SmId id() const { return id_; }

  private:
    enum class WarpState : std::uint8_t
    {
        Ready,       ///< can issue
        WaitCompute, ///< busy until readyAt (also spin backoff)
        WaitMem,     ///< blocked on current memory instruction
        WaitFence,   ///< blocked on fence condition
        Done,        ///< program exhausted
    };

    /**
     * Cold/bulky per-warp context. What the per-cycle scheduler
     * scans lives outside it: the warp's state and its mem-retry
     * flag in the packed masks, its compute wake cycle in
     * warpReadyAt_, so wake, issue-candidate and stall-classification
     * passes never stride through ~250-byte WarpCtx records (the
     * current WarpInstr, its coalescing plan, the submit and store
     * buffers).
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
        /**
         * The L1's reject generation at this warp's latest rejected
         * submit, and the counters that reject bumped: a retry of
         * toSubmit[submitHead] at that generation is doomed. Kept
         * per warp because the L1's own record moves with every
         * reject (a G-TSC replay included). A record left from an
         * earlier access never matches: the access that followed it
         * was accepted, which moved the generation. 0: none, which
         * never matches (a generation starts at 1).
         */
        std::uint64_t rejectGen = 0;
        mem::RejectCharge rejectCharge;

        bool
        submitsPending() const
        {
            return submitHead < toSubmit.size();
        }
    };

    /** Mask holding warps in state `s` (nullptr for Done: a warp
     *  that exited is in none of the four). */
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

    /** The single warp-state transition point: take the warp out of
     *  every state mask, then into the one for `s`. */
    void
    setWarpState(unsigned w, WarpState s)
    {
        readyMask_.clear(w);
        waitComputeMask_.clear(w);
        waitMemMask_.clear(w);
        waitFenceMask_.clear(w);
        if (sim::BitMask *m = maskFor(s))
            m->set(w);
    }

    /** The single retryMask_ transition point. */
    void
    setMemRetry(unsigned w, bool v)
    {
        if (v)
            retryMask_.set(w);
        else
            retryMask_.clear(w);
    }

    /** The Figure 13 stall bucket of a cycle in which no warp issues:
     *  compute if any warp computes, else memory if any waits on
     *  memory or a fence, else idle. */
    std::uint64_t *stallBucket() const;

    /** Try to make progress for warp w; true if an issue slot used. */
    bool issueWarp(unsigned w, Cycle now);

    /** Warp w's pending retry would be rejected again (rejectGen). */
    bool
    retryDoomed(unsigned w) const
    {
        return retryMask_.test(w) &&
               warps_[w].rejectGen == l1_.rejectGeneration();
    }

    /** The warp the scheduler's next pick is pinned to when that
     *  pick is a doomed retry, else kNpos (see tick()). */
    unsigned doomedPick() const;

    /** L1 generation hook: unpark (see setWakeHook). */
    void onGenerationMoved();

    /** Completion-callback prologue/epilogue: catch up skipped
     *  cycles and unpark, then re-park if still doomed and re-arm at
     *  the recomputed horizon. */
    void enterCallback();
    void leaveCallback();

    /** TSO: push the next buffered store into the cache, in order. */
    void drainStoreFifo(unsigned w, Cycle now);

    /** Start executing instruction `instr` on warp w. */
    bool beginInstr(unsigned w, Cycle now);

    /** Submit queued accesses to L1; true if all were accepted.
     *  Maintains the warp's retryMask_ bit (callers guarantee the
     *  warp is not alias-blocked when they call this). */
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
    /** Wake cycle of each WaitCompute warp. */
    std::vector<Cycle> warpReadyAt_;

    // --- packed scheduling masks (one uint64 word per 64 warps) ---
    // The only record of warp state. A warp is in at most one of the
    // four state masks, and in none once Done; setWarpState is the
    // one place that moves it. The wake pass walks only
    // waitComputeMask_|waitFenceMask_, the issue pickers are ctz
    // scans over readyMask_|retryMask_, and stallBucket() is three
    // any() queries.
    sim::BitMask readyMask_;
    sim::BitMask waitComputeMask_;
    sim::BitMask waitMemMask_;
    sim::BitMask waitFenceMask_;
    /**
     * Warps with submits pending that are not alias-blocked
     * (submitsPending() && !loadWaitsStores): the WaitMem warps an
     * issue slot must retry (set bits ⊆ waitMemMask_). Maintained by
     * drainSubmits and the two loadWaitsStores transition points.
     */
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
    /** Issue slots consumed (diagnostic; see issueSlotsUsed()). */
    std::uint64_t issueSlotsUsed_ = 0;
    Cycle now_ = 0; ///< updated at tick entry; callbacks use it
    /** Scheduler's current cycle (setSchedNow); callbacks catch
     *  now_ up to lag it by one before running. */
    const Cycle *schedNow_ = nullptr;
    /** Main-loop re-arm hook (setWakeHook). */
    std::function<void(Cycle)> wake_;
    /** The warp this SM is parked on (doomedPick()), kNpos when
     *  not parked. Set at the end of an issuing tick and of a
     *  completion callback; cleared at tick entry, callback entry
     *  and by a generation move, each of which may change it. */
    unsigned parkedOn_ = sim::BitMask::kNpos;

    Cycle spinBackoff_;

    // StatSet counters, cached at construction (stable map-node
    // addresses)
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
