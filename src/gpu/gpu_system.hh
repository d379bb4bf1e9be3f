/**
 * @file
 * Whole-GPU assembly: SMs + private caches, request/response
 * crossbars, L2 partitions with their DRAM channels, one functional
 * main memory, and the cycle loop that runs a Workload's kernels
 * back to back (flushing L1s at kernel boundaries, as GPUs do).
 */

#ifndef GTSC_GPU_GPU_SYSTEM_HH_
#define GTSC_GPU_GPU_SYSTEM_HH_

#include <memory>
#include <string>
#include <vector>

#include "gpu/kernel.hh"
#include "gpu/params.hh"
#include "gpu/protocol_builder.hh"
#include "gpu/sm.hh"
#include "mem/coherence_probe.hh"
#include "mem/dram.hh"
#include "mem/main_memory.hh"
#include "noc/network.hh"
#include "obs/session.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/time_wheel.hh"

namespace gtsc::noc
{
class Crossbar;
}

namespace gtsc::gpu
{

class GpuSystem
{
  public:
    GpuSystem(const sim::Config &cfg, ProtocolBuilder &builder,
              Workload &workload, mem::CoherenceProbe *probe = nullptr);

    /**
     * Run every kernel of the workload to completion.
     * @return total simulated cycles.
     */
    Cycle run();

    sim::StatSet &stats() { return stats_; }
    const sim::StatSet &stats() const { return stats_; }
    mem::MainMemory &memory() { return memory_; }
    const GpuParams &params() const { return params_; }
    Cycle cycle() const { return cycle_; }

    /**
     * Simulated cycles the hybrid main loop skipped instead of
     * ticking (0 with gpu.fast_forward=false). Deliberately not a
     * StatSet entry: stat dumps must be bit-identical with the knob
     * on and off.
     */
    std::uint64_t fastForwardedCycles() const { return fastForwarded_; }

    /**
     * Fraction of component-cycles actually ticked, per component
     * type: ticked / (total cycles * number of components). Under
     * active-set scheduling these drop below 1.0 as components park;
     * with gpu.active_set=0 they measure how much of the run the
     * always-tick loop executed rather than fast-forwarded. Like
     * fastForwardedCycles(), diagnostics only — deliberately not
     * StatSet entries, so stat dumps stay bit-identical across
     * scheduler modes.
     */
    struct ActivityFractions
    {
        double sm = 0.0;
        double l1 = 0.0;
        double l2 = 0.0;
        double noc = 0.0;
        double dram = 0.0;
    };
    ActivityFractions activity() const;

    /**
     * Issue-path utilization counters, diagnostics like activity():
     * issue slots actually used across all SMs, the SM-ticks that
     * offered them, and the NoC ticks executed (both networks).
     * issueSlotsUsed / (smTicksExecuted * issue width) is the issue
     * utilization the single-thread bench records; packets /
     * nocTicksExecuted is its pops-per-tick figure. Never StatSet
     * entries — stat dumps stay identical across scheduler modes.
     */
    std::uint64_t issueSlotsUsed() const;
    std::uint64_t smTicksExecuted() const { return smTickCount_; }
    std::uint64_t nocTicksExecuted() const { return nocTickCount_; }

    /**
     * Wire an observability session into every component: tracer
     * tracks for SMs, L1s, L2s, NoCs and DRAM channels, the protocol
     * transcript at the two network delivery points, and the stat
     * timeline (whose sample cycles the fast-forward jump never
     * skips, so timelines are identical with the knob on or off).
     */
    void attachObs(obs::Session &session);

    /**
     * Called after each kernel's initMemory(), before its first
     * cycle (the coherence checker snapshots base values here).
     */
    void
    setKernelStartHook(
        std::function<void(const mem::MainMemory &, unsigned)> hook)
    {
        kernelStartHook_ = std::move(hook);
    }

  private:
    /**
     * Devirtualized fan-outs over the homogeneous controller arrays
     * (data-oriented hot path). A run instantiates exactly one
     * concrete L1 type and one concrete L2 type; bindTypedLoops()
     * detects them once at construction and binds loops that call
     * tick()/nextWorkCycle() on the concrete class directly (the
     * classes are final, so the calls devirtualize and inline).
     * Unknown types fall back to virtual-dispatch loops.
     */
    struct Devirt;
    using TickLoopFn = void (*)(GpuSystem &, Cycle);
    using HorizonLoopFn = Cycle (*)(const GpuSystem &, Cycle, Cycle);
    /** Single-component variants for the active-set loops, which tick
     * only the ids a wheel popped instead of sweeping the array. */
    using TickOneFn = void (*)(GpuSystem &, unsigned, Cycle);
    using HorizonOneFn = Cycle (*)(const GpuSystem &, unsigned, Cycle);
    void bindTypedLoops();

    bool quiescent() const;
    void runKernel(unsigned kernel);
    void runSerialLoop(unsigned kernel);
    // Active-set twin (gpu.active_set=1, the default): identical
    // per-cycle phase order, but each component family is driven off
    // a TimeWheel and only due ids are ticked. See DESIGN.md §9.
    void runActiveSerialLoop(unsigned kernel);
    /** Arm every component at `at` (loop entry: nothing is parked
     * yet; idle components park themselves on their first tick). */
    void armActiveSet(Cycle at);
    /** Earliest armed/queued work across all wheels, scalar net
     * wakes and event queues; > cycle_. Exact (wheels track the min
     * over their slots), so jumping to it never skips armed work. */
    Cycle activeWorkHorizon() const;
    /** Catch every SM's deferred idle accounting up to `upto`
     * (parked SMs lag; see Sm::accountThrough). */
    void accountSmsThrough(Cycle upto);
    std::uint64_t progressToken() const;

    /** Drain this cycle's staged request packets into the request
     * network in (src, FIFO) order. */
    void flushStagedRequests();

    /**
     * Batch every component's windowed counter block into its
     * StatSet. Must run before anything reads stats by name: a due
     * timeline sample, the per-kernel harvest, end of run.
     */
    void flushStatWindows();

    /**
     * Minimum of every component's nextWorkCycle() and the event
     * queue: the earliest future cycle at which ticking can do
     * anything observable. kCycleNever when the machine is fully
     * quiescent.
     */
    Cycle workHorizon() const;

    sim::Config cfg_;
    GpuParams params_;
    ProtocolBuilder &builder_;
    Workload &workload_;

    sim::StatSet stats_;
    sim::EventQueue events_;
    mem::MainMemory memory_;
    /** Per-SM store-value generators (disjoint strided sequences). */
    std::vector<StoreValueSource> storeValues_;

    std::vector<std::unique_ptr<mem::DramChannel>> drams_;
    std::vector<std::unique_ptr<mem::L2Controller>> l2s_;
    std::vector<std::unique_ptr<mem::L1Controller>> l1s_;
    std::vector<std::unique_ptr<Sm>> sms_;
    /** Launch scratch, reused across SMs and kernels (runKernel). */
    std::vector<std::unique_ptr<WarpProgram>> programScratch_;
    std::unique_ptr<noc::Network> reqNet_;
    std::unique_ptr<noc::Network> respNet_;

    // Typed loops bound by bindTypedLoops(); see Devirt.
    TickLoopFn tickL1s_ = nullptr;
    TickLoopFn tickL2s_ = nullptr;
    HorizonLoopFn l1Horizon_ = nullptr;
    HorizonLoopFn l2Horizon_ = nullptr;
    TickOneFn tickOneL1_ = nullptr;
    TickOneFn tickOneL2_ = nullptr;
    HorizonOneFn oneL1Horizon_ = nullptr;
    HorizonOneFn oneL2Horizon_ = nullptr;
    /** Non-null when the nets are Crossbars (the default topology);
     * lets the cycle loop call their O(1) tick/horizon directly. */
    noc::Crossbar *reqXbar_ = nullptr;
    noc::Crossbar *respXbar_ = nullptr;

    /**
     * Per-SM request packets sent by L1s, staged until the end of
     * the cycle and then injected in source order, which fixes the
     * NoC's arbitration sequence.
     */
    std::vector<std::vector<mem::Packet>> stagedReq_;
    std::size_t stagedCount_ = 0; ///< packets in stagedReq_

    Cycle cycle_ = 0;
    obs::StatTimeline *timeline_ = nullptr;
    Cycle maxCycles_;
    Cycle watchdogWindow_;
    bool fastForward_;
    /** Cached knob: the config lookup allocates (long key). */
    bool flushL2BetweenKernels_;
    std::uint64_t fastForwarded_ = 0;
    /**
     * Horizon-probe backoff: when a probe on a no-progress cycle
     * comes back "work next cycle" (dense replay/NoC traffic, e.g.
     * BFS), skip probing for a doubling number of no-progress cycles
     * (capped) before trying again. A skipped probe just means those
     * cycles are ticked normally, which is always correct; only the
     * fastForwardedCycles() diagnostic can differ.
     */
    Cycle ffProbeBackoff_ = 1;
    Cycle ffNextProbeAt_ = 0;

    // --- active-set scheduling state (gpu.active_set) ---
    bool activeSet_;
    sim::TimeWheel smWheel_, l1Wheel_;
    sim::TimeWheel l2Wheel_, dramWheel_;
    std::vector<std::uint32_t> due_; ///< popDue scratch
    /** Scalar wake cycles for the two networks (single component
     * each): min-merged by the wake hook, kCycleNever when parked. */
    Cycle reqWake_ = kCycleNever;
    Cycle respWake_ = kCycleNever;
    /** Activity counters (see activity()). */
    std::uint64_t smTickCount_ = 0;
    std::uint64_t l1TickCount_ = 0;
    std::uint64_t l2TickCount_ = 0;
    std::uint64_t nocTickCount_ = 0;
    std::uint64_t dramTickCount_ = 0;
    /** noc.{req,resp}.packets, cached off the progress-token path. */
    const std::uint64_t *nocReqPackets_;
    const std::uint64_t *nocRespPackets_;
    std::function<void(const mem::MainMemory &, unsigned)>
        kernelStartHook_;
};

} // namespace gtsc::gpu

#endif // GTSC_GPU_GPU_SYSTEM_HH_
