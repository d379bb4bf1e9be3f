/**
 * @file
 * Whole-GPU assembly: SMs + private caches, request/response
 * crossbars, L2 partitions with their DRAM channels, one functional
 * main memory, and the cycle loop that runs a Workload's kernels
 * back to back (flushing L1s at kernel boundaries, as GPUs do).
 */

#ifndef GTSC_GPU_GPU_SYSTEM_HH_
#define GTSC_GPU_GPU_SYSTEM_HH_

#include <array>
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
     * Simulated cycles the main loop jumped over because no
     * component was due. Deliberately not a StatSet entry: it counts
     * host work saved, not anything simulated.
     */
    std::uint64_t fastForwardedCycles() const { return fastForwarded_; }

    /**
     * Fraction of component-cycles actually ticked, per component
     * type: ticked / (total cycles * number of components). They
     * drop below 1.0 as components park. Like fastForwardedCycles(),
     * diagnostics only — deliberately not StatSet entries.
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
     * perfbench reads them for its per-layer metrics
     * (gpu.issue_slots_*, gpu.sm_ticks, noc.ticks,
     * noc.pops_per_tick = packets / nocTicksExecuted). Never StatSet
     * entries.
     */
    std::uint64_t issueSlotsUsed() const;
    std::uint64_t smTicksExecuted() const { return smTickCount_; }
    std::uint64_t nocTicksExecuted() const { return nocTickCount_; }

    /**
     * Wire an observability session into every component: tracer
     * tracks for SMs, L1s, L2s, NoCs and DRAM channels, the protocol
     * transcript at the two network delivery points, and the stat
     * timeline (whose sample cycles the main loop's jump never
     * skips).
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
    bool quiescent() const;
    void runKernel(unsigned kernel);
    /** The main loop: a fixed per-cycle phase order over the due ids
     * of each component family's TimeWheel, jumping over cycles where
     * nothing is due. See DESIGN.md §7. */
    void runLoop(unsigned kernel);
    /** Arm every component at `at` (loop entry: nothing is parked
     * yet; idle components park themselves on their first tick). */
    void armActiveSet(Cycle at);
    /** Earliest armed/queued work across all wheels and the event
     * queue; > cycle_. Exact (wheels track the min over their
     * slots), so jumping to it never skips armed work. */
    Cycle activeWorkHorizon() const;
    /** Catch every SM's deferred idle accounting up to `upto`
     * (parked SMs lag; see Sm::accountThrough). */
    void accountSmsThrough(Cycle upto);
    std::uint64_t progressToken() const;

    /** Drain this cycle's staged request packets into the request
     * network in (src, FIFO) order. */
    void flushStagedRequests();

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
    /** The network family, ticked in id order: responses before
     * requests. */
    static constexpr std::uint32_t kRespNet = 0, kReqNet = 1;
    std::array<std::unique_ptr<noc::Network>, 2> nets_;

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
    /** Cached knob: the config lookup allocates (long key). */
    bool flushL2BetweenKernels_;
    std::uint64_t fastForwarded_ = 0;

    // --- active-set scheduling state ---
    sim::TimeWheel smWheel_, l1Wheel_;
    sim::TimeWheel l2Wheel_, netWheel_, dramWheel_;
    std::vector<std::uint32_t> due_; ///< popDue scratch
    /** Activity counters (see activity()). */
    std::uint64_t smTickCount_ = 0;
    std::uint64_t l1TickCount_ = 0;
    std::uint64_t l2TickCount_ = 0;
    std::uint64_t nocTickCount_ = 0;
    std::uint64_t dramTickCount_ = 0;
    /** sm.instructions and noc.{req,resp}.packets, cached off the
     *  progress-token path. */
    const std::uint64_t *smInstructions_;
    const std::uint64_t *nocReqPackets_;
    const std::uint64_t *nocRespPackets_;
    std::function<void(const mem::MainMemory &, unsigned)>
        kernelStartHook_;
};

} // namespace gtsc::gpu

#endif // GTSC_GPU_GPU_SYSTEM_HH_
