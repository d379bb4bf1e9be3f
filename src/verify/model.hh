/**
 * @file
 * ModelSim: the exhaustive explorer's harness around the *real*
 * G-TSC controllers (GtscL1/GtscL2, not a re-model).
 *
 * A tiny machine (N SMs x 1 warp, one L2 partition, a handful of
 * cache lines) is driven at the granularity the model checker needs:
 * every coherence message a controller sends is captured by the
 * harness instead of entering a network, and delivery is an explicit
 * transition. Between transitions the machine is run to a *settled*
 * point — event queue empty, DRAM idle, every controller with no
 * tick() work — where the complete system state is capturable and
 * restorable via the core verify hooks (core/gtsc_state.hh).
 *
 * Messages are held FIFO per source SM (matching the real NoC's
 * per-pair ordering); interleavings *across* SMs are the explored
 * nondeterminism. Time only moves forward: restore() rewinds state,
 * never the clock, which is sound because a settled G-TSC state's
 * behaviour is cycle-independent (nothing consults absolute time).
 */

#ifndef GTSC_VERIFY_MODEL_HH_
#define GTSC_VERIFY_MODEL_HH_

#include <memory>
#include <string>
#include <vector>

#include "core/gtsc_l1.hh"
#include "core/gtsc_l2.hh"
#include "core/ts_domain.hh"
#include "mem/dram.hh"
#include "mem/main_memory.hh"
#include "obs/transcript.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "verify/invariants.hh"
#include "verify/oracle.hh"
#include "verify/state.hh"

namespace gtsc::verify
{

/** Base address of the explored lines (one L2 partition). */
inline constexpr Addr kVerifyBase = 0x10000000;

/**
 * Model configuration (verify.* keys):
 *  - verify.sms (2): SMs / concurrent threads
 *  - verify.lines (2): distinct cache lines explored
 *  - verify.ops_per_thread (2): load/store budget per thread (2
 *    closes completely under SC and RC; 3 is a much longer run)
 *  - verify.consistency ("sc"): sc = 1 outstanding op per thread,
 *    rc = verify.max_outstanding (2) ops in flight
 *  - verify.boosts (0): spin-retry timestamp-boost budget per thread
 *    (drives the lease-renewal and rollover paths)
 *  - verify.evictions (1): explore forced L1/L2 evictions
 *  - verify.settle_cap (20000): cycles before a non-settling state is
 *    reported as a deadlock
 * Protocol knobs (gtsc.ts_bits, gtsc.lease, gtsc.update_visibility,
 * verify.mutation, ...) pass through to the controllers unchanged.
 */
class ModelSim
{
  public:
    explicit ModelSim(const sim::Config &user_cfg);

    unsigned numSms() const { return sms_; }
    unsigned numLines() const { return lines_; }

    Addr
    lineAddr(unsigned idx) const
    {
        return kVerifyBase + Addr{idx} * mem::kLineBytes;
    }

    Ts tsMax() const { return domain_.tsMax(); }
    Cycle now() const { return now_; }

    InvariantParams
    invariantParams() const
    {
        return InvariantParams{domain_.tsMax(), domain_.lease()};
    }

    /** The settled root state and its checks. */
    struct InitOutcome
    {
        WorldState state;
        /** State-invariant and deadlock reports. */
        std::vector<std::string> violations;
    };

    /** Settle the freshly constructed machine and capture the root. */
    InitOutcome init();

    /**
     * Restore `from`, apply `action` (which must be enabled in
     * `from`), settle, capture into `out` and check: the heart of the
     * DFS. `violations` is cleared, then gets the oracle,
     * state-invariant, transition and deadlock reports. On a deadlock
     * `out` is untouched. `out` and `violations` keep their capacity,
     * so a transition into reused storage stops allocating once it
     * has grown.
     */
    void step(const WorldState &from, const Action &action,
              WorldState &out, std::vector<std::string> &violations);

    /** Replace `out` with the transitions enabled in a settled state,
     *  in a deterministic order. */
    void enabledActions(const WorldState &w, std::vector<Action> &out) const;

    /**
     * A settled state is terminal when no actions remain. It is a
     * *clean* terminal only if every thread finished every op;
     * otherwise an op got stuck (lost message / dropped completion)
     * and the explorer reports it.
     */
    std::vector<std::string> checkTerminal(const WorldState &w) const;

    /**
     * Log every message delivery into `t` (obs::Transcript format)
     * until the next call; nullptr stops logging. The search logs
     * nothing: a witness replay sets a transcript of its own.
     */
    void setTranscript(obs::Transcript *t) { transcript_ = t; }

    /** Capture the settled machine into `w`, reusing its storage. */
    void capture(WorldState &w);
    void restore(const WorldState &w);

  private:
    void applyAction(const Action &action);
    bool settle();
    bool settled() const;

    sim::Config cfg_;
    sim::StatSet stats_;
    sim::EventQueue events_;
    mem::MainMemory memory_;
    VersionOracle oracle_;
    std::unique_ptr<core::TsDomain> domainPtr_;
    core::TsDomain &domain_;
    std::unique_ptr<mem::DramChannel> dram_;
    std::unique_ptr<core::GtscL2> l2_;
    std::vector<std::unique_ptr<core::GtscL1>> l1s_;
    obs::Transcript *transcript_ = nullptr;

    std::vector<mem::Packet> pendingReqs_;
    std::vector<mem::Packet> pendingResps_;
    std::vector<ThreadState> threads_;
    std::uint64_t nextAccessId_ = 1;
    Cycle now_ = 0;

    unsigned sms_;
    unsigned lines_;
    unsigned opsPerThread_;
    unsigned maxOutstanding_;
    unsigned boostBudget_;
    bool evictions_;
    unsigned settleCap_;
};

} // namespace gtsc::verify

#endif // GTSC_VERIFY_MODEL_HH_
