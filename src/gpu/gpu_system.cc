#include "gpu/gpu_system.hh"

#include <algorithm>

#include "core/gtsc_l1.hh"
#include "core/gtsc_l2.hh"
#include "noc/crossbar.hh"
#include "protocols/no_l1.hh"
#include "protocols/noncoh_l1.hh"
#include "protocols/simple_l2.hh"
#include "protocols/tc_l1.hh"
#include "protocols/tc_l2.hh"
#include "sim/log.hh"

namespace gtsc::gpu
{

/**
 * Static devirtualized loop bodies, instantiated per concrete
 * controller type. Each run is homogeneous (one L1 type, one L2
 * type), so one dynamic_cast sweep at construction replaces a
 * virtual dispatch per component per simulated cycle with direct,
 * inlinable calls.
 */
struct GpuSystem::Devirt
{
    template <typename T, typename B>
    static bool
    homogeneous(const std::vector<std::unique_ptr<B>> &v)
    {
        for (const auto &p : v) {
            if (dynamic_cast<const T *>(p.get()) == nullptr)
                return false;
        }
        return true;
    }

    template <typename T>
    static void
    tickL1(GpuSystem &g, Cycle c)
    {
        for (auto &p : g.l1s_)
            static_cast<T &>(*p).tick(c);
    }

    static void
    tickL1Generic(GpuSystem &g, Cycle c)
    {
        for (auto &p : g.l1s_)
            p->tick(c);
    }

    template <typename T>
    static void
    tickL2(GpuSystem &g, Cycle c)
    {
        for (auto &p : g.l2s_)
            static_cast<T &>(*p).tick(c);
    }

    static void
    tickL2Generic(GpuSystem &g, Cycle c)
    {
        for (auto &p : g.l2s_)
            p->tick(c);
    }

    /** Min horizon over the L1s, bailing once it reaches `floor`. */
    template <typename T>
    static Cycle
    horizonL1(const GpuSystem &g, Cycle now, Cycle floor)
    {
        Cycle next = kCycleNever;
        for (const auto &p : g.l1s_) {
            next = std::min(
                next, static_cast<const T &>(*p).nextWorkCycle(now));
            if (next <= floor)
                break;
        }
        return next;
    }

    static Cycle
    horizonL1Generic(const GpuSystem &g, Cycle now, Cycle floor)
    {
        Cycle next = kCycleNever;
        for (const auto &p : g.l1s_) {
            next = std::min(next, p->nextWorkCycle(now));
            if (next <= floor)
                break;
        }
        return next;
    }

    template <typename T>
    static Cycle
    horizonL2(const GpuSystem &g, Cycle now, Cycle floor)
    {
        Cycle next = kCycleNever;
        for (const auto &p : g.l2s_) {
            next = std::min(
                next, static_cast<const T &>(*p).nextWorkCycle(now));
            if (next <= floor)
                break;
        }
        return next;
    }

    static Cycle
    horizonL2Generic(const GpuSystem &g, Cycle now, Cycle floor)
    {
        Cycle next = kCycleNever;
        for (const auto &p : g.l2s_) {
            next = std::min(next, p->nextWorkCycle(now));
            if (next <= floor)
                break;
        }
        return next;
    }

    // Single-component variants: the active-set loops tick only the
    // ids their wheel popped, so the fan-out loop lives in the caller
    // and the per-id body devirtualizes here.
    template <typename T>
    static void
    tickOneL1(GpuSystem &g, unsigned i, Cycle c)
    {
        static_cast<T &>(*g.l1s_[i]).tick(c);
    }

    static void
    tickOneL1Generic(GpuSystem &g, unsigned i, Cycle c)
    {
        g.l1s_[i]->tick(c);
    }

    template <typename T>
    static void
    tickOneL2(GpuSystem &g, unsigned i, Cycle c)
    {
        static_cast<T &>(*g.l2s_[i]).tick(c);
    }

    static void
    tickOneL2Generic(GpuSystem &g, unsigned i, Cycle c)
    {
        g.l2s_[i]->tick(c);
    }

    template <typename T>
    static Cycle
    horizonOneL1(const GpuSystem &g, unsigned i, Cycle now)
    {
        return static_cast<const T &>(*g.l1s_[i]).nextWorkCycle(now);
    }

    static Cycle
    horizonOneL1Generic(const GpuSystem &g, unsigned i, Cycle now)
    {
        return g.l1s_[i]->nextWorkCycle(now);
    }

    template <typename T>
    static Cycle
    horizonOneL2(const GpuSystem &g, unsigned i, Cycle now)
    {
        return static_cast<const T &>(*g.l2s_[i]).nextWorkCycle(now);
    }

    static Cycle
    horizonOneL2Generic(const GpuSystem &g, unsigned i, Cycle now)
    {
        return g.l2s_[i]->nextWorkCycle(now);
    }

    template <typename T>
    static bool
    bindL1(GpuSystem &g)
    {
        if (!homogeneous<T>(g.l1s_))
            return false;
        g.tickL1s_ = &Devirt::tickL1<T>;
        g.l1Horizon_ = &Devirt::horizonL1<T>;
        g.tickOneL1_ = &Devirt::tickOneL1<T>;
        g.oneL1Horizon_ = &Devirt::horizonOneL1<T>;
        return true;
    }

    template <typename T>
    static bool
    bindL2(GpuSystem &g)
    {
        if (!homogeneous<T>(g.l2s_))
            return false;
        g.tickL2s_ = &Devirt::tickL2<T>;
        g.l2Horizon_ = &Devirt::horizonL2<T>;
        g.tickOneL2_ = &Devirt::tickOneL2<T>;
        g.oneL2Horizon_ = &Devirt::horizonOneL2<T>;
        return true;
    }
};

void
GpuSystem::bindTypedLoops()
{
    tickL1s_ = &Devirt::tickL1Generic;
    l1Horizon_ = &Devirt::horizonL1Generic;
    tickL2s_ = &Devirt::tickL2Generic;
    l2Horizon_ = &Devirt::horizonL2Generic;
    tickOneL1_ = &Devirt::tickOneL1Generic;
    oneL1Horizon_ = &Devirt::horizonOneL1Generic;
    tickOneL2_ = &Devirt::tickOneL2Generic;
    oneL2Horizon_ = &Devirt::horizonOneL2Generic;
    Devirt::bindL1<core::GtscL1>(*this) ||
        Devirt::bindL1<protocols::TcL1>(*this) ||
        Devirt::bindL1<protocols::NonCohL1>(*this) ||
        Devirt::bindL1<protocols::NoL1>(*this);
    Devirt::bindL2<core::GtscL2>(*this) ||
        Devirt::bindL2<protocols::TcL2>(*this) ||
        Devirt::bindL2<protocols::SimpleL2>(*this);
    reqXbar_ = dynamic_cast<noc::Crossbar *>(reqNet_.get());
    respXbar_ = dynamic_cast<noc::Crossbar *>(respNet_.get());
}

GpuSystem::GpuSystem(const sim::Config &cfg, ProtocolBuilder &builder,
                     Workload &workload, mem::CoherenceProbe *probe)
    : cfg_(cfg), params_(GpuParams::fromConfig(cfg)), builder_(builder),
      workload_(workload)
{
    maxCycles_ = cfg_.getUint("gpu.max_cycles", 500000000ULL);
    watchdogWindow_ = cfg_.getUint("gpu.watchdog_cycles", 400000ULL);
    fastForward_ = cfg_.getBool("gpu.fast_forward", true);
    activeSet_ = cfg_.getBool("gpu.active_set", true);
    flushL2BetweenKernels_ =
        cfg_.getBool("gpu.flush_l2_between_kernels", true);

    builder_.prepare(cfg_, stats_, params_);

    reqNet_ = noc::makeNetwork(params_.numSms, params_.numPartitions,
                               true, cfg_, stats_, "noc.req");
    respNet_ = noc::makeNetwork(params_.numPartitions, params_.numSms,
                                false, cfg_, stats_, "noc.resp");

    stagedReq_.resize(params_.numSms);
    storeValues_.reserve(params_.numSms);
    for (unsigned s = 0; s < params_.numSms; ++s)
        storeValues_.emplace_back(s + 1, params_.numSms);

    for (unsigned p = 0; p < params_.numPartitions; ++p) {
        drams_.push_back(std::make_unique<mem::DramChannel>(
            cfg_, stats_, events_, memory_, "dram"));
        l2s_.push_back(builder_.makeL2(static_cast<PartitionId>(p), cfg_,
                                       stats_, events_, *drams_.back(),
                                       memory_, probe));
        l2s_.back()->setSend([this, p](mem::Packet &&pkt) {
            respNet_->inject(p, pkt.src, std::move(pkt), cycle_);
        });
    }

    for (unsigned s = 0; s < params_.numSms; ++s) {
        l1s_.push_back(builder_.makeL1(static_cast<SmId>(s), cfg_, stats_,
                                       events_, probe));
        // Requests are staged per source SM and injected in (src,
        // FIFO) order at the end of the cycle, so the NoC's global
        // arbitration sequence does not depend on when within the
        // cycle an L1 sent. A packet cannot be ejected in the cycle
        // it was injected, so deferring the injection is unobservable.
        l1s_.back()->setSend([this, s](mem::Packet &&pkt) {
            stagedReq_[s].push_back(std::move(pkt));
            ++stagedCount_;
        });
        sms_.push_back(std::make_unique<Sm>(static_cast<SmId>(s), params_,
                                            cfg_, stats_, *l1s_.back(),
                                            storeValues_[s]));
    }

    reqNet_->setDeliver([this](unsigned dst, mem::Packet &&pkt) {
        l2s_[dst]->receiveRequest(std::move(pkt), cycle_);
    });
    respNet_->setDeliver([this](unsigned dst, mem::Packet &&pkt) {
        l1s_[dst]->receiveResponse(std::move(pkt), cycle_);
    });

    if (activeSet_) {
        l2Wheel_.reset(params_.numPartitions);
        dramWheel_.reset(params_.numPartitions);
        due_.reserve(std::max<std::size_t>(params_.numSms,
                                           params_.numPartitions));
        smWheel_.reset(params_.numSms);
        l1Wheel_.reset(params_.numSms);
        for (unsigned p = 0; p < params_.numPartitions; ++p) {
            l2s_[p]->setWakeHook(
                [this, p](Cycle at) { l2Wheel_.arm(p, at); });
            drams_[p]->setWakeHook(
                [this, p](Cycle at) { dramWheel_.arm(p, at); });
        }
        for (unsigned s = 0; s < params_.numSms; ++s) {
            l1s_[s]->setWakeHook(
                [this, s](Cycle at) { l1Wheel_.arm(s, at); });
            sms_[s]->setWakeHook([this, s] { smWheel_.arm(s, cycle_); });
        }
        reqNet_->setWakeHook([this](Cycle at) {
            reqWake_ = std::min(reqWake_, at);
        });
        respNet_->setWakeHook([this](Cycle at) {
            respWake_ = std::min(respWake_, at);
        });
    }
    // Deferred-idle accounting clock: in the always-tick loop the
    // guard in the SM's completion callbacks is provably dead (now_
    // never lags), so installing it unconditionally keeps one code
    // path.
    for (auto &sm : sms_)
        sm->setSchedNow(&cycle_);

    // The networks registered their packet counters above; cache the
    // references so progressToken() avoids two string-hashed lookups
    // per simulated cycle.
    nocReqPackets_ = &stats_.counter("noc.req.packets");
    nocRespPackets_ = &stats_.counter("noc.resp.packets");

    bindTypedLoops();
}

void
GpuSystem::attachObs(obs::Session &session)
{
    session.bindStats(stats_);
    timeline_ = session.timeline();
    if (obs::Tracer *t = session.tracer()) {
        for (auto &sm : sms_)
            sm->attachTracer(*t);
        for (auto &l1 : l1s_)
            l1->attachTracer(*t);
        for (auto &l2 : l2s_)
            l2->attachTracer(*t);
        for (unsigned p = 0; p < drams_.size(); ++p)
            drams_[p]->attachTracer(*t, p);
        reqNet_->attachTracer(*t);
        respNet_->attachTracer(*t);
    }
    if (obs::Transcript *tr = session.transcript()) {
        reqNet_->attachTranscript(*tr, false);
        respNet_->attachTranscript(*tr, true);
    }
}

bool
GpuSystem::quiescent() const
{
    if (!events_.empty())
        return false;
    if (!reqNet_->quiescent() || !respNet_->quiescent())
        return false;
    for (const auto &sm : sms_) {
        if (!sm->quiescent())
            return false;
    }
    for (const auto &l1 : l1s_) {
        if (!l1->quiescent())
            return false;
    }
    for (const auto &l2 : l2s_) {
        if (!l2->quiescent())
            return false;
    }
    for (const auto &dram : drams_) {
        if (!dram->idle())
            return false;
    }
    return stagedCount_ == 0;
}

std::uint64_t
GpuSystem::progressToken() const
{
    std::uint64_t token = 0;
    for (const auto &sm : sms_)
        token += sm->instructionsRetired();
    token += *nocReqPackets_ + *nocRespPackets_;
    return token;
}

Cycle
GpuSystem::workHorizon() const
{
    // Bail out as soon as the horizon collapses to the next cycle:
    // on busy cycles (the common case for compute-bound workloads)
    // the first active SM ends the scan, keeping the hybrid loop's
    // overhead near zero when it cannot skip anyway.
    const Cycle floor = cycle_ + 1;
    Cycle next = kCycleNever;
    for (const auto &sm : sms_) {
        next = std::min(next, sm->nextWorkCycle(cycle_));
        if (next <= floor)
            return next;
    }
    next = std::min(next, l2Horizon_(*this, cycle_, floor));
    if (next <= floor)
        return next;
    next = std::min(next, l1Horizon_(*this, cycle_, floor));
    if (next <= floor)
        return next;
    next = std::min(next, events_.nextEventCycle());
    if (next <= floor)
        return next;
    next = std::min(next, respNet_->nextWorkCycle(cycle_));
    if (next <= floor)
        return next;
    next = std::min(next, reqNet_->nextWorkCycle(cycle_));
    if (next <= floor)
        return next;
    for (const auto &dram : drams_) {
        next = std::min(next, dram->nextWorkCycle(cycle_));
        if (next <= floor)
            return next;
    }
    return next;
}

Cycle
GpuSystem::activeWorkHorizon() const
{
    // Unlike workHorizon(), no per-component nextWorkCycle() probing:
    // every parked component already deposited its wake cycle in a
    // wheel (or the scalar net wakes) when it parked, so the horizon
    // is a handful of mins plus one slot scan per wheel. Exactness of
    // TimeWheel::nextWake() is what licenses the jump: no armed cycle
    // can lie inside the skipped span.
    Cycle next = events_.nextEventCycle();
    next = std::min(next, respWake_);
    next = std::min(next, reqWake_);
    next = std::min(next, l2Wheel_.nextWake());
    next = std::min(next, dramWheel_.nextWake());
    next = std::min(next, smWheel_.nextWake());
    next = std::min(next, l1Wheel_.nextWake());
    return std::max(next, cycle_ + 1);
}

void
GpuSystem::armActiveSet(Cycle at)
{
    // Loop entry: park nothing, assume everything has work at `at`.
    // Idle components cost one no-op tick and park themselves via
    // their re-arm horizon, so this mirrors the always-tick loop's
    // first cycle exactly. Min-merge also retires any stale arms a
    // previous kernel left behind.
    for (unsigned s = 0; s < params_.numSms; ++s) {
        smWheel_.arm(s, at);
        l1Wheel_.arm(s, at);
    }
    for (unsigned p = 0; p < params_.numPartitions; ++p) {
        l2Wheel_.arm(p, at);
        dramWheel_.arm(p, at);
    }
    respWake_ = std::min(respWake_, at);
    reqWake_ = std::min(reqWake_, at);
}

void
GpuSystem::accountSmsThrough(Cycle upto)
{
    for (auto &sm : sms_)
        sm->accountThrough(upto);
}

std::uint64_t
GpuSystem::issueSlotsUsed() const
{
    std::uint64_t used = 0;
    for (const auto &sm : sms_)
        used += sm->issueSlotsUsed();
    return used;
}

GpuSystem::ActivityFractions
GpuSystem::activity() const
{
    ActivityFractions f;
    if (cycle_ == 0)
        return f;
    const double cyc = static_cast<double>(cycle_);
    f.sm = static_cast<double>(smTickCount_) / (cyc * params_.numSms);
    f.l1 = static_cast<double>(l1TickCount_) / (cyc * params_.numSms);
    f.l2 = static_cast<double>(l2TickCount_) /
           (cyc * params_.numPartitions);
    f.noc = static_cast<double>(nocTickCount_) / (cyc * 2.0);
    f.dram = static_cast<double>(dramTickCount_) /
             (cyc * params_.numPartitions);
    return f;
}

void
GpuSystem::flushStagedRequests()
{
    for (unsigned s = 0; s < params_.numSms; ++s) {
        auto &v = stagedReq_[s];
        for (mem::Packet &pkt : v)
            reqNet_->inject(s, pkt.part, std::move(pkt), cycle_);
        v.clear();
    }
    stagedCount_ = 0;
}

void
GpuSystem::flushStatWindows()
{
    for (auto &sm : sms_)
        sm->flushStatWindow();
    reqNet_->flushStatWindow();
    respNet_->flushStatWindow();
}

void
GpuSystem::runSerialLoop(unsigned kernel)
{
    std::uint64_t last_progress = progressToken();
    Cycle last_progress_cycle = cycle_;
    ffProbeBackoff_ = 1;
    ffNextProbeAt_ = 0;
    // Probe skip-rate tracking: when a whole window of recent probes
    // produced zero jumps (dense no-progress traffic — BFS frontier
    // expansion, GE back-substitution), raise the backoff cap so the
    // loop effectively stops re-probing the horizon until either a
    // probe succeeds or the workload's character changes. Skipped
    // probes only tick cycles normally; no observable state differs.
    constexpr unsigned kProbeWindow = 32;
    Cycle probeCap = 64;
    unsigned probeAttempts = 0;
    unsigned probeJumps = 0;

    auto all_done = [this]() {
        for (const auto &sm : sms_) {
            if (!sm->allWarpsDone())
                return false;
        }
        return true;
    };

    bool done = all_done() && quiescent();
    while (!done) {
        ++cycle_;
        if (cycle_ > maxCycles_)
            GTSC_FATAL("simulation exceeded gpu.max_cycles=", maxCycles_,
                       " for workload ", workload_.name());

        events_.runUntil(cycle_);
        tickL2s_(*this, cycle_);
        if (respXbar_)
            respXbar_->tick(cycle_);
        else
            respNet_->tick(cycle_);
        if (reqXbar_)
            reqXbar_->tick(cycle_);
        else
            reqNet_->tick(cycle_);
        tickL1s_(*this, cycle_);
        for (auto &sm : sms_)
            sm->tick(cycle_);
        if (stagedCount_ != 0)
            flushStagedRequests();
        for (auto &dram : drams_)
            dram->tick(cycle_);

        smTickCount_ += params_.numSms;
        l1TickCount_ += params_.numSms;
        l2TickCount_ += params_.numPartitions;
        nocTickCount_ += 2;
        dramTickCount_ += params_.numPartitions;

        if (timeline_) {
            // A due sample reads counters by name: batch the
            // windowed blocks in first so the CSV matches a
            // live-counting run byte for byte.
            if (cycle_ >= timeline_->nextSampleAt())
                flushStatWindows();
            timeline_->sample(cycle_);
        }

        std::uint64_t token = progressToken();
        bool progressed = token != last_progress;
        if (progressed) {
            last_progress = token;
            last_progress_cycle = cycle_;
            ffProbeBackoff_ = 1;
            ffNextProbeAt_ = 0;
        } else if (cycle_ - last_progress_cycle > watchdogWindow_) {
            GTSC_PANIC("no forward progress for ", watchdogWindow_,
                       " cycles at cycle ", cycle_, " in workload ",
                       workload_.name(), " kernel ", kernel);
        }

        done = all_done() && quiescent();
        // Only attempt a jump on cycles that made no observable
        // progress: a cycle that retired instructions or moved
        // packets is almost always followed by another busy cycle,
        // so scanning every component for its horizon would be pure
        // overhead there. Idle stretches announce themselves with a
        // stale progress token on their first cycle.
        if (done || progressed || !fastForward_)
            continue;
        // Probe backoff: a probe that just answered "work next
        // cycle" (dense replay or NoC traffic — BFS is the worst
        // case) predicts the next one will too; skipping the scan
        // for a doubling span just ticks those cycles normally.
        if (cycle_ < ffNextProbeAt_)
            continue;

        // Hybrid fast-forward: when no component has work next
        // cycle, jump straight to the earliest horizon instead of
        // ticking through dead cycles. Never skip past the watchdog
        // deadline or the max-cycles bound, so a hung simulation
        // fails at exactly the cycle the pure cycle-driven loop
        // would (a kCycleNever horizon on a non-quiescent machine is
        // such a hang: it lands on the watchdog deadline and
        // panics there).
        Cycle next = workHorizon();
        Cycle deadline = last_progress_cycle + watchdogWindow_ + 1;
        next = std::min(next, deadline);
        next = std::min(next, maxCycles_ + 1);
        // Never skip a timeline sample cycle: samples must land on
        // the same cycles with fast-forward on or off.
        if (timeline_)
            next = std::min(next, timeline_->nextSampleAt());
        ++probeAttempts;
        if (next > cycle_ + 1) {
            Cycle span = next - cycle_ - 1;
            for (auto &sm : sms_) {
                sm->fastForwardStats(span);
                // Keep the SMs' callback timestamp lagging the loop
                // by one cycle, as in the pure cycle-driven loop.
                sm->syncTo(next - 1);
            }
            fastForwarded_ += span;
            cycle_ = next - 1;
            ffProbeBackoff_ = 1;
            ++probeJumps;
            probeCap = 64;
        } else {
            ffNextProbeAt_ = cycle_ + 1 + ffProbeBackoff_;
            ffProbeBackoff_ =
                std::min<Cycle>(ffProbeBackoff_ * 2, probeCap);
        }
        if (probeAttempts >= kProbeWindow) {
            // Zero jumps over a whole probe window: this busy span
            // cannot be skipped; stop paying for the scans.
            probeCap = probeJumps == 0 ? 4096 : 64;
            probeAttempts = 0;
            probeJumps = 0;
        }
    }
}

void
GpuSystem::runActiveSerialLoop(unsigned kernel)
{
    std::uint64_t last_progress = progressToken();
    Cycle last_progress_cycle = cycle_;
    ffProbeBackoff_ = 1;
    ffNextProbeAt_ = 0;

    auto all_done = [this]() {
        for (const auto &sm : sms_) {
            if (!sm->allWarpsDone())
                return false;
        }
        return true;
    };

    armActiveSet(cycle_ + 1);

    bool done = all_done() && quiescent();
    while (!done) {
        ++cycle_;
        if (cycle_ > maxCycles_)
            GTSC_FATAL("simulation exceeded gpu.max_cycles=", maxCycles_,
                       " for workload ", workload_.name());

        // Same phase order as runSerialLoop, but each family only
        // ticks the ids its wheel popped. Wakes that land on the
        // current cycle after a family's pop are clamped to the next
        // cycle by the wheel — exactly when the always-tick loop
        // would first observe the new state.
        std::size_t nDue = 0;
        events_.runUntil(cycle_);
        l2Wheel_.popDue(cycle_, due_);
        for (unsigned p : due_) {
            tickOneL2_(*this, p, cycle_);
            l2Wheel_.arm(p, oneL2Horizon_(*this, p, cycle_));
        }
        l2TickCount_ += due_.size();
        nDue += due_.size();
        if (respWake_ <= cycle_) {
            respWake_ = kCycleNever;
            if (respXbar_)
                respXbar_->tick(cycle_);
            else
                respNet_->tick(cycle_);
            respWake_ = std::min(respWake_,
                                 respNet_->nextWorkCycle(cycle_));
            ++nocTickCount_;
            ++nDue;
        }
        if (reqWake_ <= cycle_) {
            reqWake_ = kCycleNever;
            if (reqXbar_)
                reqXbar_->tick(cycle_);
            else
                reqNet_->tick(cycle_);
            reqWake_ = std::min(reqWake_,
                                reqNet_->nextWorkCycle(cycle_));
            ++nocTickCount_;
            ++nDue;
        }
        l1Wheel_.popDue(cycle_, due_);
        for (unsigned s : due_) {
            tickOneL1_(*this, s, cycle_);
            l1Wheel_.arm(s, oneL1Horizon_(*this, s, cycle_));
        }
        l1TickCount_ += due_.size();
        nDue += due_.size();
        smWheel_.popDue(cycle_, due_);
        for (unsigned s : due_) {
            // Parked SMs defer their per-cycle idle accounting;
            // materialize it up to the lagging-callback timestamp
            // before the real tick.
            sms_[s]->accountThrough(cycle_ - 1);
            sms_[s]->tick(cycle_);
            smWheel_.arm(s, sms_[s]->nextWorkCycle(cycle_));
        }
        smTickCount_ += due_.size();
        nDue += due_.size();
        if (stagedCount_ != 0)
            flushStagedRequests();
        dramWheel_.popDue(cycle_, due_);
        for (unsigned p : due_) {
            drams_[p]->tick(cycle_);
            dramWheel_.arm(p, drams_[p]->nextWorkCycle(cycle_));
        }
        dramTickCount_ += due_.size();
        nDue += due_.size();

        if (timeline_) {
            if (cycle_ >= timeline_->nextSampleAt()) {
                accountSmsThrough(cycle_);
                flushStatWindows();
            }
            timeline_->sample(cycle_);
        }

        std::uint64_t token = progressToken();
        bool progressed = token != last_progress;
        if (progressed) {
            last_progress = token;
            last_progress_cycle = cycle_;
            ffProbeBackoff_ = 1;
            ffNextProbeAt_ = 0;
        } else if (cycle_ - last_progress_cycle > watchdogWindow_) {
            GTSC_PANIC("no forward progress for ", watchdogWindow_,
                       " cycles at cycle ", cycle_, " in workload ",
                       workload_.name(), " kernel ", kernel);
        }

        done = all_done() && quiescent();
        if (done || progressed || !fastForward_)
            continue;
        // A cycle that ticked anything is almost always followed by
        // another one with due work, and the fast-forward jump is the
        // degenerate "nothing due" case here — so only probe the
        // horizon on completely dead cycles (this is what removes the
        // always-tick loop's BFS/GE probing regression structurally).
        if (nDue != 0 || cycle_ < ffNextProbeAt_)
            continue;

        Cycle next = activeWorkHorizon();
        Cycle deadline = last_progress_cycle + watchdogWindow_ + 1;
        next = std::min(next, deadline);
        next = std::min(next, maxCycles_ + 1);
        if (timeline_)
            next = std::min(next, timeline_->nextSampleAt());
        if (next > cycle_ + 1) {
            // No per-SM stat work here: parked SMs account the
            // skipped span lazily (accountThrough) when they next
            // tick, sample, or the kernel ends.
            fastForwarded_ += next - cycle_ - 1;
            cycle_ = next - 1;
            ffProbeBackoff_ = 1;
        } else {
            ffNextProbeAt_ = cycle_ + 1 + ffProbeBackoff_;
            ffProbeBackoff_ = std::min<Cycle>(ffProbeBackoff_ * 2, 64);
        }
    }
    accountSmsThrough(cycle_);
}

void
GpuSystem::runKernel(unsigned kernel)
{
    workload_.initMemory(memory_, kernel);
    if (kernelStartHook_)
        kernelStartHook_(memory_, kernel);
    for (unsigned s = 0; s < params_.numSms; ++s) {
        // One scratch vector for every launch: launchKernel only
        // moves the programs out, so the buffer is reused across SMs
        // and kernels (no steady-state allocation).
        programScratch_.clear();
        programScratch_.reserve(params_.warpsPerSm);
        for (unsigned w = 0; w < params_.warpsPerSm; ++w) {
            programScratch_.push_back(workload_.makeProgram(
                kernel, static_cast<SmId>(s), static_cast<WarpId>(w),
                params_));
        }
        sms_[s]->launchKernel(std::move(programScratch_));
    }

    if (activeSet_)
        runActiveSerialLoop(kernel);
    else
        runSerialLoop(kernel);

    // Kernel boundary: GPUs flush private caches (Section V-D).
    for (auto &l1 : l1s_)
        l1->flush(cycle_);
    if (flushL2BetweenKernels_ &&
        kernel + 1 < workload_.numKernels()) {
        for (auto &l2 : l2s_)
            l2->flushAll(cycle_);
    }
    // Anything still sitting in a windowed counter block must reach
    // the StatSet before the harness reads per-kernel stats.
    flushStatWindows();
    stats_.counter("gpu.kernels_run")++;
}

Cycle
GpuSystem::run()
{
    for (unsigned k = 0; k < workload_.numKernels(); ++k)
        runKernel(k);
    // Device-to-host copy at the end of the grid: drain the
    // write-back L2 so MainMemory holds the final state for
    // Workload::verify().
    for (auto &l2 : l2s_)
        l2->flushAll(cycle_);
    flushStatWindows();
    stats_.counter("gpu.cycles") = cycle_;
    if (timeline_)
        timeline_->finish(cycle_);
    return cycle_;
}

} // namespace gtsc::gpu
