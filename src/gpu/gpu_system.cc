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
 * Static devirtualized L1/L2 steps, instantiated per concrete
 * controller type. Each run is homogeneous (one L1 type, one L2
 * type), so one dynamic_cast sweep at construction replaces two
 * virtual dispatches per due controller per simulated cycle with
 * direct, inlinable calls. Instantiating with the base class gives
 * the virtual-dispatch fallback.
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
    static Cycle
    stepL1(GpuSystem &g, unsigned i, Cycle now)
    {
        T &l1 = static_cast<T &>(*g.l1s_[i]);
        l1.tick(now);
        return l1.nextWorkCycle(now);
    }

    template <typename T>
    static Cycle
    stepL2(GpuSystem &g, unsigned i, Cycle now)
    {
        T &l2 = static_cast<T &>(*g.l2s_[i]);
        l2.tick(now);
        return l2.nextWorkCycle(now);
    }

    template <typename T>
    static bool
    bindL1(GpuSystem &g)
    {
        if (!homogeneous<T>(g.l1s_))
            return false;
        g.stepL1_ = &Devirt::stepL1<T>;
        return true;
    }

    template <typename T>
    static bool
    bindL2(GpuSystem &g)
    {
        if (!homogeneous<T>(g.l2s_))
            return false;
        g.stepL2_ = &Devirt::stepL2<T>;
        return true;
    }
};

void
GpuSystem::bindTypedSteps()
{
    Devirt::bindL1<core::GtscL1>(*this) ||
        Devirt::bindL1<protocols::TcL1>(*this) ||
        Devirt::bindL1<protocols::NonCohL1>(*this) ||
        Devirt::bindL1<protocols::NoL1>(*this) ||
        Devirt::bindL1<mem::L1Controller>(*this);
    Devirt::bindL2<core::GtscL2>(*this) ||
        Devirt::bindL2<protocols::TcL2>(*this) ||
        Devirt::bindL2<protocols::SimpleL2>(*this) ||
        Devirt::bindL2<mem::L2Controller>(*this);
    reqXbar_ = dynamic_cast<noc::Crossbar *>(reqNet_.get());
    respXbar_ = dynamic_cast<noc::Crossbar *>(respNet_.get());
}

GpuSystem::GpuSystem(const sim::Config &cfg, ProtocolBuilder &builder,
                     Workload &workload, mem::CoherenceProbe *probe)
    : cfg_(cfg), params_(GpuParams::fromConfig(cfg)), builder_(builder),
      workload_(workload)
{
    maxCycles_ = cfg_.getUint("gpu.max_cycles");
    watchdogWindow_ = cfg_.getUint("gpu.watchdog_cycles");
    flushL2BetweenKernels_ = cfg_.getBool("gpu.flush_l2_between_kernels");

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

    l2Wheel_.reset(params_.numPartitions);
    dramWheel_.reset(params_.numPartitions);
    due_.reserve(
        std::max<std::size_t>(params_.numSms, params_.numPartitions));
    smWheel_.reset(params_.numSms);
    l1Wheel_.reset(params_.numSms);
    for (unsigned p = 0; p < params_.numPartitions; ++p) {
        l2s_[p]->setWakeHook([this, p](Cycle at) { l2Wheel_.arm(p, at); });
        drams_[p]->setWakeHook(
            [this, p](Cycle at) { dramWheel_.arm(p, at); });
    }
    for (unsigned s = 0; s < params_.numSms; ++s) {
        l1s_[s]->setWakeHook([this, s](Cycle at) { l1Wheel_.arm(s, at); });
        sms_[s]->setWakeHook([this, s] { smWheel_.arm(s, cycle_); });
        // Deferred-idle accounting clock for the SM's completion
        // callbacks (see Sm::accountThrough).
        sms_[s]->setSchedNow(&cycle_);
    }
    reqNet_->setWakeHook(
        [this](Cycle at) { reqWake_ = std::min(reqWake_, at); });
    respNet_->setWakeHook(
        [this](Cycle at) { respWake_ = std::min(respWake_, at); });

    // The networks registered their packet counters above; cache the
    // references so progressToken() avoids two string-hashed lookups
    // per simulated cycle.
    nocReqPackets_ = &stats_.counter("noc.req.packets");
    nocRespPackets_ = &stats_.counter("noc.resp.packets");

    bindTypedSteps();
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
GpuSystem::activeWorkHorizon() const
{
    // No per-component nextWorkCycle() probing: every parked
    // component already deposited its wake cycle in a wheel (or the
    // scalar net wakes) when it parked, so the horizon is a handful
    // of mins plus one slot scan per wheel. Exactness of
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
    // their re-arm horizon. Min-merge also retires any stale arms a
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
GpuSystem::runLoop(unsigned kernel)
{
    std::uint64_t last_progress = progressToken();
    Cycle last_progress_cycle = cycle_;

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

        // Fixed phase order: events, L2s, response net, request net,
        // L1s, SMs, staged-request flush, DRAM. Each family ticks only
        // the ids its wheel popped, ascending. A wake that lands on
        // the current cycle after its family's pop is clamped to the
        // next cycle by the wheel, so a component always sees new
        // work on the first of its phases after the work arrived.
        std::size_t nDue = 0;
        events_.runUntil(cycle_);
        l2Wheel_.popDue(cycle_, due_);
        for (unsigned p : due_)
            l2Wheel_.arm(p, stepL2_(*this, p, cycle_));
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
        for (unsigned s : due_)
            l1Wheel_.arm(s, stepL1_(*this, s, cycle_));
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
            // A due sample reads counters by name: catch the parked
            // SMs up and batch the windowed blocks in first.
            if (cycle_ >= timeline_->nextSampleAt()) {
                accountSmsThrough(cycle_);
                flushStatWindows();
            }
            timeline_->sample(cycle_);
        }

        std::uint64_t token = progressToken();
        if (token != last_progress) {
            last_progress = token;
            last_progress_cycle = cycle_;
        } else if (cycle_ - last_progress_cycle > watchdogWindow_) {
            GTSC_PANIC("no forward progress for ", watchdogWindow_,
                       " cycles at cycle ", cycle_, " in workload ",
                       workload_.name(), " kernel ", kernel);
        }

        done = all_done() && quiescent();
        if (done || nDue != 0)
            continue;

        // Nothing was due: jump to the earliest armed or queued work.
        // Never past the watchdog deadline or the max-cycles bound, so
        // a hung simulation fails at exactly the cycle it would by
        // ticking (a machine with nothing armed that is not done is
        // such a hang: it lands on the watchdog deadline and panics
        // there), and never past a timeline sample cycle. No per-SM
        // work here: parked SMs account the skipped span lazily
        // (accountThrough) when they next tick, sample, or the kernel
        // ends.
        Cycle next = activeWorkHorizon();
        next = std::min(next, last_progress_cycle + watchdogWindow_ + 1);
        next = std::min(next, maxCycles_ + 1);
        if (timeline_)
            next = std::min(next, timeline_->nextSampleAt());
        fastForwarded_ += next - cycle_ - 1;
        cycle_ = next - 1;
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

    runLoop(kernel);

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
