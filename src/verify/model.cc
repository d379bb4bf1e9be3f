#include "verify/model.hh"

#include <algorithm>

#include "sim/log.hh"

namespace gtsc::verify
{

namespace
{

/**
 * The explored machine: small enough that the state space closes,
 * large enough that every protocol path (renewal, fill, write-ack,
 * eviction, reset) is reachable. Geometry guarantees the restore
 * hooks' no-capacity-eviction precondition: one set with 4 ways per
 * cache covers up to 4 explored lines.
 */
sim::Config
makeModelConfig(const sim::Config &user)
{
    sim::Config cfg = user;
    cfg.set("gpu.num_sms", std::to_string(user.getUint("verify.sms")));
    cfg.setInt("gpu.warps_per_sm", 1);
    cfg.setInt("gpu.warp_size", 1);
    cfg.setInt("gpu.num_partitions", 1);
    cfg.setInt("l1.size_bytes", 512);
    cfg.setInt("l1.assoc", 4);
    cfg.setInt("l1.mshr_entries", 8);
    cfg.setInt("l1.hit_latency", 1);
    cfg.setInt("l2.partition_bytes", 512);
    cfg.setInt("l2.assoc", 4);
    cfg.setInt("l2.mshr_entries", 8);
    cfg.setInt("l2.ports", 1);
    cfg.setInt("l2.access_latency", 2);
    return cfg;
}

} // namespace

ModelSim::ModelSim(const sim::Config &user_cfg)
    : cfg_(makeModelConfig(user_cfg)),
      domainPtr_(std::make_unique<core::TsDomain>(cfg_, stats_)),
      domain_(*domainPtr_)
{
    sms_ = cfg_.getUnsigned("verify.sms");
    lines_ = cfg_.getUnsigned("verify.lines");
    opsPerThread_ = cfg_.getUnsigned("verify.ops_per_thread");
    std::string cons = cfg_.getString("verify.consistency");
    if (cons == "sc")
        maxOutstanding_ = 1;
    else if (cons == "rc")
        maxOutstanding_ = cfg_.getUnsigned("verify.max_outstanding");
    else
        GTSC_FATAL("verify.consistency must be sc|rc, got '", cons, "'");
    boostBudget_ = cfg_.getUnsigned("verify.boosts");
    evictions_ = cfg_.getBool("verify.evictions");
    settleCap_ = cfg_.getUnsigned("verify.settle_cap");
    if (sms_ == 0 || sms_ > 8 || lines_ == 0 || lines_ > 4)
        GTSC_FATAL("verify.sms must be in [1,8] and verify.lines in "
                   "[1,4], got ",
                   sms_, "/", lines_);

    // Oracle first so the version history collapses before any
    // post-reset probe calls (listeners fire in registration order;
    // the L2's own rewind registers in its constructor below).
    domain_.addResetListener(
        [this]() { oracle_.onEpochReset(domain_.epoch()); });

    dram_ = std::make_unique<mem::DramChannel>(cfg_, stats_, events_,
                                               memory_, "dram0");
    l2_ = std::make_unique<core::GtscL2>(0, cfg_, stats_, events_,
                                         *dram_, memory_, domain_,
                                         &oracle_);
    l2_->setSend([this](mem::Packet &&p) {
        pendingResps_.push_back(std::move(p));
    });
    for (unsigned sm = 0; sm < sms_; ++sm)
    {
        auto l1 = std::make_unique<core::GtscL1>(
            static_cast<SmId>(sm), cfg_, stats_, events_, domain_,
            &oracle_);
        l1->setSend([this](mem::Packet &&p) {
            pendingReqs_.push_back(std::move(p));
        });
        l1->setLoadDone(
            [this, sm](const mem::Access &, const mem::AccessResult &) {
                GTSC_ASSERT(threads_[sm].outstanding > 0,
                            "load completion without outstanding op");
                --threads_[sm].outstanding;
            });
        l1->setStoreDone([this, sm](const mem::Access &, Cycle) {
            GTSC_ASSERT(threads_[sm].outstanding > 0,
                        "store completion without outstanding op");
            --threads_[sm].outstanding;
        });
        l1s_.push_back(std::move(l1));
    }
    threads_.assign(sms_, ThreadState{});
}

bool
ModelSim::settled() const
{
    if (!events_.empty() || !dram_->idle())
        return false;
    if (l2_->nextWorkCycle(now_) != kCycleNever)
        return false;
    for (const auto &l1 : l1s_)
    {
        if (l1->nextWorkCycle(now_) != kCycleNever)
            return false;
    }
    return true;
}

bool
ModelSim::settle()
{
    for (unsigned i = 0; i < settleCap_; ++i)
    {
        if (settled())
            return true;
        ++now_;
        events_.runUntil(now_);
        dram_->tick(now_);
        l2_->tick(now_);
        for (auto &l1 : l1s_)
            l1->tick(now_);
    }
    return settled();
}

void
ModelSim::capture(WorldState &w)
{
    w.l1.resize(l1s_.size());
    for (std::size_t sm = 0; sm < l1s_.size(); ++sm)
        l1s_[sm]->captureVerifyState(w.l1[sm]);
    l2_->captureVerifyState(w.l2);
    w.domain = domain_.captureVerifyState();
    w.reqs = pendingReqs_;
    w.resps = pendingResps_;
    w.threads = threads_;
    w.memLines.resize(lines_);
    for (unsigned i = 0; i < lines_; ++i)
        w.memLines[i] = memory_.readLine(lineAddr(i));
    w.oracle = oracle_.state();
    w.nextAccessId = nextAccessId_;
}

void
ModelSim::restore(const WorldState &w)
{
    GTSC_ASSERT(settled(), "verify restore on an unsettled machine");
    GTSC_ASSERT(w.l1.size() == l1s_.size(),
                "world state shape mismatch");
    for (std::size_t sm = 0; sm < l1s_.size(); ++sm)
        l1s_[sm]->restoreVerifyState(w.l1[sm]);
    l2_->restoreVerifyState(w.l2);
    domain_.restoreVerifyState(w.domain);
    for (unsigned i = 0; i < lines_; ++i)
        memory_.writeLine(lineAddr(i), w.memLines[i]);
    oracle_.restore(w.oracle);
    pendingReqs_ = w.reqs;
    pendingResps_ = w.resps;
    threads_ = w.threads;
    nextAccessId_ = w.nextAccessId;
}

void
ModelSim::enabledActions(const WorldState &w,
                         std::vector<Action> &out) const
{
    out.clear();
    auto hasLine = [](const std::vector<core::VerifyLineState> &lines,
                      Addr addr) {
        for (const auto &l : lines)
            if (l.lineAddr == addr)
                return true;
        return false;
    };
    for (std::uint16_t sm = 0; sm < sms_; ++sm)
    {
        const ThreadState &t = w.threads[sm];
        if (t.issued < opsPerThread_ && t.outstanding < maxOutstanding_)
        {
            for (std::uint16_t line = 0; line < lines_; ++line)
            {
                out.push_back({Action::Kind::IssueLoad, sm, line});
                out.push_back({Action::Kind::IssueStore, sm, line});
            }
        }
        if (t.boosts < boostBudget_)
            out.push_back({Action::Kind::Boost, sm, 0});
    }
    for (std::uint16_t sm = 0; sm < sms_; ++sm)
    {
        for (const auto &p : w.reqs)
        {
            if (p.src == sm)
            {
                out.push_back({Action::Kind::DeliverReq, sm, 0});
                break;
            }
        }
        for (const auto &p : w.resps)
        {
            if (p.src == sm)
            {
                out.push_back({Action::Kind::DeliverResp, sm, 0});
                break;
            }
        }
    }
    if (evictions_)
    {
        for (std::uint16_t sm = 0; sm < sms_; ++sm)
        {
            for (std::uint16_t line = 0; line < lines_; ++line)
            {
                Addr addr = lineAddr(line);
                if (!hasLine(w.l1[sm].lines, addr))
                    continue;
                bool locked = false;
                for (const auto &[laddr, id] : w.l1[sm].storeByLine)
                    locked |= laddr == addr;
                if (!locked)
                    out.push_back({Action::Kind::EvictL1, sm, line});
            }
        }
        for (std::uint16_t line = 0; line < lines_; ++line)
        {
            if (hasLine(w.l2.lines, lineAddr(line)))
                out.push_back({Action::Kind::EvictL2, 0, line});
        }
    }
}

void
ModelSim::applyAction(const Action &action)
{
    switch (action.kind)
    {
    case Action::Kind::IssueLoad:
    case Action::Kind::IssueStore:
    {
        ThreadState &t = threads_[action.sm];
        mem::Access acc;
        acc.isStore = action.kind == Action::Kind::IssueStore;
        acc.lineAddr = lineAddr(action.line);
        acc.wordMask = 1;
        if (acc.isStore)
        {
            // Path-independent payload: (sm, op index) — never a
            // global counter, which would split identical states in
            // the visited set.
            acc.storeData.setWord(
                0, (static_cast<std::uint32_t>(action.sm) + 1) * 16 +
                       t.issued);
        }
        acc.sm = static_cast<SmId>(action.sm);
        acc.warp = 0;
        acc.id = nextAccessId_++;
        bool ok = l1s_[action.sm]->access(acc, now_);
        GTSC_ASSERT(ok, "model L1 rejected an access (MSHR sized too "
                        "small for the explored config)");
        ++t.issued;
        ++t.outstanding;
        break;
    }
    case Action::Kind::DeliverReq:
    case Action::Kind::DeliverResp:
    {
        bool req = action.kind == Action::Kind::DeliverReq;
        auto &held = req ? pendingReqs_ : pendingResps_;
        auto it = std::find_if(held.begin(), held.end(),
                               [&](const mem::Packet &p) {
                                   return p.src == action.sm;
                               });
        GTSC_ASSERT(it != held.end(),
                    "deliver action with no held message");
        mem::Packet pkt = std::move(*it);
        held.erase(it);
        if (transcript_)
        {
            transcript_->log(obs::TranscriptEntry{
                now_, pkt.lineAddr, mem::msgTypeName(pkt.type),
                req ? pkt.src : pkt.part, req ? pkt.part : pkt.src,
                pkt.warp, !req, pkt.wts, pkt.rts});
        }
        if (req)
            l2_->receiveRequest(std::move(pkt), now_);
        else
            l1s_[action.sm]->receiveResponse(std::move(pkt), now_);
        break;
    }
    case Action::Kind::EvictL1:
    {
        bool ok =
            l1s_[action.sm]->verifyEvictLine(lineAddr(action.line));
        GTSC_ASSERT(ok, "EvictL1 enabled but refused");
        break;
    }
    case Action::Kind::EvictL2:
    {
        bool ok = l2_->verifyEvictLine(lineAddr(action.line));
        GTSC_ASSERT(ok, "EvictL2 enabled but refused");
        break;
    }
    case Action::Kind::Boost:
        l1s_[action.sm]->noteSpinRetry(0, lineAddr(0));
        ++threads_[action.sm].boosts;
        break;
    }
}

ModelSim::InitOutcome
ModelSim::init()
{
    InitOutcome o;
    bool ok = settle();
    if (!ok)
    {
        o.violations.push_back(
            "Deadlock: initial state failed to settle");
        return o;
    }
    capture(o.state);
    auto sv = checkStateInvariants(o.state, invariantParams());
    o.violations.insert(o.violations.end(), sv.begin(), sv.end());
    return o;
}

void
ModelSim::step(const WorldState &from, const Action &action,
               WorldState &out, std::vector<std::string> &violations)
{
    GTSC_ASSERT(&out != &from, "step into its own source state");
    violations.clear();
    restore(from);
    applyAction(action);
    if (!settle())
    {
        violations.push_back(
            "Deadlock: no settled state within " +
            std::to_string(settleCap_) + " cycles after '" +
            action.describe() + "'");
        return;
    }
    oracle_.drainViolations(violations);
    capture(out);
    auto sv = checkStateInvariants(out, invariantParams());
    violations.insert(violations.end(), sv.begin(), sv.end());
    auto tv = checkTransitionInvariants(from, out);
    violations.insert(violations.end(), tv.begin(), tv.end());
}

std::vector<std::string>
ModelSim::checkTerminal(const WorldState &w) const
{
    std::vector<std::string> out;
    for (std::size_t sm = 0; sm < w.threads.size(); ++sm)
    {
        const ThreadState &t = w.threads[sm];
        if (t.outstanding > 0 || t.issued < opsPerThread_)
        {
            out.push_back(
                "StuckState: sm" + std::to_string(sm) + " finished " +
                std::to_string(t.issued - t.outstanding) + "/" +
                std::to_string(opsPerThread_) +
                " ops with no transition left");
        }
    }
    return out;
}

} // namespace gtsc::verify
