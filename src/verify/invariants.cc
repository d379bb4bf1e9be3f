#include "verify/invariants.hh"

#include <ostream>
#include <sstream>

namespace gtsc::verify
{

namespace
{

std::string
lineName(Addr a)
{
    std::ostringstream oss;
    oss << "0x" << std::hex << a;
    return oss.str();
}

void
violate(std::vector<std::string> &out, const char *name,
        const std::string &detail)
{
    out.push_back(std::string(name) + ": " + detail);
}

const core::VerifyLineState *
findLine(const std::vector<core::VerifyLineState> &lines, Addr addr)
{
    for (const auto &l : lines)
    {
        if (l.lineAddr == addr)
            return &l;
    }
    return nullptr;
}

/** The cache a line sits in; spelled out only in a violation. */
struct Where
{
    int sm = -1; ///< the SM's L1, or -1 for the L2
};

std::ostream &
operator<<(std::ostream &os, Where w)
{
    if (w.sm < 0)
        return os << "L2";
    return os << "L1[sm" << w.sm << "]";
}

/** Some L1 owns `addr` via an in-flight store. */
bool
storeLocked(const WorldState &w, Addr addr)
{
    for (const auto &l1 : w.l1)
        for (const auto &[line, id] : l1.storeByLine)
            if (line == addr)
                return true;
    return false;
}

} // namespace

std::vector<std::string>
checkStateInvariants(const WorldState &w, const InvariantParams &p)
{
    std::vector<std::string> out;

    auto checkLine = [&](const core::VerifyLineState &l, Where where) {
        if (l.meta.wts > l.meta.rts)
        {
            std::ostringstream oss;
            oss << where << " line " << lineName(l.lineAddr) << " wts "
                << l.meta.wts << " > rts " << l.meta.rts;
            violate(out, "WtsRtsOrder", oss.str());
        }
        if (l.meta.wts > p.tsMax || l.meta.rts > p.tsMax)
        {
            std::ostringstream oss;
            oss << where << " line " << lineName(l.lineAddr) << " wts "
                << l.meta.wts << " rts " << l.meta.rts
                << " exceeds ts_max " << p.tsMax;
            violate(out, "TsBound", oss.str());
        }
    };

    for (std::size_t sm = 0; sm < w.l1.size(); ++sm)
    {
        const auto &l1 = w.l1[sm];
        const Where where{static_cast<int>(sm)};
        for (const auto &l : l1.lines)
        {
            checkLine(l, where);
            if (l.meta.epoch != l1.epoch)
            {
                std::ostringstream oss;
                oss << where << " line " << lineName(l.lineAddr)
                    << " epoch " << l.meta.epoch
                    << " != adopted epoch " << l1.epoch;
                violate(out, "L1LineEpoch", oss.str());
            }
        }
        for (Ts t : l1.warpTs)
        {
            if (t > p.tsMax)
            {
                std::ostringstream oss;
                oss << where << " warp_ts " << t << " exceeds ts_max "
                    << p.tsMax;
                violate(out, "TsBound", oss.str());
            }
        }
        if (l1.epoch > w.domain.epoch)
        {
            std::ostringstream oss;
            oss << where << " adopted epoch " << l1.epoch
                << " ahead of domain epoch " << w.domain.epoch;
            violate(out, "L1LineEpoch", oss.str());
        }

        // Lease containment against the L2 — only for L1s that have
        // adopted the current epoch (stale L1s flush on next touch).
        if (l1.epoch == w.domain.epoch)
        {
            for (const auto &l : l1.lines)
            {
                const auto *l2l = findLine(w.l2.lines, l.lineAddr);
                if (!l2l)
                {
                    if (l.meta.rts > w.l2.memTs)
                    {
                        std::ostringstream oss;
                        oss << where << " line " << lineName(l.lineAddr)
                            << " rts " << l.meta.rts
                            << " > mem_ts " << w.l2.memTs
                            << " with no L2 copy";
                        violate(out, "MemTsDominance", oss.str());
                    }
                    continue;
                }
                if (l.meta.wts > l2l->meta.wts)
                {
                    std::ostringstream oss;
                    oss << where << " line " << lineName(l.lineAddr)
                        << " wts " << l.meta.wts << " newer than L2 wts "
                        << l2l->meta.wts;
                    violate(out, "L1L2Containment", oss.str());
                }
                else if (l.meta.wts == l2l->meta.wts)
                {
                    if (l.meta.rts > l2l->meta.rts)
                    {
                        std::ostringstream oss;
                        oss << where << " line " << lineName(l.lineAddr)
                            << " same version wts " << l.meta.wts
                            << " but rts " << l.meta.rts << " > L2 rts "
                            << l2l->meta.rts;
                        violate(out, "L1L2Containment", oss.str());
                    }
                }
                else if (l.meta.rts > l2l->meta.wts)
                {
                    std::ostringstream oss;
                    oss << where << " line " << lineName(l.lineAddr)
                        << " old version wts " << l.meta.wts << " rts "
                        << l.meta.rts
                        << " overlaps newer L2 version wts "
                        << l2l->meta.wts;
                    violate(out, "L1L2Containment", oss.str());
                }
            }
        }

        // In-flight store bookkeeping must agree with itself.
        if (l1.storeByLine.size() != l1.pendingStores.size())
        {
            std::ostringstream oss;
            oss << where << " " << l1.storeByLine.size()
                << " locked lines vs " << l1.pendingStores.size()
                << " pending stores";
            violate(out, "StoreLockConsistency", oss.str());
        }
        for (const auto &[line, id] : l1.storeByLine)
        {
            bool found = false;
            for (const auto &ps : l1.pendingStores)
            {
                if (ps.id == id)
                {
                    found = ps.access.lineAddr == line;
                    break;
                }
            }
            if (!found)
            {
                std::ostringstream oss;
                oss << where << " lock on line " << lineName(line)
                    << " names store id " << id
                    << " with no matching pending store";
                violate(out, "StoreLockConsistency", oss.str());
            }
        }

        for (const auto &m : l1.mshr)
        {
            if (m.waiters.empty())
            {
                std::ostringstream oss;
                oss << where << " empty MSHR entry for line "
                    << lineName(m.lineAddr);
                violate(out, "MshrLive", oss.str());
            }
            if (!m.lockWait && m.outstanding == 0)
            {
                std::ostringstream oss;
                oss << where << " MSHR entry for line "
                    << lineName(m.lineAddr)
                    << " expects no response (lost message)";
                violate(out, "MshrLive", oss.str());
            }
        }
    }

    for (const auto &l : w.l2.lines)
        checkLine(l, Where{});
    if (w.l2.memTs > p.tsMax)
    {
        std::ostringstream oss;
        oss << "L2 mem_ts " << w.l2.memTs << " exceeds ts_max "
            << p.tsMax;
        violate(out, "TsBound", oss.str());
    }

    // Same version => same data, across every up-to-date cache: each
    // copy must match the first copy of its (line, wts), in L2-then-L1
    // order. Lines an L1 owns via an in-flight store are exempt
    // (locally merged words precede the ack).
    auto upToDate = [&](std::size_t sm) {
        return w.l1[sm].epoch == w.domain.epoch;
    };
    auto firstCopy = [&](const core::VerifyLineState &l) {
        auto same = [&](const core::VerifyLineState &c) {
            return c.lineAddr == l.lineAddr && c.meta.wts == l.meta.wts;
        };
        for (const auto &c : w.l2.lines)
            if (same(c))
                return &c;
        for (std::size_t sm = 0; sm < w.l1.size(); ++sm)
            if (upToDate(sm))
                for (const auto &c : w.l1[sm].lines)
                    if (same(c))
                        return &c;
        return &l;
    };
    auto checkCopy = [&](const core::VerifyLineState &l, Where where) {
        if (storeLocked(w, l.lineAddr))
            return;
        const core::VerifyLineState *first = firstCopy(l);
        if (first != &l && !(first->data == l.data))
        {
            std::ostringstream oss;
            oss << where << " line " << lineName(l.lineAddr)
                << " version wts " << l.meta.wts
                << " differs from another cached copy of the same "
                   "version";
            violate(out, "SameVersionSameData", oss.str());
        }
    };
    for (const auto &l : w.l2.lines)
        checkCopy(l, Where{});
    for (std::size_t sm = 0; sm < w.l1.size(); ++sm)
    {
        if (!upToDate(sm))
            continue;
        for (const auto &l : w.l1[sm].lines)
            checkCopy(l, Where{static_cast<int>(sm)});
    }

    return out;
}

std::vector<std::string>
checkTransitionInvariants(const WorldState &before,
                          const WorldState &after)
{
    std::vector<std::string> out;
    if (after.domain.epoch < before.domain.epoch)
    {
        std::ostringstream oss;
        oss << "domain epoch rewound " << before.domain.epoch << " -> "
            << after.domain.epoch;
        violate(out, "EpochMonotone", oss.str());
    }
    if (after.domain.epoch != before.domain.epoch)
        return out; // reset rewinds timestamps by design

    if (after.l2.memTs < before.l2.memTs)
    {
        std::ostringstream oss;
        oss << "mem_ts rewound " << before.l2.memTs << " -> "
            << after.l2.memTs;
        violate(out, "MemTsMonotone", oss.str());
    }
    for (const auto &bl : before.l2.lines)
    {
        const auto *al = findLine(after.l2.lines, bl.lineAddr);
        if (al && al->meta.wts < bl.meta.wts)
        {
            std::ostringstream oss;
            oss << "L2 line " << lineName(bl.lineAddr) << " wts rewound "
                << bl.meta.wts << " -> " << al->meta.wts;
            violate(out, "L2WtsMonotone", oss.str());
        }
    }
    for (std::size_t sm = 0;
         sm < before.l1.size() && sm < after.l1.size(); ++sm)
    {
        if (before.l1[sm].epoch != after.l1[sm].epoch)
            continue; // epoch adoption rewinds warp timestamps
        for (std::size_t wid = 0; wid < before.l1[sm].warpTs.size();
             ++wid)
        {
            if (after.l1[sm].warpTs[wid] < before.l1[sm].warpTs[wid])
            {
                std::ostringstream oss;
                oss << "sm" << sm << " warp" << wid << " ts rewound "
                    << before.l1[sm].warpTs[wid] << " -> "
                    << after.l1[sm].warpTs[wid];
                violate(out, "WarpTsMonotone", oss.str());
            }
        }
    }
    return out;
}

} // namespace gtsc::verify
