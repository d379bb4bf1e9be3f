#include "obs/tracer.hh"

#include <algorithm>
#include <ostream>

#include "sim/log.hh"

namespace gtsc::obs
{

const char *
eventKindName(EventKind k)
{
    switch (k) {
    case EventKind::WarpIssue:
        return "warp_issue";
    case EventKind::WarpStall:
        return "warp_stall";
    case EventKind::WarpResume:
        return "warp_resume";
    case EventKind::L1Hit:
        return "l1_hit";
    case EventKind::L1MissCold:
        return "l1_miss_cold";
    case EventKind::L1MissExpired:
        return "l1_miss_expired";
    case EventKind::L1Renewal:
        return "l1_renewal";
    case EventKind::MshrAlloc:
        return "mshr_alloc";
    case EventKind::MshrRetire:
        return "mshr_retire";
    case EventKind::NocInject:
        return "noc_inject";
    case EventKind::NocDeliver:
        return "noc_deliver";
    case EventKind::DramActivate:
        return "dram_activate";
    case EventKind::DramReturn:
        return "dram_return";
    case EventKind::WtsUpdate:
        return "wts_update";
    case EventKind::LeaseExtend:
        return "lease_extend";
    case EventKind::EpochReset:
        return "epoch_reset";
    }
    return "unknown";
}

const EventArgNames &
eventArgNames(EventKind k)
{
    // Indexed by EventKind value; fields are {a1, a2, addr, v0, v1}.
    static const EventArgNames kNames[kNumEventKinds] = {
        /* WarpIssue     */ {"warp", "op", "addr", nullptr, nullptr},
        /* WarpStall     */ {"warp", "reason", "addr", nullptr, nullptr},
        /* WarpResume    */ {"warp", nullptr, "addr", nullptr, nullptr},
        /* L1Hit         */ {"warp", nullptr, "addr", "wts", "rts"},
        /* L1MissCold    */ {"warp", nullptr, "addr", nullptr, nullptr},
        /* L1MissExpired */ {"warp", nullptr, "addr", "wts", "rts"},
        /* L1Renewal     */ {"warp", nullptr, "addr", "wts", nullptr},
        /* MshrAlloc     */ {nullptr, nullptr, "addr", "occupancy",
                             nullptr},
        /* MshrRetire    */ {nullptr, nullptr, "addr", "occupancy",
                             nullptr},
        /* NocInject     */ {"src", "dst", "addr", "msg", "bytes"},
        /* NocDeliver    */ {"src", "dst", "addr", "msg", "latency"},
        /* DramActivate  */ {"bank", "row_hit", "addr", "latency",
                             nullptr},
        /* DramReturn    */ {nullptr, nullptr, "addr", nullptr, nullptr},
        /* WtsUpdate     */ {"src", "warp", "addr", "wts", "rts"},
        /* LeaseExtend   */ {"src", "warp", "addr", "old_rts", "rts"},
        /* EpochReset    */ {nullptr, nullptr, nullptr, "epoch",
                             nullptr},
    };
    auto idx = static_cast<unsigned>(k);
    GTSC_ASSERT(idx < kNumEventKinds, "bad event kind");
    return kNames[idx];
}

Tracer::Tracer(std::size_t ring_capacity)
    : capacity_(std::max<std::size_t>(1, ring_capacity))
{
}

Tracer::TrackId
Tracer::track(const std::string &name)
{
    for (TrackId i = 0; i < tracks_.size(); ++i) {
        if (tracks_[i].name == name)
            return i;
    }
    tracks_.push_back(Track{name, {}, 0, 0});
    return static_cast<TrackId>(tracks_.size() - 1);
}

std::uint64_t
Tracer::totalRecorded() const
{
    std::uint64_t n = 0;
    for (const Track &t : tracks_)
        n += t.total;
    return n;
}

std::uint64_t
Tracer::totalRetained() const
{
    std::uint64_t n = 0;
    for (const Track &t : tracks_)
        n += t.ring.size();
    return n;
}

namespace
{

void
writeHex(std::ostream &os, std::uint64_t v)
{
    static const char *kDigits = "0123456789abcdef";
    char buf[16];
    int n = 0;
    do {
        buf[n++] = kDigits[v & 0xf];
        v >>= 4;
    } while (v);
    os << "\"0x";
    while (n)
        os << buf[--n];
    os << '"';
}

void
writeEvent(std::ostream &os, const Tracer::Track &tr, unsigned tid,
           const Event &e)
{
    const EventArgNames &names = eventArgNames(e.kind);
    os << "{\"name\":\"" << eventKindName(e.kind)
       << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":" << tid
       << ",\"ts\":" << e.cycle << ",\"cat\":\"" << tr.name
       << "\",\"args\":{";
    bool first = true;
    auto arg = [&](const char *name, auto value, bool hex) {
        if (!name)
            return;
        if (!first)
            os << ',';
        first = false;
        os << '"' << name << "\":";
        if (hex)
            writeHex(os, value);
        else
            os << value;
    };
    arg(names.a1, static_cast<std::uint64_t>(e.a1), false);
    arg(names.a2, static_cast<std::uint64_t>(e.a2), false);
    arg(names.addr, e.addr, true);
    arg(names.v0, e.v0, false);
    arg(names.v1, e.v1, false);
    os << "}}";
}

} // namespace

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (unsigned ti = 0; ti < tracks_.size(); ++ti) {
        const Track &tr = tracks_[ti];
        unsigned tid = ti + 1;
        if (!first)
            os << ",\n";
        first = false;
        // Thread-name metadata gives each track a labeled row.
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
           << "\"tid\":" << tid << ",\"args\":{\"name\":\"" << tr.name
           << "\"}}";
        if (tr.total > tr.ring.size()) {
            os << ",\n{\"name\":\"dropped_events\",\"ph\":\"M\","
               << "\"pid\":0,\"tid\":" << tid << ",\"args\":{\"count\":"
               << (tr.total - tr.ring.size()) << "}}";
        }
        // Oldest first: the ring cursor points at the oldest entry
        // once the buffer has wrapped. The main loop records in cycle
        // order, so ring order is already the dump order.
        std::size_t n = tr.ring.size();
        for (std::size_t i = 0; i < n; ++i) {
            os << ",\n";
            writeEvent(os, tr, tid, tr.ring[(tr.next + i) % n]);
        }
    }
    os << "]}\n";
}

} // namespace gtsc::obs
