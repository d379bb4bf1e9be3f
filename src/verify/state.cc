#include "verify/state.hh"

#include <algorithm>
#include <sstream>

namespace gtsc::verify
{

std::string
Action::describe() const
{
    std::ostringstream oss;
    switch (kind)
    {
    case Kind::IssueLoad:
        oss << "sm" << sm << ": load line" << line;
        break;
    case Kind::IssueStore:
        oss << "sm" << sm << ": store line" << line;
        break;
    case Kind::DeliverReq:
        oss << "deliver request of sm" << sm;
        break;
    case Kind::DeliverResp:
        oss << "deliver response to sm" << sm;
        break;
    case Kind::EvictL1:
        oss << "sm" << sm << ": evict L1 line" << line;
        break;
    case Kind::EvictL2:
        oss << "evict L2 line" << line;
        break;
    case Kind::Boost:
        oss << "sm" << sm << ": spin ts boost";
        break;
    }
    return oss.str();
}

namespace
{

/** Byte sink: appends each field little-endian (canonicalKey). */
struct ByteSink
{
    std::string out;

    void
    u8(std::uint8_t v)
    {
        out.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            u8(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    line(const mem::LineData &d)
    {
        for (unsigned i = 0; i < mem::kWordsPerLine; ++i)
            u32(d.word(i));
    }
};

constexpr std::uint64_t
rotl(std::uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

/** MurmurHash3's 64-bit finalizer: a bijection with full avalanche. */
constexpr std::uint64_t
fmix64(std::uint64_t k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
}

/**
 * Word sink (canonicalHash): every field, whatever its width, is one
 * 64-bit word fed to two independent lanes — xor-rotate-multiply and
 * add-rotate-multiply with different constants, each a bijection of
 * the lane for a fixed word. The one exception is a line's data,
 * whose 32 words go in pairs, two to a hash word: a line always has
 * 32 words, so the word stream is still an injective function of the
 * key. The finish is a two-round Feistel over fmix64, so the 128-bit
 * result is a bijection of the lane pair in which every output bit
 * depends on every lane bit.
 */
class WordHasher
{
  public:
    void u8(std::uint8_t v) { word(v); }
    void u32(std::uint32_t v) { word(v); }
    void u64(std::uint64_t v) { word(v); }

    void
    line(const mem::LineData &d)
    {
        for (unsigned i = 0; i < mem::kWordsPerLine; i += 2)
            word(d.word(i) | std::uint64_t{d.word(i + 1)} << 32);
    }

    Hash128
    finish() const
    {
        std::uint64_t a = fmix64(a_ ^ words_);
        std::uint64_t b = fmix64(b_ + a);
        a = fmix64(a + b);
        return Hash128{a, b};
    }

  private:
    void
    word(std::uint64_t v)
    {
        a_ = rotl(a_ ^ v, 29) * 0x9e3779b97f4a7c15ULL;
        b_ = rotl(b_ + v, 41) * 0xc2b2ae3d27d4eb4fULL;
        ++words_;
    }

    std::uint64_t a_ = 0x6a09e667f3bcc908ULL;
    std::uint64_t b_ = 0xbb67ae8584caa73bULL;
    std::uint64_t words_ = 0;
};

/**
 * Order-preserving dense renumbering of request ids over a sorted
 * flat vector (the caller's scratch, cleared on construction): an
 * id's dense value is its rank + 1. Relative id order is behaviour
 * (ack matching, replay sequencing); absolute values are history.
 */
class IdMap
{
  public:
    explicit IdMap(std::vector<std::uint64_t> &ids) : ids_(ids)
    {
        ids_.clear();
    }

    void
    note(std::uint64_t id)
    {
        if (id)
            ids_.push_back(id);
    }

    void
    seal()
    {
        std::sort(ids_.begin(), ids_.end());
        ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
    }

    std::uint64_t
    operator[](std::uint64_t id) const
    {
        if (!id)
            return 0;
        auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
        if (it == ids_.end() || *it != id)
            return id;
        return static_cast<std::uint64_t>(it - ids_.begin()) + 1;
    }

  private:
    std::vector<std::uint64_t> &ids_;
};

template <typename Sink>
void
putLine(Sink &s, const core::VerifyLineState &l)
{
    s.u64(l.lineAddr);
    s.u8(l.dirty ? 1 : 0);
    s.u64(l.meta.wts);
    s.u64(l.meta.rts);
    s.u32(l.meta.epoch);
    s.u8(l.meta.renewStreak);
    s.line(l.data);
}

template <typename Sink>
void
putAccess(Sink &s, const mem::Access &a, const IdMap &ids)
{
    s.u8(a.isStore ? 1 : 0);
    s.u64(a.lineAddr);
    s.u32(a.wordMask);
    for (unsigned w = 0; w < mem::kWordsPerLine; ++w)
    {
        if (a.wordMask & (1u << w))
            s.u32(a.storeData.word(w));
    }
    s.u32(a.sm);
    s.u32(a.warp);
    s.u64(ids[a.id]);
    s.u8(a.replayed ? 1 : 0);
}

template <typename Sink>
void
putPacket(Sink &s, const mem::Packet &p, const IdMap &ids)
{
    s.u8(static_cast<std::uint8_t>(p.type));
    s.u64(p.lineAddr);
    s.u32(p.src);
    s.u32(p.part);
    s.u32(p.warp);
    s.u64(p.wts);
    s.u64(p.rts);
    s.u64(p.warpTs);
    s.u64(p.prevWts);
    s.u32(p.epoch);
    s.u8(p.tsReset ? 1 : 0);
    s.u32(p.wordMask);
    if (mem::carriesData(p.type))
        s.line(p.data);
    s.u64(ids[p.reqId]);
}

/**
 * Held messages stably sorted by source SM (see file comment),
 * ordered through the reused index buffer `order`. Insertion sort:
 * the lists are a handful of packets, and std::stable_sort would
 * allocate a merge buffer.
 */
template <typename Sink>
void
putPackets(Sink &s, const std::vector<mem::Packet> &pkts,
           const IdMap &ids, std::vector<std::uint32_t> &order)
{
    order.clear();
    for (std::uint32_t i = 0; i < pkts.size(); ++i)
    {
        std::size_t j = order.size();
        order.push_back(i);
        for (; j > 0 && pkts[order[j - 1]].src > pkts[i].src; --j)
            order[j] = order[j - 1];
        order[j] = i;
    }
    s.u32(static_cast<std::uint32_t>(pkts.size()));
    for (std::uint32_t i : order)
        putPacket(s, pkts[i], ids);
}

/** The canonical field sequence, into a byte or a word sink. */
template <typename Sink>
void
serialize(Sink &s, const WorldState &w, CanonicalScratch &scratch)
{
    IdMap ids(scratch.ids);
    for (const auto &l1 : w.l1)
    {
        for (const auto &ps : l1.pendingStores)
        {
            ids.note(ps.id);
            ids.note(ps.access.id);
        }
        for (const auto &[line, id] : l1.storeByLine)
            ids.note(id);
        for (const auto &a : l1.mshrWaiters)
            ids.note(a.id);
        for (const auto &a : l1.replayQueue)
            ids.note(a.id);
    }
    for (const auto &p : w.reqs)
        ids.note(p.reqId);
    for (const auto &p : w.resps)
        ids.note(p.reqId);
    ids.seal();

    s.u32(static_cast<std::uint32_t>(w.l1.size()));
    for (const auto &l1 : w.l1)
    {
        s.u32(static_cast<std::uint32_t>(l1.lines.size()));
        for (const auto &l : l1.lines)
            putLine(s, l);
        s.u32(static_cast<std::uint32_t>(l1.warpTs.size()));
        for (Ts t : l1.warpTs)
            s.u64(t);
        s.u32(l1.epoch);
        s.u32(static_cast<std::uint32_t>(l1.pendingStores.size()));
        for (const auto &ps : l1.pendingStores)
        {
            s.u64(ids[ps.id]);
            putAccess(s, ps.access, ids);
            s.u64(ps.baseWts);
            s.u8(ps.hadBlock ? 1 : 0);
        }
        s.u32(static_cast<std::uint32_t>(l1.storeByLine.size()));
        for (const auto &[line, id] : l1.storeByLine)
        {
            s.u64(line);
            s.u64(ids[id]);
        }
        s.u32(static_cast<std::uint32_t>(l1.mshr.size()));
        const mem::Access *waiter = l1.mshrWaiters.data();
        for (const auto &m : l1.mshr)
        {
            s.u64(m.lineAddr);
            s.u8(m.requestSent ? 1 : 0);
            s.u32(m.outstanding);
            s.u8(m.lockWait ? 1 : 0);
            s.u64(m.requestWts);
            s.u32(m.waiterCount);
            for (std::uint32_t i = 0; i < m.waiterCount; ++i)
                putAccess(s, *waiter++, ids);
        }
        s.u32(static_cast<std::uint32_t>(l1.replayQueue.size()));
        for (const auto &a : l1.replayQueue)
            putAccess(s, a, ids);
    }

    s.u32(static_cast<std::uint32_t>(w.l2.lines.size()));
    for (const auto &l : w.l2.lines)
        putLine(s, l);
    s.u64(w.l2.memTs);
    s.u32(w.domain.epoch);

    putPackets(s, w.reqs, ids, scratch.order);
    putPackets(s, w.resps, ids, scratch.order);

    s.u32(static_cast<std::uint32_t>(w.threads.size()));
    for (const auto &t : w.threads)
    {
        s.u32(t.issued);
        s.u32(t.outstanding);
        s.u32(t.boosts);
    }

    s.u32(static_cast<std::uint32_t>(w.memLines.size()));
    for (const auto &d : w.memLines)
        s.line(d);

    // The oracle's word count, then each word's run.
    const auto &vs = w.oracle.versions;
    s.u32(w.oracle.epoch);
    std::uint32_t words = 0;
    for (std::size_t i = 0; i < vs.size(); ++i)
        words += i == 0 || vs[i].addr != vs[i - 1].addr;
    s.u32(words);
    for (std::size_t i = 0; i < vs.size();)
    {
        std::size_t end = i + 1;
        while (end < vs.size() && vs[end].addr == vs[i].addr)
            ++end;
        s.u64(vs[i].addr);
        s.u32(static_cast<std::uint32_t>(end - i));
        for (; i < end; ++i)
        {
            s.u32(vs[i].epoch);
            s.u64(vs[i].wts);
            s.u32(vs[i].value);
        }
    }
}

} // namespace

std::string
canonicalKey(const WorldState &w)
{
    CanonicalScratch scratch;
    ByteSink s;
    serialize(s, w, scratch);
    return std::move(s.out);
}

Hash128
canonicalHash(const WorldState &w, CanonicalScratch &scratch)
{
    WordHasher h;
    serialize(h, w, scratch);
    return h.finish();
}

Hash128
canonicalHash(const WorldState &w)
{
    CanonicalScratch scratch;
    return canonicalHash(w, scratch);
}

VisitedSet::VisitedSet(std::size_t capacity)
{
    std::size_t n = 16;
    while (n < capacity)
        n *= 2;
    slots_.resize(n);
}

std::size_t
VisitedSet::probe(const Hash128 &h) const
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h.lo & mask;
    while (!(slots_[i] == h) && !(slots_[i] == Hash128{}))
        i = (i + 1) & mask;
    return i;
}

bool
VisitedSet::insert(const Hash128 &h)
{
    if (h == Hash128{})
    {
        const bool added = !hasZero_;
        hasZero_ = true;
        return added;
    }
    std::size_t i = probe(h);
    if (slots_[i] == h)
        return false;
    if ((used_ + 1) * 4 > slots_.size() * 3)
    {
        grow();
        i = probe(h);
    }
    slots_[i] = h;
    ++used_;
    return true;
}

void
VisitedSet::grow()
{
    std::vector<Hash128> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Hash128 &h : old)
    {
        if (!(h == Hash128{}))
            slots_[probe(h)] = h;
    }
}

} // namespace gtsc::verify
