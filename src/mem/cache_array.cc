#include "mem/cache_array.hh"

#include "sim/log.hh"

namespace gtsc::mem
{

namespace
{

bool
isPow2(std::size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

CacheArray::CacheArray(std::size_t size_bytes, std::size_t assoc)
    : numSets_(0), assoc_(assoc)
{
    if (assoc == 0)
        GTSC_FATAL("cache associativity must be > 0");
    if (size_bytes % (assoc * kLineBytes) != 0)
        GTSC_FATAL("cache size ", size_bytes,
                   " not divisible by assoc*line (", assoc * kLineBytes,
                   ")");
    numSets_ = size_bytes / (assoc * kLineBytes);
    if (!isPow2(numSets_))
        GTSC_FATAL("cache set count ", numSets_, " must be a power of 2");
    blocks_.resize(numSets_ * assoc_);
}

CacheBlock *
CacheArray::lookup(Addr line_addr)
{
    std::size_t base = setIndex(line_addr) * assoc_;
    for (std::size_t w = 0; w < assoc_; ++w) {
        CacheBlock &blk = blocks_[base + w];
        if (blk.valid && blk.lineAddr == line_addr)
            return &blk;
    }
    return nullptr;
}

const CacheBlock *
CacheArray::lookup(Addr line_addr) const
{
    return const_cast<CacheArray *>(this)->lookup(line_addr);
}

void
CacheArray::insert(CacheBlock &blk, Addr line_addr)
{
    GTSC_ASSERT(setIndex(line_addr) ==
                    static_cast<std::size_t>(&blk - blocks_.data()) /
                        assoc_,
                "insert into wrong set");
    blk.valid = true;
    blk.dirty = false;
    blk.lineAddr = line_addr;
    blk.meta = BlockMeta{};
    blk.data = LineData{};
    touch(blk);
}

void
CacheArray::invalidateAll()
{
    for (auto &blk : blocks_)
        blk.valid = false;
}

} // namespace gtsc::mem
