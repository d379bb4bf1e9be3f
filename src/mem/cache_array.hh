/**
 * @file
 * Set-associative tag/data array with LRU replacement.
 *
 * The array is protocol-agnostic: every block carries a BlockMeta
 * that the coherence protocols interpret (logical timestamps for
 * G-TSC, absolute lease expiry for TC). Victim selection accepts a
 * predicate so TC's inclusive L2 can refuse to evict blocks with
 * unexpired leases (delayed eviction, Section II-D3).
 */

#ifndef GTSC_MEM_CACHE_ARRAY_HH_
#define GTSC_MEM_CACHE_ARRAY_HH_

#include <cstdint>
#include <vector>

#include "mem/line_data.hh"
#include "sim/types.hh"

namespace gtsc::mem
{

/** Per-block coherence metadata; protocols use the fields they need. */
struct BlockMeta
{
    // G-TSC (logical time)
    Ts wts = 0;
    Ts rts = 0;
    std::uint32_t epoch = 0;
    /**
     * Consecutive renewals since the last data change (adaptive
     * lease prediction, Tardis-2.0 style; gtsc.adaptive_lease).
     */
    std::uint8_t renewStreak = 0;

    // TC (physical time)
    Cycle leaseEnd = 0;
    /** Cycle the L2 provided/renewed this data (checker bookkeeping). */
    Cycle grant = 0;
};

/** One way: tag, state, coherence metadata and the line's payload. */
struct CacheBlock
{
    bool valid = false;
    bool dirty = false;
    Addr lineAddr = 0;          ///< full aligned line address (tag)
    std::uint64_t lastUse = 0;  ///< LRU stamp
    BlockMeta meta;
    LineData data;
};

/**
 * A set-associative cache structure.
 *
 * Capacity and associativity are fixed at construction; the line
 * size is the global kLineBytes. Lookups do not update LRU (callers
 * call touch() on a real access so probes stay side-effect free).
 */
class CacheArray
{
  public:
    /**
     * @param size_bytes total capacity
     * @param assoc ways per set
     */
    CacheArray(std::size_t size_bytes, std::size_t assoc);

    std::size_t numSets() const { return numSets_; }
    std::size_t assoc() const { return assoc_; }
    std::size_t sizeBytes() const { return numSets_ * assoc_ * kLineBytes; }

    /** Find a valid block holding this line; nullptr on miss. */
    CacheBlock *lookup(Addr line_addr);
    const CacheBlock *lookup(Addr line_addr) const;

    /** Update the block's LRU stamp. */
    void touch(CacheBlock &blk) { blk.lastUse = ++useStamp_; }

    /**
     * Drop a block. All invalidations go through here (not direct
     * `valid = false` writes), so there is one place to find them.
     */
    void invalidate(CacheBlock &blk) { blk.valid = false; }

    /**
     * Choose a victim way for this line: an invalid way if any,
     * otherwise the LRU way satisfying `evictable`. Returns nullptr
     * when every candidate is pinned (TC delayed eviction stalls).
     * The predicate is never asked about an invalid way. Templated
     * like forEachValid(), so fills inline it.
     */
    template <typename Pred>
    CacheBlock *
    victim(Addr line_addr, Pred &&evictable)
    {
        CacheBlock *base = &blocks_[setIndex(line_addr) * assoc_];
        CacheBlock *lru = nullptr;
        for (std::size_t w = 0; w < assoc_; ++w) {
            CacheBlock &blk = base[w];
            if (!blk.valid)
                return &blk;
            if (!evictable(static_cast<const CacheBlock &>(blk)))
                continue;
            if (!lru || blk.lastUse < lru->lastUse)
                lru = &blk;
        }
        return lru;
    }

    /** victim() with every way evictable. */
    CacheBlock *
    victim(Addr line_addr)
    {
        return victim(line_addr, [](const CacheBlock &) { return true; });
    }

    /**
     * Install a line into `blk` (as returned by victim()); resets
     * metadata and payload, marks valid, touches LRU. The caller is
     * responsible for writing back the previous contents first.
     */
    void insert(CacheBlock &blk, Addr line_addr);

    /** Invalidate every block (kernel-boundary flush). */
    void invalidateAll();

    /**
     * Apply fn to every valid block. Templated (not std::function):
     * flush and writeback scans run this over every block, and the
     * direct call lets the compiler inline the visitor.
     */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (auto &blk : blocks_) {
            if (blk.valid)
                fn(blk);
        }
    }

    /** Set index for a line address (exposed for tests). */
    std::size_t
    setIndex(Addr line_addr) const
    {
        return static_cast<std::size_t>(line_addr >> kLineShift) &
               (numSets_ - 1);
    }

  private:
    std::size_t numSets_;
    std::size_t assoc_;
    std::uint64_t useStamp_ = 0;
    std::vector<CacheBlock> blocks_; ///< numSets_ x assoc_, row-major
};

} // namespace gtsc::mem

#endif // GTSC_MEM_CACHE_ARRAY_HH_
