/**
 * @file
 * BitMask — packed uint64_t membership masks for the hot-path fast
 * lanes (one word per 64 members).
 *
 * The SM's warp scheduler keeps one BitMask per warp state and the
 * crossbar one for its pending ejection ports, so the per-cycle
 * passes that used to walk byte-per-element state arrays become word
 * loads: wake passes iterate only set bits, pickers are rotate+ctz,
 * and classification counts are popcounts. The SM's masks are its
 * only record of warp state (DESIGN.md §9).
 *
 * Sized once at construction (resize allocates); every operation
 * after that is heap-free, preserving the zero-alloc steady state.
 * All scans are word-granular, so the common configurations (≤ 64
 * warps per SM, ≤ 64 NoC ports) run entirely on one register.
 */

#ifndef GTSC_SIM_BITMASK_HH_
#define GTSC_SIM_BITMASK_HH_

#include <bit>
#include <cstdint>
#include <vector>

namespace gtsc::sim
{

class BitMask
{
  public:
    static constexpr unsigned kNpos = 0xffffffffu;

    BitMask() = default;

    /** Size to `n` members, all clear. Allocates; call at setup. */
    void
    resize(unsigned n)
    {
        n_ = n;
        words_.assign((n + 63u) / 64u, 0);
    }

    void
    clearAll()
    {
        for (std::uint64_t &w : words_)
            w = 0;
    }

    void set(unsigned i) { words_[i >> 6] |= bit(i); }
    void clear(unsigned i) { words_[i >> 6] &= ~bit(i); }
    bool test(unsigned i) const { return (words_[i >> 6] & bit(i)) != 0; }

    bool
    any() const
    {
        for (std::uint64_t w : words_)
            if (w)
                return true;
        return false;
    }

    unsigned
    count() const
    {
        unsigned c = 0;
        for (std::uint64_t w : words_)
            c += static_cast<unsigned>(std::popcount(w));
        return c;
    }

    unsigned size() const { return n_; }
    unsigned numWords() const { return static_cast<unsigned>(words_.size()); }
    std::uint64_t word(unsigned k) const { return words_[k]; }

    /**
     * First set member at or after `start`, wrapping past the end
     * (the round-robin picker: pass lastIssued+1). kNpos when empty.
     */
    unsigned
    findNextWrap(unsigned start) const
    {
        if (words_.empty())
            return kNpos;
        if (start >= n_)
            start = 0;
        unsigned k = start >> 6;
        std::uint64_t w = words_[k] & (~std::uint64_t{0} << (start & 63u));
        const unsigned nw = numWords();
        for (unsigned step = 0; step <= nw; ++step) {
            if (w)
                return k * 64u +
                       static_cast<unsigned>(std::countr_zero(w));
            k = (k + 1 == nw) ? 0 : k + 1;
            w = words_[k];
        }
        return kNpos;
    }

    /** Visit set members in ascending order. The callback may clear
     *  bits of members at or before the one being visited (each
     *  word is snapshotted before its inner scan). */
    template <typename F>
    void
    forEachSet(F &&f) const
    {
        for (unsigned k = 0; k < words_.size(); ++k) {
            std::uint64_t w = words_[k];
            while (w) {
                unsigned i = k * 64u +
                             static_cast<unsigned>(std::countr_zero(w));
                w &= w - 1;
                f(i);
            }
        }
    }

  private:
    static std::uint64_t bit(unsigned i) { return std::uint64_t{1} << (i & 63u); }

    std::vector<std::uint64_t> words_;
    unsigned n_ = 0;
};

/** Lowest member set in `a | b`, kNpos when both empty (the issue
 *  pickers scan ready|retry without materializing the union). */
inline unsigned
findFirstOr(const BitMask &a, const BitMask &b)
{
    const unsigned nw = a.numWords();
    for (unsigned k = 0; k < nw; ++k) {
        const std::uint64_t w = a.word(k) | b.word(k);
        if (w)
            return k * 64u + static_cast<unsigned>(std::countr_zero(w));
    }
    return BitMask::kNpos;
}

/** Visit members set in `a | b` in ascending order (the merged
 *  wake pass). Words are snapshotted before their inner scan, so
 *  the callback may clear bits of the visited member in either
 *  mask. */
template <typename F>
inline void
forEachSetOr(const BitMask &a, const BitMask &b, F &&f)
{
    const unsigned nw = a.numWords();
    for (unsigned k = 0; k < nw; ++k) {
        std::uint64_t w = a.word(k) | b.word(k);
        while (w) {
            unsigned i =
                k * 64u + static_cast<unsigned>(std::countr_zero(w));
            w &= w - 1;
            f(i);
        }
    }
}

/** findNextWrap over `a | b` (round-robin over the union). */
inline unsigned
findNextWrapOr(const BitMask &a, const BitMask &b, unsigned start)
{
    const unsigned nw = a.numWords();
    if (nw == 0)
        return BitMask::kNpos;
    if (start >= a.size())
        start = 0;
    unsigned k = start >> 6;
    std::uint64_t w =
        (a.word(k) | b.word(k)) & (~std::uint64_t{0} << (start & 63u));
    for (unsigned step = 0; step <= nw; ++step) {
        if (w)
            return k * 64u + static_cast<unsigned>(std::countr_zero(w));
        k = (k + 1 == nw) ? 0 : k + 1;
        w = a.word(k) | b.word(k);
    }
    return BitMask::kNpos;
}

} // namespace gtsc::sim

#endif // GTSC_SIM_BITMASK_HH_
