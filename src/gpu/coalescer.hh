/**
 * @file
 * The per-SM coalescing unit.
 *
 * Merges the per-lane addresses of one warp memory instruction into
 * the minimum number of line-granular accesses (Section II-A). Store
 * values are drawn from a shared monotonically increasing source so
 * every written word carries a unique value the coherence checker
 * can match against; explicit values (synchronization flags) pass
 * through unchanged.
 */

#ifndef GTSC_GPU_COALESCER_HH_
#define GTSC_GPU_COALESCER_HH_

#include <cstdint>
#include <vector>

#include "gpu/kernel.hh"
#include "mem/access.hh"

namespace gtsc::gpu
{

/**
 * Unique-value generator for store payloads.
 *
 * Each SM owns one, seeded with a disjoint arithmetic progression
 * (first = sm + 1, stride = numSms): values stay globally unique —
 * the coherence checker matches loads to stores by value — without
 * any cross-SM shared state. The default (1, 1) keeps the old
 * single-SM behaviour for unit tests.
 */
class StoreValueSource
{
  public:
    StoreValueSource() = default;
    StoreValueSource(std::uint32_t first, std::uint32_t stride)
        : next_(first), stride_(stride)
    {}

    std::uint32_t
    next()
    {
        std::uint32_t v = next_;
        next_ += stride_;
        return v;
    }

  private:
    std::uint32_t next_ = 1;
    std::uint32_t stride_ = 1;
};

/**
 * Pre-decoded coalescing plan for one memory WarpInstr: the target
 * line set and per-line word masks, computed once when the SM
 * fetches the instruction into a warp's cursor instead of re-derived
 * per issue. Two fast families cover nearly every instruction the
 * workload generators emit:
 *
 *  - Strided: stride == 4 with a full contiguous active mask. Lane
 *    word indices are wordInLine(base) + lane, so the access set is
 *    one or two lines with contiguous word masks — O(1) to compute,
 *    no per-lane loop at all for loads.
 *  - Broadcast: stride == 0. Every active lane hits one word of one
 *    line.
 *
 * Everything else (gathers, partial masks, odd strides) keeps
 * kind == Slow and takes the per-lane merge loop; the two paths are
 * equivalent by construction and pinned by randomized tests
 * (tests/gpu/coalescer_test.cc).
 */
struct CoalescePlan
{
    enum class Kind : std::uint8_t
    {
        Slow,      ///< per-lane merge loop
        Strided,   ///< 1-2 contiguous segments (stride == 4, full mask)
        Broadcast, ///< single word (stride == 0)
    };

    Kind kind = Kind::Slow;
    std::uint8_t segs = 0;
    /** Strided: word index of lane 0 within line[0]. */
    std::uint8_t firstWord = 0;
    /** Strided: lanes mapping into line[0] (the rest hit line[1]). */
    std::uint8_t lanesInSeg0 = 0;
    Addr line[2] = {0, 0};
    std::uint32_t mask[2] = {0, 0};
};

class Coalescer
{
  public:
    explicit Coalescer(StoreValueSource &values) : values_(values) {}

    /**
     * Decode `instr`'s access pattern into a plan (see CoalescePlan).
     * Pure: any plan produced here makes coalesce() emit exactly what
     * the slow path would, including store-value draw order.
     */
    static CoalescePlan plan(const WarpInstr &instr, unsigned warp_size);

    /**
     * Split a Load/Store instruction into line accesses, replacing
     * the contents of `out` (live elements are recycled in place via
     * Access::beginLine and the vector resized, so a steady-state
     * buffer never reallocates or re-zeroes load payloads). Lane i
     * participates when activeMask bit i is set; warp_size bounds
     * the lanes examined. Access ids are left 0 (the SM assigns
     * them). `plan` must have been built from the same instr and
     * warp_size.
     */
    void coalesce(const WarpInstr &instr, const CoalescePlan &plan,
                  unsigned warp_size, SmId sm, WarpId warp,
                  std::vector<mem::Access> &out);

    /** Convenience overload: decode and split in one call (tests,
     *  cold paths). */
    void
    coalesce(const WarpInstr &instr, unsigned warp_size, SmId sm,
             WarpId warp, std::vector<mem::Access> &out)
    {
        coalesce(instr, plan(instr, warp_size), warp_size, sm, warp,
                 out);
    }

  private:
    mem::Access &slot(std::vector<mem::Access> &out, unsigned idx);

    void coalesceSlow(const WarpInstr &instr, unsigned warp_size,
                      SmId sm, WarpId warp,
                      std::vector<mem::Access> &out);

    StoreValueSource &values_;
};

} // namespace gtsc::gpu

#endif // GTSC_GPU_COALESCER_HH_
