/**
 * @file
 * The model checker's world state: every bit of information that
 * determines the future behaviour of the explored system, captured at
 * a settled point (event queue empty, DRAM idle, all in-flight
 * coherence messages held by the harness).
 *
 * Canonicalization quotients the state for visited-set dedup:
 *  - request/response ids are remapped to a dense order-preserving
 *    numbering (absolute ids encode arrival history, not behaviour);
 *  - held messages are stably sorted by source SM (the harness
 *    delivers FIFO per SM, so cross-SM arrival interleavings of the
 *    pending multiset are behaviourally identical);
 *  - diagnostics that never feed back into transitions (LRU stamps,
 *    absolute cycles, injection timestamps, wire sizes) are captured
 *    as zero or omitted by the core snapshot structs already.
 */

#ifndef GTSC_VERIFY_STATE_HH_
#define GTSC_VERIFY_STATE_HH_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/gtsc_state.hh"
#include "mem/packet.hh"
#include "verify/oracle.hh"

namespace gtsc::verify
{

/** One transition the model checker can take. */
struct Action
{
    enum class Kind : std::uint8_t
    {
        IssueLoad,   ///< SM `sm` issues a load to line `line`
        IssueStore,  ///< SM `sm` issues a store to line `line`
        DeliverReq,  ///< deliver SM `sm`'s oldest held request to L2
        DeliverResp, ///< deliver the oldest held response to SM `sm`
        EvictL1,     ///< drop line `line` from SM `sm`'s L1
        EvictL2,     ///< evict line `line` from the L2
        Boost,       ///< spin-retry timestamp boost at SM `sm`
    };

    Kind kind = Kind::IssueLoad;
    std::uint16_t sm = 0;
    std::uint16_t line = 0;

    bool
    operator==(const Action &o) const
    {
        return kind == o.kind && sm == o.sm && line == o.line;
    }

    std::string describe() const;
};

/** Per-thread (per-SM, one warp each) exploration bookkeeping. */
struct ThreadState
{
    unsigned issued = 0;      ///< ops issued so far
    unsigned outstanding = 0; ///< ops not yet completed
    unsigned boosts = 0;      ///< Boost actions taken
};

/** Complete settled-system snapshot. */
struct WorldState
{
    std::vector<core::L1VerifyState> l1;
    core::L2VerifyState l2;
    core::TsDomainVerifyState domain;
    /** Held coherence messages, in capture (send) order. */
    std::vector<mem::Packet> reqs;
    std::vector<mem::Packet> resps;
    std::vector<ThreadState> threads;
    /** Backing-memory contents of the tracked lines, line-index order. */
    std::vector<mem::LineData> memLines;
    VersionOracle::State oracle;
    /** Monotone id source; excluded from the canonical key. */
    std::uint64_t nextAccessId = 1;
};

/**
 * Canonical serialization of a world state (see file comment). Two
 * states with equal keys are behaviourally identical under the
 * harness's transition set. The explorer dedups on canonicalHash();
 * this byte string is the readable reference the tests compare
 * against.
 */
std::string canonicalKey(const WorldState &w);

/** 128-bit canonical-state hash (visited-set entry). */
struct Hash128
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool
    operator==(const Hash128 &o) const
    {
        return lo == o.lo && hi == o.hi;
    }
};

/**
 * Reusable working storage of the canonical serializer: the sorted
 * request ids to renumber and the source-sorted order of the held
 * packets being written. Keeping one across calls lets
 * canonicalHash() run without heap allocation once the buffers have
 * grown to the largest state seen.
 */
struct CanonicalScratch
{
    std::vector<std::uint64_t> ids;
    std::vector<std::uint32_t> order;
};

/**
 * Hash of the same field sequence canonicalKey() writes, each field
 * fed as one 64-bit word into a two-lane 128-bit hasher: equal keys
 * give equal hashes, and distinct keys collide with probability
 * about 2^-128 per pair.
 */
Hash128 canonicalHash(const WorldState &w, CanonicalScratch &scratch);

/** One-off canonicalHash() with its own scratch. */
Hash128 canonicalHash(const WorldState &w);

/**
 * The explorer's visited set: canonical-state hashes in one
 * open-addressing table, 16 bytes a slot and no node per member.
 * Linear probing from `lo` over a power-of-two capacity; an all-zero
 * slot is empty, and a flag records a real all-zero hash. The table
 * doubles before an insert would take its load past 3/4.
 */
class VisitedSet
{
  public:
    /** `capacity` slots, rounded up to a power of two (at least 16). */
    explicit VisitedSet(std::size_t capacity = 1024);

    /** Add `h`; false if it was already a member. */
    bool insert(const Hash128 &h);

    std::size_t size() const { return used_ + (hasZero_ ? 1 : 0); }
    std::size_t capacity() const { return slots_.size(); }

  private:
    /** The slot holding `h`, or the empty slot where it belongs. */
    std::size_t probe(const Hash128 &h) const;
    void grow();

    std::vector<Hash128> slots_;
    std::size_t used_ = 0; ///< members in slots_ (all but the zero hash)
    bool hasZero_ = false;
};

} // namespace gtsc::verify

#endif // GTSC_VERIFY_STATE_HH_
