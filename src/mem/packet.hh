/**
 * @file
 * Messages exchanged between private (L1) and shared (L2) caches.
 *
 * The message vocabulary follows Table I of the G-TSC paper:
 * BusRd (read / renewal request), BusWr (write request), BusFill
 * (fill response with data), BusRnw (renewal response, *no data*),
 * BusWrAck (write acknowledgment). The baseline and TC protocols
 * reuse the same vocabulary with their own field subsets; each
 * protocol computes its own wire size so the NoC traffic statistics
 * (Figure 15) reflect the per-protocol payloads.
 */

#ifndef GTSC_MEM_PACKET_HH_
#define GTSC_MEM_PACKET_HH_

#include <cstdint>
#include <string>

#include "mem/line_data.hh"
#include "sim/types.hh"

namespace gtsc::mem
{

enum class MsgType : std::uint8_t
{
    BusRd,    ///< L1 -> L2 read or renewal request
    BusWr,    ///< L1 -> L2 write request (write-through L1)
    BusFill,  ///< L2 -> L1 fill response carrying line data
    BusRnw,   ///< L2 -> L1 renewal response (lease only, no data)
    BusWrAck, ///< L2 -> L1 write acknowledgment
};

/** Number of MsgType values (per-type stat arrays size on this). */
inline constexpr unsigned kNumMsgTypes = 5;

/** Human-readable message name (stats keys, traces). */
const char *msgTypeName(MsgType t);

/**
 * True for message types whose `Packet::data` payload is meaningful.
 * BusRd carries no data by definition; BusRnw and BusWrAck are the
 * paper's explicitly data-less responses (Table I). Receivers never
 * read `data` for these types, so moves skip the 128-byte copy.
 */
inline constexpr bool
carriesData(MsgType t)
{
    return t == MsgType::BusWr || t == MsgType::BusFill;
}

/**
 * One NoC message. Protocols fill only the fields they use;
 * `sizeBytes` must be set by the sender before injection and is what
 * the interconnect serializes and accounts.
 */
struct Packet
{
    MsgType type = MsgType::BusRd;
    Addr lineAddr = 0;
    SmId src = 0;           ///< requesting SM
    PartitionId part = 0;   ///< target / replying L2 partition
    /**
     * Originating warp (diagnostics only: probe attribution and
     * protocol transcripts). Not part of any protocol's wire
     * payload, so it never contributes to sizeBytes.
     */
    WarpId warp = 0;

    // --- G-TSC fields (logical timestamps) ---
    Ts wts = 0;             ///< write timestamp (0 = "no local copy")
    Ts rts = 0;             ///< read timestamp / lease end
    Ts warpTs = 0;          ///< requesting warp's timestamp
    /**
     * BusWrAck: wts of the version the store was applied to. The L1
     * keeps its (locally merged) line only when this matches the
     * version it merged into; otherwise the unwritten words are
     * stale and the line self-invalidates.
     */
    Ts prevWts = 0;
    std::uint32_t epoch = 0;///< timestamp epoch (overflow/reset)
    bool tsReset = false;   ///< response carries a timestamp reset

    // --- TC fields (physical time) ---
    Cycle leaseEnd = 0;     ///< absolute expiry cycle of granted lease
    Cycle gwct = 0;         ///< global write completion time (TC-Weak)

    // --- payload ---
    std::uint32_t wordMask = 0; ///< words carried/written
    LineData data{};

    std::uint64_t reqId = 0;    ///< request/response matching
    std::uint32_t sizeBytes = 0;///< wire size, set by the sender
    Cycle injectedAt = 0;       ///< for NoC latency statistics

    Packet() = default;
    Packet(const Packet &) = default;
    Packet &operator=(const Packet &) = default;

    /**
     * Moves copy the 128-byte line payload only when the message
     * type actually carries one (carriesData); the NoC queues and
     * the request staging move packets end-to-end, so BusRd /
     * BusRnw / BusWrAck hops never touch `data`. The moved-from
     * packet's `data` is left unspecified for data-less types.
     */
    Packet(Packet &&o) noexcept { moveFrom(o); }

    Packet &
    operator=(Packet &&o) noexcept
    {
        if (this != &o)
            moveFrom(o);
        return *this;
    }

    std::string toString() const;

  private:
    void
    moveFrom(Packet &o)
    {
        type = o.type;
        lineAddr = o.lineAddr;
        src = o.src;
        part = o.part;
        warp = o.warp;
        wts = o.wts;
        rts = o.rts;
        warpTs = o.warpTs;
        prevWts = o.prevWts;
        epoch = o.epoch;
        tsReset = o.tsReset;
        leaseEnd = o.leaseEnd;
        gwct = o.gwct;
        wordMask = o.wordMask;
        if (carriesData(type))
            data = o.data;
        reqId = o.reqId;
        sizeBytes = o.sizeBytes;
        injectedAt = o.injectedAt;
    }
};

/** Number of bytes occupied by `word_mask` words, in 32B sectors. */
std::uint32_t maskedDataBytes(std::uint32_t word_mask);

} // namespace gtsc::mem

#endif // GTSC_MEM_PACKET_HH_
