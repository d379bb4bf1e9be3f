/**
 * @file
 * google-benchmark micro-costs of the protocol datapath primitives:
 * L1 access (hit and miss paths), L2 timestamp assignment, cache
 * array lookup, MSHR merge, crossbar injection, checker lookups.
 * Guards against the simulator itself becoming the bottleneck of
 * the figure harnesses.
 */

#include <queue>

#include <benchmark/benchmark.h>

#include "core/gtsc_builder.hh"
#include "gpu/coalescer.hh"
#include "gpu/kernel.hh"
#include "harness/checker.hh"
#include "mem/cache_array.hh"
#include "mem/mshr.hh"
#include "noc/arrival_ring.hh"
#include "noc/crossbar.hh"
#include "obs/tracer.hh"
#include "sim/bitmask.hh"
#include "sim/rng.hh"
#include "sim/slot_pool.hh"
#include "sim/time_wheel.hh"

using namespace gtsc;

namespace
{

void
BM_CacheArrayLookup(benchmark::State &state)
{
    mem::CacheArray array(16 * 1024, 4);
    for (std::uint64_t i = 0; i < 32; ++i) {
        Addr line = i * mem::kLineBytes;
        array.insert(*array.victim(line), line);
    }
    sim::Rng rng(1);
    for (auto _ : state) {
        Addr line = rng.below(64) * mem::kLineBytes;
        benchmark::DoNotOptimize(array.lookup(line));
    }
}
BENCHMARK(BM_CacheArrayLookup);

void
BM_PacketArenaAllocFree(benchmark::State &state)
{
    // Steady-state cost of parking a packet in the slot arena and
    // returning it: after the first acquire the freelist recycles
    // one slot forever, so the loop must never touch the allocator.
    sim::SlotPool<mem::Packet> pool;
    for (auto _ : state) {
        std::uint32_t slot = pool.acquire();
        mem::Packet &p = pool[slot];
        p.type = mem::MsgType::BusRd;
        p.sizeBytes = 12;
        benchmark::DoNotOptimize(p);
        pool.release(slot);
    }
}
BENCHMARK(BM_PacketArenaAllocFree);

/**
 * The pre-refactor array-of-structs block: metadata and the 128-byte
 * payload interleaved, so a set probe strides over payload it never
 * reads. BM_CacheArrayProbeAoS walks this layout with the same probe
 * loop CacheArray uses; the delta against BM_CacheArrayProbeSoA is
 * the payoff of the metadata/payload split.
 */
struct AosBlock
{
    bool valid = false;
    bool dirty = false;
    Addr lineAddr = 0;
    std::uint64_t lastUse = 0;
    mem::BlockMeta meta;
    mem::LineData data;
};

constexpr std::size_t kProbeCacheBytes = 4 * 1024 * 1024;
constexpr std::size_t kProbeAssoc = 8;
constexpr std::size_t kProbeSets =
    kProbeCacheBytes / mem::kLineBytes / kProbeAssoc;

void
BM_CacheArrayProbeSoA(benchmark::State &state)
{
    // Hit probes with line locality (an L1 access stream re-touches
    // the same line several times before moving on — the dominant
    // real pattern). The SoA probe walks dense ~48-byte records and
    // takes the MRU fast path on the re-touches.
    mem::CacheArray array(kProbeCacheBytes, kProbeAssoc);
    for (std::uint64_t i = 0; i < kProbeSets * kProbeAssoc; ++i) {
        Addr line = i * mem::kLineBytes;
        array.insert(*array.victim(line), line);
    }
    sim::Rng rng(4);
    Addr line = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        if ((n++ & 3) == 0)
            line = rng.below(kProbeSets * kProbeAssoc) *
                   mem::kLineBytes;
        mem::CacheBlock *blk = array.lookup(line);
        array.touch(*blk);
        benchmark::DoNotOptimize(blk);
    }
}
BENCHMARK(BM_CacheArrayProbeSoA);

void
BM_CacheArrayProbeAoS(benchmark::State &state)
{
    // The same access stream over the old interleaved layout: every
    // probe scans the set's fat blocks, dragging payload-sized
    // records through the host cache.
    std::vector<AosBlock> blocks(kProbeSets * kProbeAssoc);
    for (std::uint64_t i = 0; i < blocks.size(); ++i) {
        // Line i*kLineBytes maps to set (i % kProbeSets); place it
        // in that set's next way so every probed line is present.
        std::size_t set = i & (kProbeSets - 1);
        std::size_t way = i / kProbeSets;
        AosBlock &blk = blocks[set * kProbeAssoc + way];
        blk.valid = true;
        blk.lineAddr = i * mem::kLineBytes;
    }
    sim::Rng rng(4);
    std::uint64_t stamp = 0;
    Addr line = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        if ((n++ & 3) == 0)
            line = rng.below(kProbeSets * kProbeAssoc) *
                   mem::kLineBytes;
        std::size_t set =
            (line / mem::kLineBytes) & (kProbeSets - 1);
        AosBlock *hit = nullptr;
        AosBlock *base = &blocks[set * kProbeAssoc];
        for (std::size_t w = 0; w < kProbeAssoc; ++w) {
            if (base[w].valid && base[w].lineAddr == line) {
                hit = &base[w];
                break;
            }
        }
        hit->lastUse = ++stamp;
        benchmark::DoNotOptimize(hit);
    }
}
BENCHMARK(BM_CacheArrayProbeAoS);

constexpr std::size_t kWinCounters = 11; ///< Sm::StatWindow size

void
BM_StatCachedPtrIncrement(benchmark::State &state)
{
    // Pre-window hot path: every event bumps a cached pointer into a
    // StatSet map node — one scattered cache line per counter.
    sim::StatSet stats;
    std::uint64_t *targets[kWinCounters];
    for (std::size_t i = 0; i < kWinCounters; ++i)
        targets[i] = &stats.counter("win.c" + std::to_string(i));
    std::size_t n = 0;
    for (auto _ : state) {
        ++*targets[n % kWinCounters];
        ++n;
    }
    benchmark::DoNotOptimize(stats);
}
BENCHMARK(BM_StatCachedPtrIncrement);

void
BM_StatWindowFlush(benchmark::State &state)
{
    // Windowed pattern: events accumulate into one dense POD block,
    // batched into the map nodes every 1024 events (the flush cost
    // is amortized into the per-event figure).
    sim::StatSet stats;
    std::uint64_t *targets[kWinCounters];
    for (std::size_t i = 0; i < kWinCounters; ++i)
        targets[i] = &stats.counter("win.c" + std::to_string(i));
    struct Window
    {
        std::uint64_t c[kWinCounters] = {};
    } win;
    std::size_t n = 0;
    unsigned pending = 0;
    for (auto _ : state) {
        ++win.c[n % kWinCounters];
        ++n;
        if (++pending == 1024) {
            for (std::size_t i = 0; i < kWinCounters; ++i)
                *targets[i] += win.c[i];
            win = Window{};
            pending = 0;
        }
    }
    benchmark::DoNotOptimize(stats);
}
BENCHMARK(BM_StatWindowFlush);

void
BM_MshrAllocFree(benchmark::State &state)
{
    mem::Mshr mshr(32);
    for (auto _ : state) {
        mem::MshrEntry *e = mshr.alloc(0x1000);
        benchmark::DoNotOptimize(e);
        mshr.free(0x1000);
    }
}
BENCHMARK(BM_MshrAllocFree);

void
BM_GtscL1HitPath(benchmark::State &state)
{
    sim::Config cfg;
    cfg.setInt("gpu.warps_per_sm", 8);
    sim::StatSet stats;
    sim::EventQueue events;
    core::TsDomain domain(cfg, stats);
    core::GtscL1 l1(0, cfg, stats, events, domain, nullptr);
    l1.setSend([](mem::Packet &&) {});
    l1.setLoadDone([](const mem::Access &, const mem::AccessResult &) {});
    l1.setStoreDone([](const mem::Access &, Cycle) {});

    // Warm one line via a fill.
    mem::Access acc;
    acc.lineAddr = 0x1000;
    acc.wordMask = 1;
    acc.warp = 0;
    acc.id = 1;
    l1.access(acc, 0);
    mem::Packet fill;
    fill.type = mem::MsgType::BusFill;
    fill.lineAddr = 0x1000;
    fill.wts = 1;
    fill.rts = 60000;
    l1.receiveResponse(std::move(fill), 1);
    l1.tick(2);
    events.runUntil(100);

    std::uint64_t id = 100;
    Cycle now = 100;
    for (auto _ : state) {
        acc.id = ++id;
        l1.access(acc, ++now);
        events.runUntil(now + 8);
    }
}
BENCHMARK(BM_GtscL1HitPath);

void
BM_GtscL1HitPathTraced(benchmark::State &state)
{
    // Same datapath as BM_GtscL1HitPath with an obs::Tracer attached:
    // the delta between the two is the cost of event recording, and
    // BM_GtscL1HitPath itself must not move when tracing is compiled
    // in but detached (the trace_ == nullptr guard).
    sim::Config cfg;
    cfg.setInt("gpu.warps_per_sm", 8);
    sim::StatSet stats;
    sim::EventQueue events;
    core::TsDomain domain(cfg, stats);
    core::GtscL1 l1(0, cfg, stats, events, domain, nullptr);
    l1.setSend([](mem::Packet &&) {});
    l1.setLoadDone([](const mem::Access &, const mem::AccessResult &) {});
    l1.setStoreDone([](const mem::Access &, Cycle) {});
    obs::Tracer tracer;
    l1.attachTracer(tracer);

    mem::Access acc;
    acc.lineAddr = 0x1000;
    acc.wordMask = 1;
    acc.warp = 0;
    acc.id = 1;
    l1.access(acc, 0);
    mem::Packet fill;
    fill.type = mem::MsgType::BusFill;
    fill.lineAddr = 0x1000;
    fill.wts = 1;
    fill.rts = 60000;
    l1.receiveResponse(std::move(fill), 1);
    l1.tick(2);
    events.runUntil(100);

    std::uint64_t id = 100;
    Cycle now = 100;
    for (auto _ : state) {
        acc.id = ++id;
        l1.access(acc, ++now);
        events.runUntil(now + 8);
    }
}
BENCHMARK(BM_GtscL1HitPathTraced);

void
BM_TracerRecord(benchmark::State &state)
{
    // Raw cost of one ring-buffer event append.
    obs::Tracer tracer;
    std::uint32_t track = tracer.track("bench");
    Cycle now = 0;
    for (auto _ : state) {
        ++now;
        tracer.record(track, obs::Event{now, 0x1000, 1, 2,
                                        obs::EventKind::L1Hit, 0, 0});
    }
    benchmark::DoNotOptimize(tracer);
}
BENCHMARK(BM_TracerRecord);

void
BM_CrossbarInjectDeliver(benchmark::State &state)
{
    sim::Config cfg;
    sim::StatSet stats;
    noc::Crossbar xbar(8, 8, cfg, stats, "noc.micro");
    xbar.setDeliver([](unsigned, mem::Packet &&) {});
    Cycle now = 0;
    sim::Rng rng(2);
    for (auto _ : state) {
        mem::Packet p;
        p.type = mem::MsgType::BusRd;
        p.sizeBytes = 12;
        xbar.inject(static_cast<unsigned>(rng.below(8)),
                    static_cast<unsigned>(rng.below(8)), std::move(p),
                    now);
        ++now;
        xbar.tick(now + 20);
    }
}
BENCHMARK(BM_CrossbarInjectDeliver);

void
BM_EventQueueSmallCallback(benchmark::State &state)
{
    // Exercises the SmallCallback inline path: a capture this size
    // must never heap-allocate per scheduled event.
    sim::EventQueue events;
    std::uint64_t sink = 0;
    Cycle t = 0;
    for (auto _ : state) {
        ++t;
        events.schedule(t, [&sink, t] { sink += t; });
        events.runUntil(t);
        benchmark::DoNotOptimize(sink);
    }
}
BENCHMARK(BM_EventQueueSmallCallback);

void
BM_EventQueueLargeCallback(benchmark::State &state)
{
    // Captures past the inline buffer fall back to the heap; this is
    // the cost floor the small-callback path is measured against.
    sim::EventQueue events;
    struct Payload
    {
        std::uint64_t words[20];
    };
    Payload payload{};
    payload.words[0] = 1;
    std::uint64_t sink = 0;
    Cycle t = 0;
    for (auto _ : state) {
        ++t;
        events.schedule(t, [&sink, payload] { sink += payload.words[0]; });
        events.runUntil(t);
        benchmark::DoNotOptimize(sink);
    }
}
BENCHMARK(BM_EventQueueLargeCallback);

void
BM_CheckerTsLoad(benchmark::State &state)
{
    harness::CoherenceChecker checker;
    for (Ts w = 1; w <= 64; ++w)
        checker.onStoreTs(0x2000, 0, w * 10, static_cast<unsigned>(w),
                          0, 0);
    sim::Rng rng(3);
    for (auto _ : state) {
        Ts ts = rng.below(640) + 10;
        std::uint32_t expect =
            static_cast<std::uint32_t>(std::min<Ts>(ts / 10, 64));
        checker.onLoadTs(0x2000, 0, ts, expect, 1, 0);
    }
    if (checker.violations() > 0)
        state.SkipWithError("checker reported violations");
}
BENCHMARK(BM_CheckerTsLoad);

void
BM_TimeWheelParkWake(benchmark::State &state)
{
    // Steady-state cost of the active-set scheduler's park/wake
    // round trip (DESIGN.md §9): one member re-arms a few cycles
    // out, pops due, repeat — the per-tick overhead every scheduled
    // component pays. Stays on the preallocated bucket ring; the
    // loop must never touch the allocator.
    sim::TimeWheel wheel(16);
    std::vector<std::uint32_t> due;
    due.reserve(16);
    Cycle now = 0;
    sim::Rng rng(5);
    for (auto _ : state) {
        wheel.arm(static_cast<std::uint32_t>(rng.below(16)),
                  now + 1 + rng.below(8));
        ++now;
        wheel.popDue(now, due);
        benchmark::DoNotOptimize(due.data());
    }
}
BENCHMARK(BM_TimeWheelParkWake);

constexpr unsigned kPickWarps = 48; ///< gpu.warps_per_sm default

void
BM_ReadyMaskPick(benchmark::State &state)
{
    // The SM issue picker after the bitmask refactor: round-robin
    // selection is one findNextWrapOr over the ready|retry words —
    // no per-warp state reads at all. Occupancy mirrors a busy
    // workload (1/4 of warps ready).
    sim::BitMask ready;
    sim::BitMask retry;
    ready.resize(kPickWarps);
    retry.resize(kPickWarps);
    for (unsigned w = 0; w < kPickWarps; w += 4)
        ready.set(w);
    retry.set(kPickWarps - 3);
    unsigned last = 0;
    for (auto _ : state) {
        unsigned start = (last + 1 == kPickWarps) ? 0 : last + 1;
        unsigned pick = sim::findNextWrapOr(ready, retry, start);
        benchmark::DoNotOptimize(pick);
        last = (pick == sim::BitMask::kNpos) ? 0 : pick;
    }
}
BENCHMARK(BM_ReadyMaskPick);

void
BM_ReadyVectorPick(benchmark::State &state)
{
    // The pre-refactor shape: a wrapped linear walk over the per-warp
    // state byte array testing each candidate. The delta against
    // BM_ReadyMaskPick is the payoff of the packed ready masks.
    std::vector<std::uint8_t> stateOf(kPickWarps, 0);
    std::vector<std::uint8_t> memRetry(kPickWarps, 0);
    for (unsigned w = 0; w < kPickWarps; w += 4)
        stateOf[w] = 1; // "Ready"
    memRetry[kPickWarps - 3] = 1;
    unsigned last = 0;
    for (auto _ : state) {
        unsigned pick = kPickWarps;
        for (unsigned i = 1; i <= kPickWarps; ++i) {
            unsigned w = (last + i) % kPickWarps;
            if (stateOf[w] == 1 || memRetry[w]) {
                pick = w;
                break;
            }
        }
        benchmark::DoNotOptimize(pick);
        last = (pick == kPickWarps) ? 0 : pick;
    }
}
BENCHMARK(BM_ReadyVectorPick);

void
BM_CoalescerFastPath(benchmark::State &state)
{
    // Plan decoded once at fetch (outside the loop, as the SM does),
    // then each issue takes the O(1) strided path: two beginLine
    // calls and two mask stores, no per-lane loop.
    gpu::StoreValueSource values;
    gpu::Coalescer coalescer(values);
    auto instr = gpu::WarpInstr::loadStrided(0x1010, 32, 4);
    gpu::CoalescePlan plan = gpu::Coalescer::plan(instr, 32);
    std::vector<mem::Access> out;
    for (auto _ : state) {
        coalescer.coalesce(instr, plan, 32, 0, 0, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_CoalescerFastPath);

void
BM_CoalescerSlowPath(benchmark::State &state)
{
    // The same instruction through the per-lane merge loop (a forced
    // Slow plan — what every issue paid before pre-decoded cursors).
    gpu::StoreValueSource values;
    gpu::Coalescer coalescer(values);
    auto instr = gpu::WarpInstr::loadStrided(0x1010, 32, 4);
    gpu::CoalescePlan slow; // kind == Slow
    std::vector<mem::Access> out;
    for (auto _ : state) {
        coalescer.coalesce(instr, slow, 32, 0, 0, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_CoalescerSlowPath);

void
BM_NocRingPopDue(benchmark::State &state)
{
    // Steady-state crossbar routing round trip after the ring
    // refactor: one bucket append at inject, one drainDue pop when
    // the cycle comes due — flat vectors, no heap sift.
    struct Entry
    {
        std::uint32_t slot;
        std::uint32_t dst;
    };
    noc::ArrivalRing<Entry> ring;
    ring.init(noc::kArrivalRingSpan, 8);
    sim::Rng rng(6);
    Cycle now = 0;
    std::uint64_t delivered = 0;
    for (auto _ : state) {
        ring.push(now, now + 1 + rng.below(16),
                  Entry{static_cast<std::uint32_t>(now & 0xff),
                        static_cast<std::uint32_t>(rng.below(8))});
        ++now;
        ring.drainDue(now, [&](Cycle, const Entry &e) {
            delivered += e.dst;
        });
        benchmark::DoNotOptimize(delivered);
    }
}
BENCHMARK(BM_NocRingPopDue);

void
BM_NocPqPopDue(benchmark::State &state)
{
    // The pre-refactor shape: a binary heap ordered by (arrive, seq)
    // pays a log-factor sift on every push and pop. The delta against
    // BM_NocRingPopDue is the payoff of due-cycle bucketing.
    struct Entry
    {
        Cycle arrive;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t dst;
    };
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.arrive != b.arrive ? a.arrive > b.arrive
                                        : a.seq > b.seq;
        }
    };
    std::priority_queue<Entry, std::vector<Entry>, Later> pq;
    sim::Rng rng(6);
    Cycle now = 0;
    std::uint64_t seq = 0;
    std::uint64_t delivered = 0;
    for (auto _ : state) {
        pq.push(Entry{now + 1 + rng.below(16), seq++,
                      static_cast<std::uint32_t>(now & 0xff),
                      static_cast<std::uint32_t>(rng.below(8))});
        ++now;
        while (!pq.empty() && pq.top().arrive <= now) {
            delivered += pq.top().dst;
            pq.pop();
        }
        benchmark::DoNotOptimize(delivered);
    }
}
BENCHMARK(BM_NocPqPopDue);

} // namespace

BENCHMARK_MAIN();
