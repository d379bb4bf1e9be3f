/**
 * @file
 * Educational walkthrough of the paper's Figure 9: two SMs exchange
 * locations X and Y under G-TSC, and every protocol message and
 * timestamp assignment is printed step by step. SM0 executes
 * {ld X; st Y; ld X}, SM1 executes {ld Y; st X; ld Y}; the final
 * logical order is A1 -> B1 -> B2 -> B3 -> A2 -> A3 even though the
 * operations interleave differently in physical time.
 *
 * Usage: protocol_trace [gtsc.lease=N]
 */

#include <cstdio>
#include <deque>
#include <exception>

#include "core/gtsc_builder.hh"
#include "core/gtsc_l1.hh"
#include "core/gtsc_l2.hh"

using namespace gtsc;

namespace
{

constexpr Addr kX = 0x000;
constexpr Addr kY = 0x080;

const char *
addrName(Addr a)
{
    return a == kX ? "X" : "Y";
}

struct TraceRig
{
    sim::Config cfg;
    sim::StatSet stats;
    sim::EventQueue events;
    mem::MainMemory memory;
    std::unique_ptr<core::TsDomain> domain;
    std::unique_ptr<mem::DramChannel> dram;
    std::unique_ptr<core::GtscL2> l2;
    std::vector<std::unique_ptr<core::GtscL1>> l1s;
    Cycle now = 0;
    std::uint64_t nextId = 1;

    explicit TraceRig(int argc, char **argv)
    {
        cfg.setInt("gpu.num_partitions", 1);
        cfg.setInt("gpu.warps_per_sm", 1);
        cfg.setInt("gtsc.lease", 5);
        cfg.setInt("l2.access_latency", 1);
        cfg.setInt("l1.hit_latency", 1);
        cfg.parseOverrides(std::vector<std::string>(argv + 1, argv + argc));

        domain = std::make_unique<core::TsDomain>(cfg, stats);
        dram = std::make_unique<mem::DramChannel>(cfg, stats, events,
                                                  memory, "dram");
        l2 = std::make_unique<core::GtscL2>(0, cfg, stats, events,
                                            *dram, memory, *domain,
                                            nullptr);
        l2->setSend([this](mem::Packet &&p) {
            std::printf("    L2 -> SM%u: %-8s %s wts=%llu rts=%llu\n",
                        p.src, mem::msgTypeName(p.type),
                        addrName(p.lineAddr),
                        static_cast<unsigned long long>(p.wts),
                        static_cast<unsigned long long>(p.rts));
            l1s[p.src]->receiveResponse(std::move(p), now);
        });
        for (SmId s = 0; s < 2; ++s) {
            l1s.push_back(std::make_unique<core::GtscL1>(
                s, cfg, stats, events, *domain, nullptr));
            core::GtscL1 *l1 = l1s.back().get();
            l1->setSend([this, s](mem::Packet &&p) {
                std::printf(
                    "    SM%u -> L2: %-8s %s wts=%llu warp_ts=%llu\n",
                    s, mem::msgTypeName(p.type), addrName(p.lineAddr),
                    static_cast<unsigned long long>(p.wts),
                    static_cast<unsigned long long>(p.warpTs));
                l2->receiveRequest(std::move(p), now);
            });
            l1->setLoadDone([s](const mem::Access &a,
                                const mem::AccessResult &r) {
                std::printf("    SM%u load %s done: value=%u at "
                            "logical ts %llu%s\n",
                            s, addrName(a.lineAddr), r.data.word(0),
                            static_cast<unsigned long long>(r.loadTs),
                            r.l1Hit ? " (L1 hit)" : "");
            });
            l1->setStoreDone([s](const mem::Access &a, Cycle) {
                std::printf("    SM%u store %s globally performed\n",
                            s, addrName(a.lineAddr));
            });
        }
    }

    void
    settle(unsigned cycles = 400)
    {
        for (unsigned i = 0; i < cycles; ++i) {
            ++now;
            events.runUntil(now);
            l2->tick(now);
            for (auto &l1 : l1s)
                l1->tick(now);
            dram->tick(now);
        }
    }

    void
    op(SmId sm, bool is_store, Addr line, std::uint32_t value,
       const char *label)
    {
        std::printf("%s: SM%u %s %s  [warp_ts=%llu]\n", label, sm,
                    is_store ? "st" : "ld", addrName(line),
                    static_cast<unsigned long long>(l1s[sm]->warpTs(0)));
        mem::Access a;
        a.isStore = is_store;
        a.lineAddr = line;
        a.wordMask = 1;
        a.sm = sm;
        a.warp = 0;
        a.id = nextId++;
        if (is_store)
            a.storeData.setWord(0, value);
        l1s[sm]->access(a, now);
        settle();
        std::printf("    => warp_ts now %llu, mem_ts %llu\n\n",
                    static_cast<unsigned long long>(l1s[sm]->warpTs(0)),
                    static_cast<unsigned long long>(l2->memTs()));
    }
};

int
run(int argc, char **argv)
{
    std::printf("G-TSC protocol walkthrough: the paper's Figure 9\n");
    std::printf("SM0: ld X; st Y; ld X      SM1: ld Y; st X; ld Y\n\n");

    TraceRig rig(argc, argv);

    rig.op(0, false, kX, 0, "A1"); // ld X -> fill [1, 1+lease]
    rig.op(1, false, kY, 0, "B1"); // ld Y -> fill
    rig.op(0, true, kY, 7, "A2");  // st Y -> wts = rts(Y)+1
    rig.op(1, true, kX, 8, "B2");  // st X -> wts = rts(X)+1
    rig.op(0, false, kX, 0, "A3"); // ld X: warp_ts beyond lease ->
                                   // renewal; data changed -> fill
    rig.op(1, false, kY, 0, "B3"); // ld Y: same on the other side

    std::printf(
        "Timestamp order of the six operations: A1 -> B1 -> B2 -> "
        "B3 -> A2 -> A3\n"
        "(writes were logically scheduled after every outstanding "
        "read lease\nwithout stalling — the key G-TSC property).\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "protocol_trace: %s\n", e.what());
        return 2;
    }
}
