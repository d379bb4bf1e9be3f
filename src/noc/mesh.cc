#include "noc/mesh.hh"

#include <algorithm>
#include <cmath>

#include "noc/crossbar.hh"
#include "noc/obs_hooks.hh"
#include "sim/log.hh"

namespace gtsc::noc
{

Mesh::Mesh(unsigned num_src, unsigned num_dst, bool src_are_sms,
           const sim::Config &cfg, sim::StatSet &stats,
           const std::string &name)
    : stats_(stats), name_(name), numSrc_(num_src), numDst_(num_dst),
      srcAreSms_(src_are_sms)
{
    bytesPerCycle_ = cfg.getUint("noc.bytes_per_cycle");
    hopLatency_ = cfg.getUint("noc.mesh_hop_latency");
    if (bytesPerCycle_ == 0)
        GTSC_FATAL("noc.bytes_per_cycle must be > 0");

    unsigned total = num_src + num_dst;
    width_ = static_cast<unsigned>(
        std::ceil(std::sqrt(static_cast<double>(total))));
    if (width_ == 0)
        width_ = 1;
    height_ = (total + width_ - 1) / width_;

    dstFree_.assign(numDst_, 0);
    linkFree_.assign(static_cast<std::size_t>(width_) * height_ * 4, 0);
    bytesTotal_ = &stats_.counter(name_ + ".bytes");
    packetsTotal_ = &stats_.counter(name_ + ".packets");
    for (unsigned t = 0; t < mem::kNumMsgTypes; ++t) {
        const char *tn = mem::msgTypeName(static_cast<mem::MsgType>(t));
        bytesByType_[t] = &stats_.counter(name_ + ".bytes." + tn);
        packetsByType_[t] = &stats_.counter(name_ + ".packets." + tn);
    }
    latency_ = &stats_.distribution(name_ + ".latency");
    hops_ = &stats_.distribution(name_ + ".hops");
}

unsigned
Mesh::srcNode(unsigned src) const
{
    // SM nodes occupy grid slots [0, numSms); partitions follow.
    // The request network has SM sources; the response network has
    // partition sources — placement is identical either way.
    return srcAreSms_ ? src : numDst_ + src;
}

unsigned
Mesh::dstNode(unsigned dst) const
{
    return srcAreSms_ ? numSrc_ + dst : dst;
}

unsigned
Mesh::hops(unsigned src, unsigned dst) const
{
    unsigned a = srcNode(src);
    unsigned b = dstNode(dst);
    int ax = static_cast<int>(a % width_);
    int ay = static_cast<int>(a / width_);
    int bx = static_cast<int>(b % width_);
    int by = static_cast<int>(b / width_);
    return static_cast<unsigned>(std::abs(ax - bx) +
                                 std::abs(ay - by));
}

Cycle
Mesh::txCycles(std::uint32_t bytes) const
{
    return (bytes + bytesPerCycle_ - 1) / bytesPerCycle_;
}

void
Mesh::attachTracer(obs::Tracer &tracer)
{
    trace_ = &tracer;
    track_ = tracer.track(name_);
}

void
Mesh::attachTranscript(obs::Transcript &transcript, bool response)
{
    transcript_ = &transcript;
    transcriptResponse_ = response;
}

void
Mesh::inject(unsigned src, unsigned dst, mem::Packet &&pkt, Cycle now)
{
    GTSC_ASSERT(src < numSrc_ && dst < numDst_,
                "mesh port out of range src=", src, " dst=", dst);
    GTSC_ASSERT(pkt.sizeBytes > 0, "packet injected with zero size");

    pkt.injectedAt = now;
    *bytesTotal_ += pkt.sizeBytes;
    *packetsTotal_ += 1;
    *bytesByType_[static_cast<unsigned>(pkt.type)] += pkt.sizeBytes;
    *packetsByType_[static_cast<unsigned>(pkt.type)] += 1;

    // XY route: walk X first, then Y, serializing on each link.
    unsigned node = srcNode(src);
    unsigned target = dstNode(dst);
    Cycle tx = txCycles(pkt.sizeBytes);
    Cycle t = now;
    unsigned hop_count = 0;

    auto traverse = [&](unsigned next) {
        Cycle depart = t;
        Cycle &link_free = linkFree_[linkIndex(node, next)];
        if (link_free > depart)
            depart = link_free;
        link_free = depart + tx;
        t = depart + tx + hopLatency_;
        node = next;
        ++hop_count;
    };

    int x = static_cast<int>(node % width_);
    int y = static_cast<int>(node / width_);
    int txx = static_cast<int>(target % width_);
    int tyy = static_cast<int>(target / width_);
    while (x != txx) {
        x += (txx > x) ? 1 : -1;
        traverse(static_cast<unsigned>(y * static_cast<int>(width_) + x));
    }
    while (y != tyy) {
        y += (tyy > y) ? 1 : -1;
        traverse(static_cast<unsigned>(y * static_cast<int>(width_) + x));
    }

    hops_->sample(static_cast<double>(hop_count));
    if (trace_) {
        recordNocEvent(*trace_, track_, obs::EventKind::NocInject, pkt,
                       src, dst, now, pkt.sizeBytes);
    }
    std::uint32_t slot = pool_.acquire();
    pool_[slot] = std::move(pkt);
    heap_.push(InFlight{t, seq_++, slot, dst});
    wake(nextWorkCycle(now));
}

Cycle
Mesh::nextWorkCycle(Cycle now) const
{
    // Arrival times are final at inject; a packet that finds its
    // ejection port busy is re-queued at the next cycle, which keeps
    // this horizon exact during port back-pressure.
    if (heap_.empty())
        return kCycleNever;
    return std::max(heap_.top().arrive, now + 1);
}

void
Mesh::tick(Cycle now)
{
    // Deliver every arrived packet whose ejection port is free, in
    // (arrive, seq) order; a busy port only defers its own packets
    // (re-queued at now + 1), not other destinations'. Deliveries
    // that re-inject land after now, so this drain never sees them.
    while (!heap_.empty() && heap_.top().arrive <= now) {
        InFlight item = heap_.top();
        heap_.pop();
        if (dstFree_[item.dst] > now) {
            item.arrive = now + 1;
            heap_.push(item);
            continue;
        }
        mem::Packet pkt = std::move(pool_[item.slot]);
        pool_.release(item.slot);
        dstFree_[item.dst] = now + txCycles(pkt.sizeBytes);
        latency_->sample(static_cast<double>(now - pkt.injectedAt));
        if (trace_) {
            recordNocEvent(*trace_, track_, obs::EventKind::NocDeliver,
                           pkt, pkt.src, item.dst, now,
                           now - pkt.injectedAt);
        }
        if (transcript_) {
            logTranscript(*transcript_, pkt, item.dst,
                          transcriptResponse_, now);
        }
        deliver_(item.dst, std::move(pkt));
    }
}

std::unique_ptr<Network>
makeNetwork(unsigned num_src, unsigned num_dst, bool src_are_sms,
            const sim::Config &cfg, sim::StatSet &stats,
            const std::string &name)
{
    std::string topo = cfg.getString("noc.topology");
    if (topo == "xbar" || topo == "crossbar")
        return std::make_unique<Crossbar>(num_src, num_dst, cfg, stats,
                                          name);
    if (topo == "mesh")
        return std::make_unique<Mesh>(num_src, num_dst, src_are_sms,
                                      cfg, stats, name);
    GTSC_FATAL("unknown noc.topology '", topo, "' (want xbar|mesh)");
}

} // namespace gtsc::noc
