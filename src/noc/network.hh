/**
 * @file
 * Abstract interconnect interface. Two implementations ship: the
 * default Crossbar (GPGPU-Sim-style, what the paper models) and a
 * 2D Mesh with XY routing (topology ablation). Select with
 * `noc.topology = xbar | mesh`.
 */

#ifndef GTSC_NOC_NETWORK_HH_
#define GTSC_NOC_NETWORK_HH_

#include <memory>
#include <string>

#include "mem/packet.hh"
#include "sim/config.hh"
#include "sim/small_function.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gtsc::obs
{
class Tracer;
class Transcript;
}

namespace gtsc::noc
{

class Network
{
  public:
    using DeliverFn =
        sim::SmallFunction<void(unsigned dst, mem::Packet &&)>;
    /** Re-arm this parked network (wake contract,
     *  mem/controllers.hh). Implementations call it from inject()
     *  with their post-inject nextWorkCycle(), the only point a
     *  quiescent network acquires tick() work. */
    using WakeFn = sim::SmallFunction<void(Cycle)>;

    virtual ~Network() = default;

    virtual void setDeliver(DeliverFn fn) = 0;

    void setWakeHook(WakeFn fn) { wake_ = std::move(fn); }

    /** Inject a packet at source port `src` bound for `dst`. */
    virtual void inject(unsigned src, unsigned dst, mem::Packet &&pkt,
                        Cycle now) = 0;

    /** Advance: eject packets whose delivery time has been reached. */
    virtual void tick(Cycle now) = 0;

    /**
     * Earliest future cycle at which tick() could eject a packet
     * (kCycleNever when nothing is in flight); must honour the
     * horizon contract in mem/controllers.hh. The default never
     * skips.
     */
    virtual Cycle nextWorkCycle(Cycle now) const { return now + 1; }

    virtual bool quiescent() const = 0;
    virtual std::uint64_t totalBytes() const = 0;

    /**
     * Batch locally windowed counters into the StatSet (no-op for
     * networks that count straight into it). Anything reading the
     * network's stats by name mid-run must be preceded by a flush;
     * GpuSystem owns those call sites.
     */
    virtual void flushStatWindow() {}

    /** Opt into inject/deliver event tracing (no-op by default). */
    virtual void attachTracer(obs::Tracer &tracer) { (void)tracer; }

    /**
     * Log every delivered coherence message into a protocol
     * transcript. Delivery is the one point all protocol traffic
     * funnels through, so the per-line history is complete and its
     * order is identical with fast-forward on or off. `response`
     * tells the network whether pkt.src (false) or pkt.part (true)
     * names the sender.
     */
    virtual void
    attachTranscript(obs::Transcript &transcript, bool response)
    {
        (void)transcript;
        (void)response;
    }

  protected:
    /** Notify the scheduler this network has tick() work at `when`. */
    void
    wake(Cycle when)
    {
        if (wake_)
            wake_(when);
    }

    WakeFn wake_;
};

/**
 * Build a network from `noc.topology`.
 *
 * @param num_src injection ports, @param num_dst ejection ports.
 * @param src_are_sms true for the request network (SMs inject,
 *        partitions eject); used by the mesh to place nodes so both
 *        directions agree on coordinates.
 */
std::unique_ptr<Network> makeNetwork(unsigned num_src, unsigned num_dst,
                                     bool src_are_sms,
                                     const sim::Config &cfg,
                                     sim::StatSet &stats,
                                     const std::string &name);

} // namespace gtsc::noc

#endif // GTSC_NOC_NETWORK_HH_
