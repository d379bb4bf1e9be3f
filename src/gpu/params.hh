/**
 * @file
 * Top-level GPU configuration parameters.
 *
 * Defaults mirror the paper's evaluated machine (Section VI-A):
 * 16 SMs, 48 warps/SM of 32 threads, 16KB L1 per SM, 8 x 128KB L2
 * partitions. The test/bench harness scales these down to keep runs
 * laptop-fast; every knob is a config key.
 */

#ifndef GTSC_GPU_PARAMS_HH_
#define GTSC_GPU_PARAMS_HH_

#include <string>

#include "sim/config.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace gtsc::gpu
{

/**
 * Memory consistency model implemented on top of the protocol.
 *
 * SC and RC are the paper's two models; TSO is the in-between model
 * the paper mentions (Section II-B) and Tardis 2.0 implements:
 * stores drain in order through a one-deep store buffer without
 * blocking the warp, loads bypass non-aliasing pending stores, and
 * an aliasing load waits for the buffer to drain (no store-to-load
 * forwarding hardware is modeled).
 */
enum class Consistency
{
    SC,  ///< sequential consistency: blocking stores, 1 op/warp
    TSO, ///< total store order: in-order non-blocking stores
    RC,  ///< release consistency: non-blocking stores + fences
};

inline const char *
consistencyName(Consistency c)
{
    switch (c) {
      case Consistency::SC:
        return "SC";
      case Consistency::TSO:
        return "TSO";
      case Consistency::RC:
        return "RC";
    }
    return "?";
}

inline Consistency
consistencyFromString(const std::string &s)
{
    if (s == "sc" || s == "SC")
        return Consistency::SC;
    if (s == "tso" || s == "TSO")
        return Consistency::TSO;
    if (s == "rc" || s == "RC")
        return Consistency::RC;
    GTSC_FATAL("unknown consistency model '", s,
               "' (want sc|tso|rc)");
}

/** Maximum SIMT width supported by the model. */
inline constexpr unsigned kMaxWarpSize = 32;

struct GpuParams
{
    unsigned numSms = 16;
    unsigned warpsPerSm = 48;
    unsigned warpSize = 32;
    unsigned numPartitions = 8;
    Consistency consistency = Consistency::RC;

    static GpuParams
    fromConfig(const sim::Config &cfg)
    {
        GpuParams p;
        p.numSms = cfg.getUnsigned("gpu.num_sms");
        p.warpsPerSm = cfg.getUnsigned("gpu.warps_per_sm");
        p.warpSize = cfg.getUnsigned("gpu.warp_size");
        p.numPartitions = cfg.getUnsigned("gpu.num_partitions");
        p.consistency = consistencyFromString(
            cfg.getString("gpu.consistency"));
        if (p.warpSize == 0 || p.warpSize > kMaxWarpSize)
            GTSC_FATAL("gpu.warp_size must be in [1,", kMaxWarpSize, "]");
        if (p.numSms == 0 || p.warpsPerSm == 0 || p.numPartitions == 0)
            GTSC_FATAL("gpu dimensions must be > 0");
        return p;
    }

    unsigned totalWarps() const { return numSms * warpsPerSm; }
};

} // namespace gtsc::gpu

#endif // GTSC_GPU_PARAMS_HH_
