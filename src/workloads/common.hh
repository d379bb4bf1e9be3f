/**
 * @file
 * Shared helpers for the synthetic benchmark generators.
 *
 * Each generator reproduces the *memory behaviour* of one of the
 * paper's twelve benchmarks (Section VI-A): footprint, read/write
 * mix, cross-SM sharing, fence density and compute intensity. The
 * address-space layout spreads regions across L2 partitions via the
 * global line interleaving. All randomness is drawn from a seeded
 * generator keyed by (seed, sm, warp), so runs are reproducible.
 */

#ifndef GTSC_WORKLOADS_COMMON_HH_
#define GTSC_WORKLOADS_COMMON_HH_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gpu/kernel.hh"
#include "sim/config.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

namespace gtsc::workloads
{

/** Address-space bases for workload regions (128B-line aligned). */
inline constexpr Addr kSharedBase = 0x10000000;
inline constexpr Addr kFlagBase = 0x20000000;
inline constexpr Addr kAuxBase = 0x30000000;
inline constexpr Addr kPrivateBase = 0x40000000;
inline constexpr Addr kResultBase = 0x50000000;

/** Byte address of line `i` in a region. */
inline Addr
lineAt(Addr base, std::uint64_t i)
{
    return base + i * mem::kLineBytes;
}

/** Byte address of word `i` in a region. */
inline Addr
wordAt(Addr base, std::uint64_t i)
{
    return base + i * mem::kWordBytes;
}

/** Per-warp deterministic RNG. */
inline sim::Rng
warpRng(std::uint64_t seed, unsigned kernel, SmId sm, WarpId warp)
{
    return sim::Rng(seed * 0x9e3779b97f4a7c15ULL +
                    (std::uint64_t{kernel} << 40) +
                    (std::uint64_t{sm} << 20) + warp + 1);
}

/** Scaling knobs shared by all generators. */
struct WlParams
{
    double scale = 1.0;
    std::uint64_t seed = 1;

    static WlParams
    fromConfig(const sim::Config &cfg)
    {
        WlParams p;
        p.scale = cfg.getDouble("wl.scale");
        p.seed = cfg.getUint("wl.seed");
        if (p.scale <= 0.0)
            GTSC_FATAL("config key 'wl.scale' is ", p.scale,
                       ": it must be greater than 0");
        return p;
    }

    /** Scaled iteration count, at least 1; fatal past an unsigned. */
    unsigned
    iters(double base) const
    {
        constexpr double kLimit =
            std::numeric_limits<unsigned>::max() + 1.0;
        double v = base * scale;
        if (v >= kLimit)
            GTSC_FATAL("config key 'wl.scale' is ", scale, ": it scales ",
                       base, " iterations to ", v, ", more than ",
                       std::numeric_limits<unsigned>::max());
        return v < 1.0 ? 1u : static_cast<unsigned>(v);
    }
};

/**
 * Convenience base: workloads that precompute a per-warp trace.
 * Subclasses implement buildTrace().
 */
class TraceWorkload : public gpu::Workload
{
  public:
    explicit TraceWorkload(const sim::Config &cfg)
        : params_(WlParams::fromConfig(cfg))
    {}

    std::unique_ptr<gpu::WarpProgram>
    makeProgram(unsigned kernel, SmId sm, WarpId warp,
                const gpu::GpuParams &gpu) override
    {
        return std::make_unique<gpu::TraceProgram>(
            buildTrace(kernel, sm, warp, gpu));
    }

  protected:
    virtual std::vector<gpu::WarpInstr>
    buildTrace(unsigned kernel, SmId sm, WarpId warp,
               const gpu::GpuParams &gpu) = 0;

    WlParams params_;
};

} // namespace gtsc::workloads

#endif // GTSC_WORKLOADS_COMMON_HH_
