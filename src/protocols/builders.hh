/**
 * @file
 * ProtocolBuilders for the baseline protocols and a name-based
 * registry covering every protocol in the repository (including
 * G-TSC, so harness code can instantiate any configuration from a
 * string): "gtsc", "tc", "nol1" (BL), "noncoh" (baseline w/ L1).
 */

#ifndef GTSC_PROTOCOLS_BUILDERS_HH_
#define GTSC_PROTOCOLS_BUILDERS_HH_

#include <memory>
#include <string>

#include "gpu/protocol_builder.hh"
#include "protocols/no_l1.hh"
#include "protocols/noncoh_l1.hh"
#include "protocols/simple_l2.hh"
#include "protocols/tc_l1.hh"
#include "protocols/tc_l2.hh"

namespace gtsc::protocols
{

/** Temporal Coherence: TC-Strong under SC, TC-Weak under TSO and RC. */
class TcBuilder : public gpu::ProtocolBuilder
{
  public:
    std::string name() const override { return "tc"; }

    void
    prepare(const sim::Config &cfg, sim::StatSet &stats,
            const gpu::GpuParams &params) override
    {
        (void)cfg;
        (void)stats;
        strong_ = params.consistency == gpu::Consistency::SC;
    }

    std::unique_ptr<mem::L1Controller>
    makeL1(SmId sm, const sim::Config &cfg, sim::StatSet &stats,
           sim::EventQueue &events, mem::CoherenceProbe *probe) override
    {
        return std::make_unique<TcL1>(sm, cfg, stats, events, probe);
    }

    std::unique_ptr<mem::L2Controller>
    makeL2(PartitionId part, const sim::Config &cfg, sim::StatSet &stats,
           sim::EventQueue &events, mem::DramChannel &dram,
           mem::MainMemory &memory, mem::CoherenceProbe *probe) override
    {
        return std::make_unique<TcL2>(part, cfg, stats, events, dram,
                                      memory, strong_, probe);
    }

  private:
    bool strong_ = false;
};

/** BL: coherence by disabling the private caches. */
class NoL1Builder : public gpu::ProtocolBuilder
{
  public:
    std::string name() const override { return "nol1"; }
    bool usesL1() const override { return false; }

    std::unique_ptr<mem::L1Controller>
    makeL1(SmId sm, const sim::Config &cfg, sim::StatSet &stats,
           sim::EventQueue &events, mem::CoherenceProbe *probe) override
    {
        return std::make_unique<NoL1>(sm, cfg, stats, events, probe);
    }

    std::unique_ptr<mem::L2Controller>
    makeL2(PartitionId part, const sim::Config &cfg, sim::StatSet &stats,
           sim::EventQueue &events, mem::DramChannel &dram,
           mem::MainMemory &memory, mem::CoherenceProbe *probe) override
    {
        return std::make_unique<SimpleL2>(part, cfg, stats, events, dram,
                                          memory, probe);
    }
};

/** Baseline W/L1: conventional non-coherent private caches. */
class NonCohBuilder : public gpu::ProtocolBuilder
{
  public:
    std::string name() const override { return "noncoh"; }

    std::unique_ptr<mem::L1Controller>
    makeL1(SmId sm, const sim::Config &cfg, sim::StatSet &stats,
           sim::EventQueue &events, mem::CoherenceProbe *probe) override
    {
        return std::make_unique<NonCohL1>(sm, cfg, stats, events, probe);
    }

    std::unique_ptr<mem::L2Controller>
    makeL2(PartitionId part, const sim::Config &cfg, sim::StatSet &stats,
           sim::EventQueue &events, mem::DramChannel &dram,
           mem::MainMemory &memory, mem::CoherenceProbe *probe) override
    {
        return std::make_unique<SimpleL2>(part, cfg, stats, events, dram,
                                          memory, probe);
    }
};

/**
 * Instantiate a protocol builder by name ("gtsc", "tc", "nol1",
 * "noncoh"). Fatal on unknown names.
 */
std::unique_ptr<gpu::ProtocolBuilder>
makeProtocol(const std::string &name);

} // namespace gtsc::protocols

#endif // GTSC_PROTOCOLS_BUILDERS_HH_
