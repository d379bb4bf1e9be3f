#include "energy/energy_model.hh"

namespace gtsc::energy
{

EnergyModel::EnergyModel(const sim::Config &cfg)
{
    smActivePj_ = cfg.getDouble("energy.sm_active_pj");
    smIdlePj_ = cfg.getDouble("energy.sm_idle_pj");
    instrPj_ = cfg.getDouble("energy.instr_pj");
    l1TagPj_ = cfg.getDouble("energy.l1_tag_pj");
    l1DataPj_ = cfg.getDouble("energy.l1_data_pj");
    l1MetaGtscPj_ = cfg.getDouble("energy.l1_meta_gtsc_pj");
    l1MetaTcPj_ = cfg.getDouble("energy.l1_meta_tc_pj");
    l2AccessPj_ = cfg.getDouble("energy.l2_access_pj");
    nocBytePj_ = cfg.getDouble("energy.noc_byte_pj");
    dramAccessPj_ = cfg.getDouble("energy.dram_access_pj");
    l1StaticPj_ = cfg.getDouble("energy.l1_static_pj_cycle");
    l2StaticPj_ = cfg.getDouble("energy.l2_static_pj_cycle");
    nocStaticPj_ = cfg.getDouble("energy.noc_static_pj_cycle");
    dramStaticPj_ = cfg.getDouble("energy.dram_static_pj_cycle");
}

EnergyBreakdown
EnergyModel::compute(const sim::StatSet &stats,
                     const std::string &protocol,
                     unsigned num_sms) const
{
    constexpr double kPjToJ = 1e-12;
    EnergyBreakdown e;
    double cycles = static_cast<double>(stats.get("gpu.cycles"));

    // Core: active SM-cycles burn full power, everything else idles.
    double active = static_cast<double>(stats.get("sm.active_cycles"));
    double all_sm_cycles = cycles * num_sms;
    double idle_like = all_sm_cycles > active ? all_sm_cycles - active : 0;
    e.core = (active * smActivePj_ + idle_like * smIdlePj_ +
              static_cast<double>(stats.get("sm.instructions")) *
                  instrPj_) *
             kPjToJ;

    // L1: tag probes, data array, per-access coherence metadata.
    double meta_pj = 0.0;
    if (protocol == "gtsc")
        meta_pj = l1MetaGtscPj_;
    else if (protocol == "tc")
        meta_pj = l1MetaTcPj_;
    double tag = static_cast<double>(stats.get("l1.tag_accesses"));
    double l1_data = static_cast<double>(stats.get("l1.data_reads") +
                                         stats.get("l1.data_writes"));
    bool has_l1 = tag > 0;
    e.l1 = (tag * (l1TagPj_ + meta_pj) + l1_data * l1DataPj_ +
            (has_l1 ? cycles * num_sms * l1StaticPj_ : 0.0)) *
           kPjToJ;

    e.l2 = (static_cast<double>(stats.get("l2.accesses")) * l2AccessPj_ +
            cycles * l2StaticPj_) *
           kPjToJ;

    double noc_bytes = static_cast<double>(stats.get("noc.req.bytes") +
                                           stats.get("noc.resp.bytes"));
    e.noc = (noc_bytes * nocBytePj_ + cycles * nocStaticPj_) * kPjToJ;

    double dram_acc = static_cast<double>(stats.get("dram.reads") +
                                          stats.get("dram.writes"));
    e.dram = (dram_acc * dramAccessPj_ + cycles * dramStaticPj_) * kPjToJ;

    return e;
}

} // namespace gtsc::energy
