#include "harness/report.hh"

#include <fstream>
#include <sstream>

#include "sim/log.hh"

namespace gtsc::harness
{

std::string
csvHeader()
{
    return "workload,protocol,consistency,cycles,instructions,"
           "active_cycles,mem_stall_cycles,l1_hits,l1_miss_cold,"
           "l1_miss_expired,renewals_sent,l2_accesses,dram_accesses,"
           "noc_bytes,noc_packets,avg_noc_latency,noc_latency_stddev,"
           "noc_latency_p50,noc_latency_p99,ts_resets,"
           "spin_retries,energy_core_j,energy_l1_j,energy_l2_j,"
           "energy_noc_j,energy_dram_j,energy_total_j,"
           "checker_violations,loads_checked,verified";
}

std::string
csvRow(const RunResult &r)
{
    std::ostringstream oss;
    oss << r.workload << ',' << r.protocol << ',' << r.consistency
        << ',' << r.cycles << ',' << r.instructions << ','
        << r.activeCycles << ',' << r.memStallCycles << ',' << r.l1Hits
        << ',' << r.l1MissCold << ',' << r.l1MissExpired << ','
        << r.renewalsSent << ',' << r.l2Accesses << ','
        << r.dramAccesses << ',' << r.nocBytes << ',' << r.nocPackets
        << ',' << r.avgNocLatency << ',' << r.nocLatencyStddev << ','
        << r.nocLatencyP50 << ',' << r.nocLatencyP99 << ','
        << r.tsResets << ','
        << r.spinRetries << ',' << r.energy.core << ',' << r.energy.l1
        << ',' << r.energy.l2 << ',' << r.energy.noc << ','
        << r.energy.dram << ',' << r.energy.total() << ','
        << r.checkerViolations << ',' << r.loadsChecked << ','
        << (r.verified ? "true" : "false");
    return oss.str();
}

void
writeCsv(const std::string &path, const std::vector<RunResult> &results)
{
    std::ofstream out(path);
    if (!out)
        GTSC_FATAL("cannot open '", path, "' for writing");
    out << csvHeader() << "\n";
    for (const auto &r : results)
        out << csvRow(r) << "\n";
    if (!out)
        GTSC_FATAL("write to '", path, "' failed");
}

std::string
toJson(const RunResult &r)
{
    std::ostringstream oss;
    oss << "{\"workload\":\"" << r.workload << "\",\"protocol\":\""
        << r.protocol << "\",\"consistency\":\"" << r.consistency
        << "\",\"cycles\":" << r.cycles
        << ",\"instructions\":" << r.instructions
        << ",\"active_cycles\":" << r.activeCycles
        << ",\"mem_stall_cycles\":" << r.memStallCycles
        << ",\"l1_hits\":" << r.l1Hits
        << ",\"l1_miss_cold\":" << r.l1MissCold
        << ",\"l1_miss_expired\":" << r.l1MissExpired
        << ",\"renewals_sent\":" << r.renewalsSent
        << ",\"l2_accesses\":" << r.l2Accesses
        << ",\"dram_accesses\":" << r.dramAccesses
        << ",\"noc_bytes\":" << r.nocBytes
        << ",\"noc_packets\":" << r.nocPackets
        << ",\"avg_noc_latency\":" << r.avgNocLatency
        << ",\"noc_latency_stddev\":" << r.nocLatencyStddev
        << ",\"noc_latency_p50\":" << r.nocLatencyP50
        << ",\"noc_latency_p99\":" << r.nocLatencyP99
        << ",\"ts_resets\":" << r.tsResets
        << ",\"spin_retries\":" << r.spinRetries
        << ",\"energy_total_j\":" << r.energy.total()
        << ",\"checker_violations\":" << r.checkerViolations
        << ",\"loads_checked\":" << r.loadsChecked
        << ",\"verified\":" << (r.verified ? "true" : "false") << "}";
    return oss.str();
}

void
writeJson(const std::string &path,
          const std::vector<RunResult> &results)
{
    std::ofstream out(path);
    if (!out)
        GTSC_FATAL("cannot open '", path, "' for writing");
    out << "[\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        out << "  " << toJson(results[i])
            << (i + 1 < results.size() ? ",\n" : "\n");
    }
    out << "]\n";
    if (!out)
        GTSC_FATAL("write to '", path, "' failed");
}

std::string
summaryLine(const RunResult &r)
{
    std::ostringstream oss;
    double probes = static_cast<double>(r.l1Hits + r.l1MissCold +
                                        r.l1MissExpired);
    oss << r.workload << "/" << r.protocol << "/" << r.consistency
        << ": " << r.cycles << " cycles, " << r.instructions
        << " instrs";
    if (probes > 0) {
        oss << ", L1 hit "
            << static_cast<int>(100.0 * r.l1Hits / probes + 0.5) << "%";
    }
    oss << ", " << r.nocBytes / 1024 << " KB NoC, "
        << r.energy.total() * 1e6 << " uJ";
    if (r.nocLatencyP99 > 0) {
        oss << ", NoC lat p50/p99 " << r.nocLatencyP50 << "/"
            << r.nocLatencyP99 << " (sd " << r.nocLatencyStddev << ")";
    }
    if (r.checkerViolations > 0)
        oss << ", " << r.checkerViolations << " VIOLATIONS";
    return oss.str();
}

} // namespace gtsc::harness
