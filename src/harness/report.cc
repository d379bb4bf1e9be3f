#include "harness/report.hh"

#include <fstream>
#include <sstream>
#include <type_traits>

#include "sim/log.hh"
#include "sim/text.hh"

namespace gtsc::harness
{

namespace
{

std::uint64_t
l1Probes(const RunResult &r)
{
    return r.stats.get("l1.hits") + r.stats.get("l1.miss_cold") +
           r.stats.get("l1.miss_expired");
}

/**
 * Call `put(name, value)` for every reported column of `r`, in CSV
 * order; JSON prints the same columns under the same names. Text
 * values are std::string, the rest print with <<.
 */
template <typename Put>
void
forEachColumn(const RunResult &r, Put &&put)
{
    const sim::StatSet &s = r.stats;
    sim::Distribution lat = nocLatency(r);
    put("workload", r.workload);
    put("protocol", r.protocol);
    put("consistency", r.consistency);
    put("cycles", r.cycles);
    put("instructions", s.get("sm.instructions"));
    put("active_cycles", s.get("sm.active_cycles"));
    put("mem_stall_cycles", s.get("sm.mem_stall_cycles"));
    put("l1_hits", s.get("l1.hits"));
    put("l1_miss_cold", s.get("l1.miss_cold"));
    put("l1_miss_expired", s.get("l1.miss_expired"));
    put("renewals_sent", s.get("l1.renewals_sent"));
    put("l2_accesses", s.get("l2.accesses"));
    put("dram_accesses", dramAccesses(r));
    put("noc_bytes", nocBytes(r));
    put("noc_packets", nocPackets(r));
    put("avg_noc_latency", lat.mean());
    put("noc_latency_stddev", lat.stddev());
    put("noc_latency_p50", lat.p50());
    put("noc_latency_p99", lat.p99());
    put("ts_resets", s.get("gtsc.ts_resets"));
    put("spin_retries", s.get("sm.spin_retries"));
    put("energy_core_j", r.energy.core);
    put("energy_l1_j", r.energy.l1);
    put("energy_l2_j", r.energy.l2);
    put("energy_noc_j", r.energy.noc);
    put("energy_dram_j", r.energy.dram);
    put("energy_total_j", r.energy.total());
    put("checker_violations", r.checkerViolations);
    put("loads_checked", r.loadsChecked);
    put("verified", r.verified);
}

/** A CSV field per RFC 4180: quoted, with quotes doubled, when it
 *  holds a comma, a quote or a line break; verbatim otherwise. */
std::string
csvField(const std::string &text)
{
    if (text.find_first_of(",\"\r\n") == std::string::npos)
        return text;
    std::string out = "\"";
    for (char c : text) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::uint64_t
nocBytes(const RunResult &r)
{
    return r.stats.get("noc.req.bytes") + r.stats.get("noc.resp.bytes");
}

std::uint64_t
nocPackets(const RunResult &r)
{
    return r.stats.get("noc.req.packets") +
           r.stats.get("noc.resp.packets");
}

std::uint64_t
dramAccesses(const RunResult &r)
{
    return r.stats.get("dram.reads") + r.stats.get("dram.writes");
}

sim::Distribution
nocLatency(const RunResult &r)
{
    sim::Distribution d = r.stats.getDistribution("noc.req.latency");
    d.merge(r.stats.getDistribution("noc.resp.latency"));
    return d;
}

double
l1HitPercent(const RunResult &r)
{
    double probes = static_cast<double>(l1Probes(r));
    return probes > 0 ? 100.0 * r.stats.get("l1.hits") / probes : 0.0;
}

std::string
csvHeader()
{
    std::string out;
    forEachColumn(RunResult(), [&out](const char *name, const auto &) {
        out.append(out.empty() ? "" : ",").append(name);
    });
    return out;
}

std::string
csvRow(const RunResult &r)
{
    std::ostringstream oss;
    oss << std::boolalpha;
    const char *sep = "";
    forEachColumn(r, [&](const char *, const auto &value) {
        oss << sep;
        if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                     std::string>)
            oss << csvField(value);
        else
            oss << value;
        sep = ",";
    });
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
    oss << std::boolalpha;
    char sep = '{';
    forEachColumn(r, [&](const char *name, const auto &value) {
        oss << sep << '"' << name << "\":";
        if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                     std::string>)
            oss << '"' << sim::jsonEscape(value) << '"';
        else
            oss << value;
        sep = ',';
    });
    oss << '}';
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
    oss << r.workload << "/" << r.protocol << "/" << r.consistency
        << ": " << r.cycles << " cycles, "
        << r.stats.get("sm.instructions") << " instrs";
    if (l1Probes(r) > 0) {
        oss << ", L1 hit " << static_cast<int>(l1HitPercent(r) + 0.5)
            << "%";
    }
    oss << ", " << nocBytes(r) / 1024 << " KB NoC, "
        << r.energy.total() * 1e6 << " uJ";
    sim::Distribution lat = nocLatency(r);
    if (lat.p99() > 0) {
        oss << ", NoC lat p50/p99 " << lat.p50() << "/" << lat.p99()
            << " (sd " << lat.stddev() << ")";
    }
    if (r.checkerViolations > 0)
        oss << ", " << r.checkerViolations << " VIOLATIONS";
    return oss.str();
}

} // namespace gtsc::harness
