#include "serve/result_codec.hh"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

namespace gtsc::serve
{

namespace
{

std::string
hexBits(double v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(v)));
    return buf;
}

bool
parseHexBits(const std::string &tok, double *out)
{
    if (tok.empty())
        return false;
    char *end = nullptr;
    unsigned long long bits = std::strtoull(tok.c_str(), &end, 16);
    if (end == tok.c_str() || *end != '\0')
        return false;
    *out = std::bit_cast<double>(static_cast<std::uint64_t>(bits));
    return true;
}

bool
parseU64(const std::string &tok, std::uint64_t *out)
{
    if (tok.empty())
        return false;
    char *end = nullptr;
    unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0')
        return false;
    *out = v;
    return true;
}

} // namespace

std::string
encodeResult(const harness::RunResult &r)
{
    std::ostringstream oss;
    auto s = [&](const char *name, const std::string &v) {
        oss << "s " << name << ' ' << v << '\n';
    };
    auto u = [&](const char *name, std::uint64_t v) {
        oss << "u " << name << ' ' << v << '\n';
    };
    auto f = [&](const char *name, double v) {
        oss << "f " << name << ' ' << hexBits(v) << '\n';
    };

    s("workload", r.workload);
    s("protocol", r.protocol);
    s("consistency", r.consistency);
    u("cycles", r.cycles);
    u("instructions", r.instructions);
    u("mem_stall_cycles", r.memStallCycles);
    u("active_cycles", r.activeCycles);
    u("noc_bytes", r.nocBytes);
    u("noc_packets", r.nocPackets);
    f("avg_noc_latency", r.avgNocLatency);
    f("noc_latency_stddev", r.nocLatencyStddev);
    f("noc_latency_p50", r.nocLatencyP50);
    f("noc_latency_p99", r.nocLatencyP99);
    u("l1_hits", r.l1Hits);
    u("l1_miss_cold", r.l1MissCold);
    u("l1_miss_expired", r.l1MissExpired);
    u("renewals_sent", r.renewalsSent);
    u("l2_accesses", r.l2Accesses);
    u("dram_accesses", r.dramAccesses);
    u("ts_resets", r.tsResets);
    u("spin_retries", r.spinRetries);
    u("spin_giveups", r.spinGiveups);
    f("energy_core", r.energy.core);
    f("energy_l1", r.energy.l1);
    f("energy_l2", r.energy.l2);
    f("energy_noc", r.energy.noc);
    f("energy_dram", r.energy.dram);
    u("checker_violations", r.checkerViolations);
    u("loads_checked", r.loadsChecked);
    u("verified", r.verified ? 1 : 0);
    u("fast_forwarded", r.fastForwarded);
    u("issue_slots_used", r.issueSlotsUsed);
    u("sm_ticks_executed", r.smTicksExecuted);
    u("noc_ticks_executed", r.nocTicksExecuted);
    f("activity_sm", r.activitySm);
    f("activity_l1", r.activityL1);
    f("activity_l2", r.activityL2);
    f("activity_noc", r.activityNoc);
    f("activity_dram", r.activityDram);

    for (const auto &kv : r.stats.counters())
        oss << "c " << kv.first << ' ' << kv.second << '\n';
    for (const auto &kv : r.stats.distributions()) {
        const sim::Distribution &d = kv.second;
        oss << "D " << kv.first << ' ' << d.count() << ' '
            << d.strideMask() << ' ' << hexBits(d.sum()) << ' '
            << hexBits(d.sumSquares()) << ' ' << hexBits(d.max())
            << ' ' << hexBits(d.count() ? d.min() : 0.0);
        oss << ' ' << d.reservoirSamples().size();
        for (double v : d.reservoirSamples())
            oss << ' ' << hexBits(v);
        oss << '\n';
    }
    for (const std::string &path : r.obsFiles)
        oss << "o " << path << '\n';
    return oss.str();
}

bool
decodeResult(const std::string &text, harness::RunResult *out,
             std::string *error)
{
    *out = harness::RunResult();
    std::istringstream in(text);
    std::string line;
    unsigned lineNo = 0;
    auto fail = [&](const std::string &why) {
        if (error)
            *error = "line " + std::to_string(lineNo) + ": " + why;
        return false;
    };
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.size() < 2 || line[1] != ' ')
            return fail("malformed line '" + line + "'");
        char tag = line[0];
        std::string rest = line.substr(2);
        auto sp = rest.find(' ');
        if (tag != 'o' && sp == std::string::npos)
            return fail("missing value in '" + line + "'");
        std::string name =
            tag == 'o' ? std::string() : rest.substr(0, sp);
        std::string value =
            tag == 'o' ? rest : rest.substr(sp + 1);

        if (tag == 's') {
            if (name == "workload")
                out->workload = value;
            else if (name == "protocol")
                out->protocol = value;
            else if (name == "consistency")
                out->consistency = value;
            else
                return fail("unknown string field '" + name + "'");
        } else if (tag == 'u') {
            std::uint64_t v = 0;
            if (!parseU64(value, &v))
                return fail("bad integer '" + value + "'");
            if (name == "cycles")
                out->cycles = v;
            else if (name == "instructions")
                out->instructions = v;
            else if (name == "mem_stall_cycles")
                out->memStallCycles = v;
            else if (name == "active_cycles")
                out->activeCycles = v;
            else if (name == "noc_bytes")
                out->nocBytes = v;
            else if (name == "noc_packets")
                out->nocPackets = v;
            else if (name == "l1_hits")
                out->l1Hits = v;
            else if (name == "l1_miss_cold")
                out->l1MissCold = v;
            else if (name == "l1_miss_expired")
                out->l1MissExpired = v;
            else if (name == "renewals_sent")
                out->renewalsSent = v;
            else if (name == "l2_accesses")
                out->l2Accesses = v;
            else if (name == "dram_accesses")
                out->dramAccesses = v;
            else if (name == "ts_resets")
                out->tsResets = v;
            else if (name == "spin_retries")
                out->spinRetries = v;
            else if (name == "spin_giveups")
                out->spinGiveups = v;
            else if (name == "checker_violations")
                out->checkerViolations = v;
            else if (name == "loads_checked")
                out->loadsChecked = v;
            else if (name == "verified")
                out->verified = v != 0;
            else if (name == "fast_forwarded")
                out->fastForwarded = v;
            else if (name == "issue_slots_used")
                out->issueSlotsUsed = v;
            else if (name == "sm_ticks_executed")
                out->smTicksExecuted = v;
            else if (name == "noc_ticks_executed")
                out->nocTicksExecuted = v;
            else
                return fail("unknown integer field '" + name + "'");
        } else if (tag == 'f') {
            double v = 0.0;
            if (!parseHexBits(value, &v))
                return fail("bad double bits '" + value + "'");
            if (name == "avg_noc_latency")
                out->avgNocLatency = v;
            else if (name == "noc_latency_stddev")
                out->nocLatencyStddev = v;
            else if (name == "noc_latency_p50")
                out->nocLatencyP50 = v;
            else if (name == "noc_latency_p99")
                out->nocLatencyP99 = v;
            else if (name == "energy_core")
                out->energy.core = v;
            else if (name == "energy_l1")
                out->energy.l1 = v;
            else if (name == "energy_l2")
                out->energy.l2 = v;
            else if (name == "energy_noc")
                out->energy.noc = v;
            else if (name == "energy_dram")
                out->energy.dram = v;
            else if (name == "activity_sm")
                out->activitySm = v;
            else if (name == "activity_l1")
                out->activityL1 = v;
            else if (name == "activity_l2")
                out->activityL2 = v;
            else if (name == "activity_noc")
                out->activityNoc = v;
            else if (name == "activity_dram")
                out->activityDram = v;
            else
                return fail("unknown double field '" + name + "'");
        } else if (tag == 'c') {
            std::uint64_t v = 0;
            if (!parseU64(value, &v))
                return fail("bad counter value '" + value + "'");
            out->stats.counter(name) = v;
        } else if (tag == 'D') {
            std::istringstream ds(value);
            std::uint64_t count = 0, stride = 0, nRes = 0;
            std::string sumTok, sumSqTok, maxTok, minTok;
            if (!(ds >> count >> stride >> sumTok >> sumSqTok >>
                  maxTok >> minTok >> nRes))
                return fail("truncated distribution '" + name + "'");
            double sum = 0, sumSq = 0, maxV = 0, minV = 0;
            if (!parseHexBits(sumTok, &sum) ||
                !parseHexBits(sumSqTok, &sumSq) ||
                !parseHexBits(maxTok, &maxV) ||
                !parseHexBits(minTok, &minV))
                return fail("bad distribution bits in '" + name + "'");
            std::vector<double> reservoir;
            reservoir.reserve(nRes);
            for (std::uint64_t i = 0; i < nRes; ++i) {
                std::string tok;
                double v = 0.0;
                if (!(ds >> tok) || !parseHexBits(tok, &v))
                    return fail("truncated reservoir in '" + name +
                                "'");
                reservoir.push_back(v);
            }
            out->stats.distribution(name) = sim::Distribution::restore(
                count, sum, sumSq, maxV, minV, stride,
                std::move(reservoir));
        } else if (tag == 'o') {
            out->obsFiles.push_back(value);
        } else {
            return fail(std::string("unknown tag '") + tag + "'");
        }
    }
    return true;
}

} // namespace gtsc::serve
