#include "serve/result_codec.hh"

#include <bit>
#include <cctype>
#include <cerrno>
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

/**
 * `tok` as an unsigned number in `base`: digits only, no sign or
 * space (strtoull would take them and wrap "-1"), and no overflow.
 */
bool
parseUnsigned(const std::string &tok, int base, std::uint64_t *out)
{
    if (tok.empty() || !std::isxdigit(static_cast<unsigned char>(tok[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(tok.c_str(), &end, base);
    if (*end != '\0' || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

bool
parseHexBits(const std::string &tok, double *out)
{
    std::uint64_t bits = 0;
    if (!parseUnsigned(tok, 16, &bits))
        return false;
    *out = std::bit_cast<double>(bits);
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
    f("energy_core", r.energy.core);
    f("energy_l1", r.energy.l1);
    f("energy_l2", r.energy.l2);
    f("energy_noc", r.energy.noc);
    f("energy_dram", r.energy.dram);
    u("checker_violations", r.checkerViolations);
    u("loads_checked", r.loadsChecked);
    u("verified", r.verified ? 1 : 0);
    u("fast_forwarded", r.fastForwarded);

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
            if (!parseUnsigned(value, 10, &v))
                return fail("bad integer '" + value + "'");
            if (name == "cycles")
                out->cycles = v;
            else if (name == "checker_violations")
                out->checkerViolations = v;
            else if (name == "loads_checked")
                out->loadsChecked = v;
            else if (name == "verified")
                out->verified = v != 0;
            else if (name == "fast_forwarded")
                out->fastForwarded = v;
            else
                return fail("unknown integer field '" + name + "'");
        } else if (tag == 'f') {
            double v = 0.0;
            if (!parseHexBits(value, &v))
                return fail("bad double bits '" + value + "'");
            if (name == "energy_core")
                out->energy.core = v;
            else if (name == "energy_l1")
                out->energy.l1 = v;
            else if (name == "energy_l2")
                out->energy.l2 = v;
            else if (name == "energy_noc")
                out->energy.noc = v;
            else if (name == "energy_dram")
                out->energy.dram = v;
            else
                return fail("unknown double field '" + name + "'");
        } else if (tag == 'c') {
            std::uint64_t v = 0;
            if (!parseUnsigned(value, 10, &v))
                return fail("bad counter value '" + value + "'");
            out->stats.counter(name) = v;
        } else if (tag == 'D') {
            std::istringstream ds(value);
            std::uint64_t count = 0, stride = 0, nRes = 0;
            std::string countTok, strideTok, nResTok;
            std::string sumTok, sumSqTok, maxTok, minTok;
            if (!(ds >> countTok >> strideTok >> sumTok >> sumSqTok >>
                  maxTok >> minTok >> nResTok))
                return fail("truncated distribution '" + name + "'");
            if (!parseUnsigned(countTok, 10, &count) ||
                !parseUnsigned(strideTok, 10, &stride) ||
                !parseUnsigned(nResTok, 10, &nRes))
                return fail("bad distribution count in '" + name + "'");
            if (nRes > sim::Distribution::kReservoirCapacity)
                return fail("oversized reservoir in '" + name + "'");
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
