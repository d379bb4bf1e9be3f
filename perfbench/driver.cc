/**
 * @file
 * Benchmark driver: runs one named workload of the repository
 * benchmark serially on one simulation thread, a given number of
 * passes, and prints one JSON document
 * with the raw per-pass timings, the deterministic work counts of each
 * pass and every correctness verdict. run.py builds this binary,
 * aggregates the passes into the benchmark's metrics and checks that
 * counts and stat digests repeat; see README.md.
 *
 * Workloads:
 *  - coherent: {bh, cc, dlp, vpr, stn, bfs} x {TC, G-TSC} x {SC, RC}
 *    on the figure machine (8 SMs x 12 warps, 4 partitions);
 *  - explore:  exhaustive SC enumeration of the default verify model
 *    through verify::explore() (deterministic; ignores the seed).
 * Every simulation cell builds a fresh GpuSystem, so the modelled
 * caches start cold.
 *
 * With --trace 1, odd passes record spans around each call the driver
 * makes into a module (workloads, protocols, gpu, energy, verify) and
 * report per-span self time; even passes stay untraced so the tracing
 * overhead is the difference between the median pass of each kind.
 *
 * Usage: perfbench_driver --workload NAME --seed N --passes P
 *                         --trace 0|1 [--trace-out FILE]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "energy/energy_model.hh"
#include "gpu/gpu_system.hh"
#include "harness/runner.hh"
#include "protocols/builders.hh"
#include "sim/stats.hh"
#include "verify/explorer.hh"
#include "verify/model.hh"
#include "workloads/registry.hh"

using namespace gtsc;

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** One timed call, nested under the span that was open at its start. */
struct Span
{
    const char *name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
    std::string detail;
};

/**
 * In-memory span recorder. Spans are only kept while enabled; they
 * are written out once, when the driver ends.
 */
class Tracer
{
  public:
    void setEnabled(bool on) { on_ = on; }

    int
    open(const char *name, std::string detail = {})
    {
        if (!on_)
            return -1;
        int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(
            {name, parent, Clock::now(), Clock::time_point{}, detail});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end = Clock::now();
        stack_.pop_back();
    }

    std::size_t size() const { return spans_.size(); }

    /** Self time per span name over spans [from, size()). */
    std::map<std::string, double>
    selfTimes(std::size_t from) const
    {
        std::vector<double> self(spans_.size(), 0.0);
        for (std::size_t i = from; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            double d = seconds(s.end - s.start);
            self[i] += d;
            if (s.parent >= 0)
                self[static_cast<std::size_t>(s.parent)] -= d;
        }
        std::map<std::string, double> out;
        for (std::size_t i = from; i < spans_.size(); ++i)
            out[spans_[i].name] += self[i];
        return out;
    }

    /** Chrome trace-event JSON of every recorded span. */
    void
    write(const std::string &path, Clock::time_point epoch) const
    {
        std::ofstream f(path);
        f << "{\"traceEvents\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[256];
            std::snprintf(
                buf, sizeof(buf),
                "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                "\"args\": {\"id\": %zu, \"parent\": %d, "
                "\"detail\": \"%s\"}}",
                i ? "," : "", s.name, seconds(s.start - epoch) * 1e6,
                seconds(s.end - s.start) * 1e6, i, s.parent,
                s.detail.c_str());
            f << buf;
        }
        f << "\n]}\n";
    }

  private:
    bool on_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Run `f` inside a span; returns its host seconds (traced or not). */
template <class F>
double
timed(Tracer &tr, const char *name, F &&f)
{
    int id = tr.open(name);
    const Clock::time_point t0 = Clock::now();
    f();
    const double s = seconds(Clock::now() - t0);
    tr.close(id);
    return s;
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 1469598103934665603ULL)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Minimal JSON object writer (keys are plain identifiers). */
class Json
{
  public:
    Json &
    num(const std::string &k, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(k, buf);
    }

    Json &
    u64(const std::string &k, std::uint64_t v)
    {
        return raw(k, std::to_string(v));
    }

    Json &
    str(const std::string &k, const std::string &v)
    {
        return raw(k, quoted(v));
    }

    /** JSON string literal; quotes and backslashes become '. */
    static std::string
    quoted(const std::string &v)
    {
        std::string q = "\"";
        for (char c : v)
            q += (c == '"' || c == '\\') ? '\'' : c;
        return q + "\"";
    }

    Json &
    raw(const std::string &k, const std::string &v)
    {
        os_ << (first_ ? "" : ", ") << '"' << k << "\": " << v;
        first_ = false;
        return *this;
    }

    std::string done() const { return "{" + os_.str() + "}"; }

  private:
    std::ostringstream os_;
    bool first_ = true;
};

std::string
jsonList(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? ", " : "") + items[i];
    return out + "]";
}

struct Cell
{
    std::string workload;
    std::string protocol;
    std::string consistency;
    std::string label;
};

struct WorkloadDef
{
    std::vector<Cell> cells;
    sim::Config base;
    bool explore = false;
};

WorkloadDef
defineWorkload(const std::string &name, std::uint64_t seed)
{
    WorkloadDef def;
    // The figure machine of bench/bench_common.hh; the runtime
    // coherence checker stays off as in the figure drivers.
    def.base = harness::benchConfig();
    def.base.setInt("gpu.num_sms", 8);
    def.base.setInt("gpu.warps_per_sm", 12);
    def.base.setInt("gpu.num_partitions", 4);
    def.base.setBool("check.enabled", false);
    def.base.set("wl.seed", std::to_string(seed));
    struct Col
    {
        const char *protocol, *consistency, *label;
    };
    std::vector<Col> cols;
    std::vector<std::string> wls;
    if (name == "coherent") {
        def.base.setDouble("wl.scale", 4.0);
        wls = workloads::coherentSet();
        cols = {{"tc", "sc", "TC-SC"},
                {"tc", "rc", "TC-RC"},
                {"gtsc", "sc", "G-TSC-SC"},
                {"gtsc", "rc", "G-TSC-RC"}};
    } else if (name == "explore") {
        // The default verify model: 2 SMs x 2 lines x 2 ops, SC.
        def.base = sim::Config();
        def.explore = true;
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        std::exit(2);
    }
    for (const std::string &wl : wls)
        for (const Col &c : cols)
            def.cells.push_back(
                {wl, c.protocol, c.consistency, wl + "/" + c.label});
    return def;
}

/** Deterministic work counts of one pass (sums over its cells). */
struct Counts
{
    std::map<std::string, double> v;
    sim::Distribution nocLatency;

    void add(const std::string &k, double x) { v[k] += x; }
};

struct CellOut
{
    std::uint64_t cycles = 0;
    bool verified = false;
    std::string digest;
    double setup = 0.0; ///< protocol + workload + GpuSystem construction
    double run = 0.0;   ///< GpuSystem::run()
    double wall = 0.0;  ///< the whole cell
};

struct PassOut
{
    bool traced = false;
    double wall = 0.0;
    double setup = 0.0;
    double main = 0.0;
    Counts counts;
    std::vector<CellOut> cells;
    std::map<std::string, double> self;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
};

void
runCell(const Cell &cell, const sim::Config &base, Tracer &tr,
        PassOut &pass)
{
    int span = tr.open("cell", cell.label);
    const Clock::time_point start = Clock::now();
    CellOut out;
    sim::Config cfg = base;
    cfg.set("gpu.consistency", cell.consistency);

    std::unique_ptr<gpu::ProtocolBuilder> builder;
    std::unique_ptr<gpu::Workload> wl;
    std::unique_ptr<gpu::GpuSystem> system;
    out.setup += timed(tr, "protocols.make", [&] {
        builder = protocols::makeProtocol(cell.protocol);
    });
    out.setup += timed(tr, "workloads.make", [&] {
        wl = workloads::makeWorkload(cell.workload, cfg);
    });
    out.setup += timed(tr, "gpu.construct", [&] {
        system = std::make_unique<gpu::GpuSystem>(cfg, *builder, *wl);
    });
    out.run = timed(tr, "gpu.run", [&] { out.cycles = system->run(); });
    timed(tr, "workloads.verify",
          [&] { out.verified = wl->verify(system->memory()); });
    energy::EnergyBreakdown e;
    timed(tr, "energy.compute", [&] {
        e = energy::EnergyModel(cfg).compute(
            system->stats(), cell.protocol, system->params().numSms);
    });

    timed(tr, "bench.harvest", [&] {
        const sim::StatSet &s = system->stats();
        Counts &c = pass.counts;
        const double cyc = static_cast<double>(out.cycles);
        c.add("cycles", cyc);
        c.add("instructions",
              static_cast<double>(s.get("sm.instructions")));
        c.add("issue_slots_used",
              static_cast<double>(system->issueSlotsUsed()));
        c.add("sm_ticks", static_cast<double>(system->smTicksExecuted()));
        c.add("noc_ticks",
              static_cast<double>(system->nocTicksExecuted()));
        c.add("fast_forwarded",
              static_cast<double>(system->fastForwardedCycles()));
        const gpu::GpuSystem::ActivityFractions act = system->activity();
        c.add("activity_cycles.sm", act.sm * cyc);
        c.add("activity_cycles.l1", act.l1 * cyc);
        c.add("activity_cycles.l2", act.l2 * cyc);
        c.add("activity_cycles.noc", act.noc * cyc);
        c.add("activity_cycles.dram", act.dram * cyc);
        for (const char *k :
             {"l1.tag_accesses", "l1.hits", "l1.miss_expired",
              "l1.rejects_mshr_full", "l1.renewals_sent", "l2.accesses",
              "l2.renewals", "l2.stall_mshr_full", "noc.req.packets",
              "noc.resp.packets", "noc.req.bytes", "noc.resp.bytes",
              "dram.reads", "dram.writes"})
            c.add(k, static_cast<double>(s.get(k)));
        c.add("energy_j", e.total());
        c.nocLatency.merge(s.getDistribution("noc.req.latency"));
        c.nocLatency.merge(s.getDistribution("noc.resp.latency"));
        out.digest = hex64(
            fnv1a(s.toString(), fnv1a(std::to_string(out.cycles))));
    });
    timed(tr, "gpu.destroy", [&] { system.reset(); });
    out.wall = seconds(Clock::now() - start);

    pass.setup += out.setup;
    pass.main += out.run;
    ++pass.attempted;
    if (!out.verified)
        pass.failures.push_back(cell.label + ": Workload::verify failed");
    if (out.cycles == 0)
        pass.failures.push_back(cell.label + ": zero cycles");
    pass.cells.push_back(std::move(out));
    tr.close(span);
}

/**
 * ModelSim construction + init() repeats per pass. One takes ~15 us,
 * so a pass's setup time is the median of many.
 */
constexpr int kExploreSetupRepeats = 201;

void
runExplore(const sim::Config &cfg, Tracer &tr, PassOut &pass)
{
    std::vector<double> setups;
    for (int i = 0; i < kExploreSetupRepeats; ++i) {
        setups.push_back(timed(tr, "verify.model_init", [&] {
            verify::ModelSim model(cfg);
            (void)model.init();
        }));
    }
    auto mid = setups.begin() + kExploreSetupRepeats / 2;
    std::nth_element(setups.begin(), mid, setups.end());
    pass.setup = *mid;

    verify::ExploreResult res;
    pass.main = timed(tr, "verify.explore",
                      [&] { res = verify::explore(cfg); });
    const verify::ExploreStats &st = res.stats;
    Counts &c = pass.counts;
    c.add("states", static_cast<double>(st.statesVisited));
    c.add("transitions", static_cast<double>(st.transitions));
    c.add("deduped", static_cast<double>(st.deduped));
    c.add("terminals", static_cast<double>(st.terminals));
    c.add("max_depth", static_cast<double>(st.maxDepth));
    ++pass.attempted;
    if (!st.complete)
        pass.failures.push_back("explore: enumeration not complete");
    if (!res.ok())
        pass.failures.push_back(
            "explore: " + std::to_string(res.witnesses.size()) +
            " invariant violation(s)");
}

std::string
passJson(const PassOut &p, std::size_t index)
{
    Json j;
    j.u64("index", index)
        .raw("traced", p.traced ? "true" : "false")
        .num("wall_s", p.wall)
        .num("setup_s", p.setup)
        .num("main_s", p.main)
        .u64("attempted", p.attempted);
    Json counts;
    for (const auto &[k, v] : p.counts.v)
        counts.num(k, v);
    if (p.counts.nocLatency.count())
        counts.num("noc.latency_p99", p.counts.nocLatency.p99());
    j.raw("counts", counts.done());
    std::vector<std::string> cells;
    for (const CellOut &c : p.cells) {
        Json cj;
        cj.u64("cycles", c.cycles)
            .raw("verified", c.verified ? "true" : "false")
            .str("digest", c.digest)
            .num("setup_s", c.setup)
            .num("run_s", c.run)
            .num("wall_s", c.wall);
        cells.push_back(cj.done());
    }
    j.raw("cells", jsonList(cells));
    Json self;
    for (const auto &[k, v] : p.self)
        self.num(k, v);
    j.raw("self_s", self.done());
    std::vector<std::string> fails;
    for (const std::string &f : p.failures)
        fails.push_back(Json::quoted(f));
    j.raw("failures", jsonList(fails));
    return j.done();
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload coherent|"
                 "explore --seed N --passes P (>= 2) --trace 0|1 "
                 "[--trace-out FILE]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, traceOut;
    std::uint64_t seed = 1;
    unsigned long passCount = 0;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage();
        std::string v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--passes")
            passCount = std::strtoul(v.c_str(), nullptr, 10);
        else if (a == "--trace")
            trace = v == "1";
        else if (a == "--trace-out")
            traceOut = v;
        else
            usage();
    }
    // At least two passes, so digests and counts can be compared
    // across repeats and a traced run has an untraced twin.
    if (workload.empty() || passCount < 2)
        usage();

    const WorkloadDef def = defineWorkload(workload, seed);
    Tracer tr;
    const Clock::time_point epoch = Clock::now();
    std::vector<PassOut> passes;
    while (passes.size() < passCount) {
        PassOut p;
        p.traced = trace && passes.size() % 2 == 1;
        tr.setEnabled(p.traced);
        const std::size_t firstSpan = tr.size();
        p.wall = timed(tr, "pass", [&] {
            if (def.explore)
                runExplore(def.base, tr, p);
            for (const Cell &c : def.cells)
                runCell(c, def.base, tr, p);
        });
        if (p.traced)
            p.self = tr.selfTimes(firstSpan);
        passes.push_back(std::move(p));
    }
    tr.setEnabled(false);
    if (trace && !traceOut.empty())
        tr.write(traceOut, epoch);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::vector<std::string> cells, passJsons;
    for (const Cell &c : def.cells) {
        Json cj;
        cj.str("label", c.label)
            .str("workload", c.workload)
            .str("protocol", c.protocol)
            .str("consistency", c.consistency);
        cells.push_back(cj.done());
    }
    for (std::size_t i = 0; i < passes.size(); ++i)
        passJsons.push_back(passJson(passes[i], i));

    Json out;
    out.str("workload", workload)
        .u64("seed", seed)
        .str("wl_scale", def.base.getString("wl.scale", "-"))
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .raw("lto", PERFBENCH_LTO ? "true" : "false")
        .u64("spans", tr.size())
        .num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
        .raw("cells", jsonList(cells))
        .raw("passes", jsonList(passJsons));
    std::printf("%s\n", out.done().c_str());
    return 0;
}
