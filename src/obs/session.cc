#include "obs/session.hh"

#include <filesystem>
#include <fstream>

#include "sim/config.hh"
#include "sim/log.hh"
#include "sim/stats.hh"

namespace gtsc::obs
{

namespace
{

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos)
            comma = s.size();
        std::string item = s.substr(start, comma - start);
        if (!item.empty())
            out.push_back(std::move(item));
        start = comma + 1;
    }
    return out;
}

} // namespace

std::unique_ptr<Session>
Session::fromConfig(const sim::Config &cfg)
{
    bool trace = cfg.getBool("obs.trace");
    bool transcript =
        cfg.has("obs.transcript") ? cfg.getBool("obs.transcript") : trace;
    Cycle interval = cfg.has("obs.sample_interval")
                         ? cfg.getUint("obs.sample_interval")
                         : (trace ? 1000 : 0);
    if (!trace && !transcript && interval == 0)
        return nullptr;

    auto s = std::unique_ptr<Session>(new Session);
    if (trace) {
        s->tracer_ = std::make_unique<Tracer>(
            cfg.getUint("obs.ring_capacity"));
    }
    if (transcript) {
        s->transcript_ = std::make_unique<Transcript>(
            cfg.getUint("obs.transcript_depth"),
            cfg.getString("obs.transcript_filter"));
    }
    s->sampleInterval_ = interval;
    s->sampleKeys_ = splitCsv(cfg.getString("obs.sample_keys"));
    return s;
}

void
Session::bindStats(const sim::StatSet &stats)
{
    if (timeline_ || sampleInterval_ == 0)
        return;
    timeline_ = std::make_unique<StatTimeline>(stats, sampleInterval_,
                                               sampleKeys_);
}

std::vector<std::string>
Session::writeFiles(const std::string &dir,
                    const std::string &stem) const
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        GTSC_FATAL("cannot create trace dir '", dir,
                   "': ", ec.message());

    std::vector<std::string> written;
    auto open = [&](const char *suffix) {
        std::string path = (fs::path(dir) / (stem + suffix)).string();
        std::ofstream out(path);
        if (!out)
            GTSC_FATAL("cannot write '", path, "'");
        written.push_back(path);
        return out;
    };
    if (tracer_) {
        std::ofstream out = open(".trace.json");
        tracer_->writeChromeTrace(out);
    }
    if (timeline_) {
        std::ofstream out = open(".timeline.csv");
        timeline_->writeCsv(out);
    }
    if (transcript_) {
        std::ofstream out = open(".transcript.txt");
        transcript_->writeText(out);
    }
    return written;
}

std::string
fileStem(const std::string &workload, const std::string &protocol,
         const std::string &consistency,
         const std::string &config_fingerprint)
{
    auto sanitize = [](const std::string &s) {
        std::string out;
        for (char c : s) {
            bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
            out.push_back(ok ? c : '_');
        }
        return out;
    };
    // FNV-1a over the explicit config so distinct sweep points that
    // share workload/protocol/consistency still get distinct files.
    std::uint64_t h = 1469598103934665603ull;
    for (char c : config_fingerprint) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    static const char *kDigits = "0123456789abcdef";
    std::string hash8;
    for (int i = 7; i >= 0; --i)
        hash8.push_back(kDigits[(h >> (i * 4)) & 0xf]);
    return sanitize(workload) + "_" + sanitize(protocol) + "_" +
           sanitize(consistency) + "_" + hash8;
}

} // namespace gtsc::obs
