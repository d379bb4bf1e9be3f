#include "serve/service.hh"

#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "harness/report.hh"
#include "harness/sweep.hh"
#include "protocols/builders.hh"
#include "sim/text.hh"
#include "workloads/registry.hh"

namespace gtsc::serve
{

namespace
{

std::string
errorLine(const std::string &id, const std::string &message)
{
    std::ostringstream oss;
    oss << "{\"ok\":false,\"op\":\"error\",\"id\":\""
        << sim::jsonEscape(id) << "\",\"message\":\""
        << sim::jsonEscape(message) << "\"}";
    return oss.str();
}

/** Apply every member of a JSON object as a config override. */
bool
applyConfigObject(const json::Value *obj, sim::Config *cfg,
                  std::string *error)
{
    if (obj == nullptr)
        return true;
    if (!obj->isObject()) {
        *error = "\"config\" must be an object";
        return false;
    }
    for (const auto &kv : obj->object) {
        if (kv.second.isObject() || kv.second.isArray() ||
            kv.second.isNull()) {
            *error = "config value for '" + kv.first +
                     "' must be a scalar";
            return false;
        }
        try {
            cfg->set(kv.first, kv.second.asString());
        } catch (const std::exception &e) {
            // An undeclared key or a value of the wrong type.
            *error = e.what();
            return false;
        }
    }
    return true;
}

} // namespace

Service::Service(ServiceOptions opts) : opts_(std::move(opts)) {}

bool
Service::handleLine(const std::string &line, const LineSink &rawSink)
{
    // Serialize emission: sweep workers stream results concurrently.
    auto sink = [&](const std::string &s) {
        std::lock_guard<std::mutex> lk(sinkMu_);
        rawSink(s);
    };

    if (line.find_first_not_of(" \t\r\n") == std::string::npos)
        return true;

    json::Value req;
    std::string err;
    if (!json::parse(line, &req, &err)) {
        sink(errorLine("", "bad JSON: " + err));
        return true;
    }
    if (!req.isObject()) {
        sink(errorLine("", "request must be a JSON object"));
        return true;
    }
    const json::Value *opVal = req.get("op");
    std::string op = opVal ? opVal->asString() : "run";
    const json::Value *idVal = req.get("id");
    std::string id = idVal ? idVal->asString() : "";

    if (op == "ping") {
        std::ostringstream oss;
        oss << "{\"ok\":true,\"op\":\"pong\",\"id\":\""
            << sim::jsonEscape(id) << "\",\"schema\":"
            << kStoreSchemaVersion << ",\"code\":\""
            << sim::jsonEscape(kStoreCodeVersion) << "\",\"store\":\""
            << sim::jsonEscape(opts_.store ? opts_.store->root() : "")
            << "\"}";
        sink(oss.str());
        return true;
    }
    if (op == "stats") {
        StoreStats s =
            opts_.store ? opts_.store->stats() : StoreStats{};
        std::ostringstream oss;
        oss << "{\"ok\":true,\"op\":\"stats\",\"id\":\""
            << sim::jsonEscape(id) << "\",\"hits\":" << s.hits
            << ",\"misses\":" << s.misses << ",\"puts\":" << s.puts
            << ",\"evictions\":" << s.evictions
            << ",\"repaired\":" << s.repaired << ",\"entries\":"
            << (opts_.store ? opts_.store->entryCount() : 0)
            << ",\"disk_bytes\":"
            << (opts_.store ? opts_.store->diskBytes() : 0) << "}";
        sink(oss.str());
        return true;
    }
    if (op == "shutdown") {
        sink("{\"ok\":true,\"op\":\"bye\",\"id\":\"" +
             sim::jsonEscape(id) + "\"}");
        return false;
    }
    if (op == "run") {
        handleRun(req, id, sink);
        return true;
    }
    sink(errorLine(id, "unknown op '" + op + "'"));
    return true;
}

void
Service::handleRun(const json::Value &req, const std::string &id,
                   const LineSink &sink)
{
    std::string err;
    sim::Config base = opts_.baseConfig;
    if (!applyConfigObject(req.get("config"), &base, &err)) {
        sink(errorLine(id, err));
        return;
    }

    const json::Value *cells = req.get("cells");
    if (cells == nullptr || !cells->isArray() ||
        cells->array.empty()) {
        sink(errorLine(id, "\"cells\" must be a non-empty array"));
        return;
    }

    std::vector<harness::RunSpec> specs;
    specs.reserve(cells->array.size());
    for (std::size_t i = 0; i < cells->array.size(); ++i) {
        const json::Value &cell = cells->array[i];
        std::string at = "cell " + std::to_string(i) + ": ";
        if (!cell.isObject()) {
            sink(errorLine(id, at + "must be an object"));
            return;
        }
        harness::RunSpec spec;
        spec.config = base;
        if (!applyConfigObject(cell.get("config"), &spec.config,
                               &err)) {
            sink(errorLine(id, at + err));
            return;
        }
        const json::Value *wl = cell.get("workload");
        const json::Value *proto = cell.get("protocol");
        const json::Value *cons = cell.get("consistency");
        if (!wl || !proto || !cons) {
            sink(errorLine(id, at + "needs workload, protocol and "
                                    "consistency"));
            return;
        }
        spec.workload = wl->asString();
        spec.protocol = proto->asString();
        spec.consistency = cons->asString();
        if (spec.consistency != "sc" && spec.consistency != "tso" &&
            spec.consistency != "rc") {
            sink(errorLine(id, at + "unknown consistency '" +
                                   spec.consistency + "'"));
            return;
        }
        // Reject unknown names up front: runOne would throw from a
        // worker thread after other cells already simulated.
        try {
            protocols::makeProtocol(spec.protocol);
        } catch (const std::exception &) {
            sink(errorLine(id, at + "unknown protocol '" +
                                   spec.protocol + "'"));
            return;
        }
        try {
            sim::Config probe = spec.config;
            workloads::makeWorkload(spec.workload, probe);
        } catch (const std::exception &e) {
            sink(errorLine(id, at + "bad workload '" + spec.workload +
                                   "': " + e.what()));
            return;
        }
        specs.push_back(std::move(spec));
    }

    harness::SweepOptions sweepOpts;
    sweepOpts.jobs = opts_.jobs;
    if (const json::Value *jobs = req.get("jobs")) {
        double n = jobs->number;
        if (!jobs->isNumber() || !(n >= 0) || n > UINT_MAX ||
            n != std::floor(n)) {
            sink(errorLine(id, "\"jobs\" must be a whole number from "
                               "0 to " +
                                   std::to_string(UINT_MAX)));
            return;
        }
        sweepOpts.jobs = static_cast<unsigned>(n);
    }
    const json::Value *useStore = req.get("store");
    bool storeOn = opts_.store != nullptr &&
                   !(useStore && useStore->type ==
                                     json::Value::Type::Bool &&
                     !useStore->boolean);
    sweepOpts.cache = storeOn ? opts_.store.get() : nullptr;

    std::atomic<std::uint64_t> hits{0}, misses{0};
    sweepOpts.onResult = [&](std::size_t idx,
                             const harness::RunResult &r,
                             bool cached) {
        (cached ? hits : misses).fetch_add(1);
        std::ostringstream oss;
        oss << "{\"ok\":true,\"op\":\"result\",\"id\":\""
            << sim::jsonEscape(id) << "\",\"cell\":" << idx
            << ",\"cached\":" << (cached ? "true" : "false");
        if (storeOn) {
            oss << ",\"key\":\""
                << opts_.store->keyFor(specs[idx].config,
                                       specs[idx].protocol,
                                       specs[idx].consistency,
                                       specs[idx].workload)
                << "\"";
        }
        oss << ",\"result\":" << harness::toJson(r) << ",\"csv\":\""
            << sim::jsonEscape(harness::csvRow(r)) << "\"";
        if (!r.obsFiles.empty()) {
            oss << ",\"obs_files\":[";
            for (std::size_t k = 0; k < r.obsFiles.size(); ++k) {
                oss << (k ? "," : "") << "\""
                    << sim::jsonEscape(r.obsFiles[k]) << "\"";
            }
            oss << "]";
        }
        oss << "}";
        sink(oss.str());
    };

    auto t0 = std::chrono::steady_clock::now();
    try {
        harness::SweepRunner runner(sweepOpts);
        runner.run(specs);
    } catch (const std::exception &e) {
        sink(errorLine(id, std::string("run failed: ") + e.what()));
        return;
    }
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    std::ostringstream oss;
    char secBuf[32];
    std::snprintf(secBuf, sizeof(secBuf), "%.4f", secs);
    oss << "{\"ok\":true,\"op\":\"done\",\"id\":\""
        << sim::jsonEscape(id) << "\",\"cells\":" << specs.size()
        << ",\"hits\":" << hits.load() << ",\"misses\":"
        << misses.load() << ",\"seconds\":" << secBuf << "}";
    sink(oss.str());
}

} // namespace gtsc::serve
