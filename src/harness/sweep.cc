#include "harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <exception>
#include <mutex>

#include "sim/thread_pool.hh"

namespace gtsc::harness
{

std::string
RunSpec::displayLabel() const
{
    if (!label.empty())
        return label;
    return workload + "/" + protocol + "-" + consistency;
}

SweepRunner::SweepRunner(SweepOptions opts) : opts_(opts)
{
    jobs_ = opts_.jobs ? opts_.jobs : defaultJobs();
}

unsigned
SweepRunner::defaultJobs()
{
    std::uint64_t v = 0;
    const char *env = std::getenv("GTSC_JOBS");
    if (env && parseWholeNumber(env, UINT_MAX, &v) && v >= 1)
        return static_cast<unsigned>(v);
    return sim::ThreadPool::hardwareWorkers();
}

unsigned
SweepRunner::threadsFor(unsigned jobs, std::size_t misses)
{
    return static_cast<unsigned>(std::min<std::size_t>(
        {jobs, misses, sim::ThreadPool::hardwareWorkers()}));
}

bool
parseWholeNumber(const std::string &text, std::uint64_t max,
                 std::uint64_t *out)
{
    if (text.empty() ||
        !std::all_of(text.begin(), text.end(), [](unsigned char c) {
            return std::isdigit(c);
        }))
        return false;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE || v > max)
        return false;
    *out = v;
    return true;
}

std::vector<RunResult>
SweepRunner::run(const std::vector<RunSpec> &specs)
{
    std::vector<RunResult> results(specs.size());
    if (specs.empty())
        return results;

    const std::size_t n = specs.size();
    std::atomic<std::size_t> done{0};
    std::mutex progressMutex;

    auto report = [&](const RunSpec &spec) {
        if (!opts_.progress)
            return;
        std::size_t k = done.fetch_add(1) + 1;
        std::lock_guard<std::mutex> lk(progressMutex);
        std::fprintf(opts_.progressStream, "  sweep [%zu/%zu] %-28s\r",
                     k, n, spec.displayLabel().c_str());
        std::fflush(opts_.progressStream);
    };

    // Cache pass: cells already present in the attached SweepCache
    // (the persistent result store) are filled in up front and never
    // reach runOne(); only the misses are fanned out below.
    std::vector<std::size_t> misses;
    misses.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (opts_.cache &&
            opts_.cache->lookup(specs[i], &results[i])) {
            if (opts_.onResult)
                opts_.onResult(i, results[i], true);
            report(specs[i]);
        } else {
            misses.push_back(i);
        }
    }
    if (misses.empty())
        return results;

    auto runSpec = [&](std::size_t i) {
        const RunSpec &spec = specs[i];
        results[i] = runOne(spec.config, spec.protocol,
                            spec.consistency, spec.workload);
        if (opts_.cache)
            opts_.cache->insert(spec, results[i]);
        if (opts_.onResult)
            opts_.onResult(i, results[i], false);
    };

    unsigned jobs = threadsFor(jobs_, misses.size());
    if (jobs <= 1) {
        for (std::size_t i : misses) {
            runSpec(i);
            report(specs[i]);
        }
        return results;
    }

    // One exception slot per run: workers never throw across the
    // pool; the earliest failing cell rethrows below, matching what
    // the serial loop would have surfaced first. Once a cell has
    // failed, cells above it are skipped: the serial loop would never
    // have reached them, and the run is lost anyway. Cells below it
    // still run, since one of them may fail first in serial order.
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> firstFailed{n};
    {
        sim::ThreadPool pool(jobs);
        for (std::size_t i : misses) {
            pool.submit([&, i] {
                if (i > firstFailed.load())
                    return;
                try {
                    runSpec(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                    std::size_t f = firstFailed.load();
                    while (i < f &&
                           !firstFailed.compare_exchange_weak(f, i))
                        ;
                }
                report(specs[i]);
            });
        }
        pool.wait();
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
    }
    return results;
}

} // namespace gtsc::harness
