#include "serve/result_store.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "serve/result_codec.hh"
#include "serve/sha256.hh"
#include "sim/log.hh"

namespace fs = std::filesystem;

namespace gtsc::serve
{

const char *const kStoreCodeVersion = "one-loop";

namespace
{

/**
 * RAII advisory lock on the store-wide lock file. Writers and the
 * evictor take it exclusively around rename/unlink so the
 * size-accounting scan never races a concurrent writer; readers
 * don't need it (rename is atomic, so they see a complete old or
 * complete new entry, never a torn one).
 */
class StoreLock
{
  public:
    explicit StoreLock(const std::string &lockPath)
    {
        fd_ = ::open(lockPath.c_str(), O_CREAT | O_RDWR, 0644);
        if (fd_ >= 0)
            ::flock(fd_, LOCK_EX);
    }
    ~StoreLock()
    {
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }
    StoreLock(const StoreLock &) = delete;
    StoreLock &operator=(const StoreLock &) = delete;

  private:
    int fd_ = -1;
};

/** "key=value\n" canonical lines minus harness-only sweep.* knobs. */
std::string
simulationConfigString(const sim::Config &cfg)
{
    std::istringstream in(cfg.canonicalString());
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("sweep.", 0) == 0)
            continue;
        out << line << '\n';
    }
    return out.str();
}

std::size_t
countLines(const std::string &s)
{
    return static_cast<std::size_t>(
        std::count(s.begin(), s.end(), '\n'));
}

} // namespace

ResultStore::ResultStore(Options opts) : opts_(std::move(opts))
{
    if (opts_.codeVersion.empty())
        opts_.codeVersion = kStoreCodeVersion;
    root_ = opts_.root.empty() ? defaultRoot() : opts_.root;
    dir_ = root_ + "/v" + std::to_string(kStoreSchemaVersion);
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        GTSC_FATAL("result store: cannot create '", dir_, "': ",
                   ec.message());
}

std::string
ResultStore::defaultRoot()
{
    if (const char *env = std::getenv("GTSC_RESULT_STORE")) {
        if (*env != '\0')
            return env;
    }
    if (const char *home = std::getenv("HOME")) {
        if (*home != '\0')
            return std::string(home) + "/.cache/gtsc";
    }
    return "/tmp/gtsc-cache";
}

std::string
ResultStore::keyFor(const sim::Config &cfg,
                    const std::string &protocol,
                    const std::string &consistency,
                    const std::string &workload) const
{
    std::ostringstream material;
    material << "gtsc-store-key\n"
             << "schema=" << kStoreSchemaVersion << '\n'
             << "code=" << opts_.codeVersion << '\n'
             << "protocol=" << protocol << '\n'
             << "consistency=" << consistency << '\n'
             << "workload=" << workload << '\n'
             << "config:\n"
             << simulationConfigString(cfg);
    return Sha256::hexDigest(material.str());
}

std::string
ResultStore::entryPath(const std::string &key) const
{
    return dir_ + "/" + key.substr(0, 2) + "/" + key + ".res";
}

bool
ResultStore::lookup(const harness::RunSpec &spec,
                    harness::RunResult *out)
{
    return get(keyFor(spec.config, spec.protocol, spec.consistency,
                      spec.workload),
               out);
}

void
ResultStore::insert(const harness::RunSpec &spec,
                    const harness::RunResult &result)
{
    put(keyFor(spec.config, spec.protocol, spec.consistency,
               spec.workload),
        result);
}

bool
ResultStore::get(const std::string &key, harness::RunResult *out)
{
    const std::string path = entryPath(key);
    std::string text;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::lock_guard<std::mutex> lk(mu_);
            stats_.misses++;
            return false;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }

    // Validate header ("gtsc-store <schema> <codever>"), the echoed
    // key, and the "end <line-count>" trailer before decoding. Any
    // mismatch — a truncated write from a crash, an entry from an
    // older simulator, a hash collision — is a miss, and the bad
    // entry is removed so the fresh run can repair it.
    auto reject = [&] {
        ::unlink(path.c_str());
        std::lock_guard<std::mutex> lk(mu_);
        stats_.misses++;
        stats_.repaired++;
        return false;
    };

    std::istringstream in(text);
    std::string header, keyLine;
    if (!std::getline(in, header) || !std::getline(in, keyLine))
        return reject();
    {
        std::istringstream hs(header);
        std::string magic, codeVer;
        int schema = -1;
        if (!(hs >> magic >> schema >> codeVer) ||
            magic != "gtsc-store" || schema != kStoreSchemaVersion ||
            codeVer != opts_.codeVersion)
            return reject();
    }
    if (keyLine != "key " + key)
        return reject();
    if (text.empty() || text.back() != '\n')
        return reject();
    auto lastStart = text.rfind('\n', text.size() - 2);
    lastStart = lastStart == std::string::npos ? 0 : lastStart + 1;
    std::string trailer =
        text.substr(lastStart, text.size() - 1 - lastStart);
    std::size_t bodyLines = countLines(text) - 1;
    if (trailer != "end " + std::to_string(bodyLines))
        return reject();

    std::string payload = text.substr(header.size() + keyLine.size() +
                                          2,
                                      lastStart - header.size() -
                                          keyLine.size() - 2);
    std::string error;
    if (!decodeResult(payload, out, &error))
        return reject();

    // Refresh mtime so LRU eviction sees this entry as recently used.
    ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
    std::lock_guard<std::mutex> lk(mu_);
    stats_.hits++;
    return true;
}

void
ResultStore::put(const std::string &key, const harness::RunResult &r)
{
    std::ostringstream content;
    content << "gtsc-store " << kStoreSchemaVersion << ' '
            << opts_.codeVersion << '\n'
            << "key " << key << '\n';
    content << encodeResult(r);
    std::string body = content.str();
    content << "end " << countLines(body) << '\n';
    const std::string text = content.str();

    const std::string path = entryPath(key);
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec)
        return; // best-effort cache: simulation already succeeded

    static std::atomic<std::uint64_t> tmpSeq{0};
    std::string tmp = path + ".tmp." +
                      std::to_string(::getpid()) + "." +
                      std::to_string(tmpSeq.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return;
        out << text;
        out.flush();
        if (!out) {
            ::unlink(tmp.c_str());
            return;
        }
    }

    {
        StoreLock lock(dir_ + "/lock");
        if (::rename(tmp.c_str(), path.c_str()) != 0) {
            ::unlink(tmp.c_str());
            return;
        }
        if (opts_.maxBytes > 0)
            evictLocked();
    }
    std::lock_guard<std::mutex> lk(mu_);
    stats_.puts++;
}

void
ResultStore::evictLocked()
{
    struct Entry
    {
        std::string path;
        std::uint64_t size;
        fs::file_time_type mtime;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir_, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (!it->is_regular_file(ec) ||
            it->path().extension() != ".res")
            continue;
        Entry e;
        e.path = it->path().string();
        e.size = it->file_size(ec);
        if (ec)
            continue;
        e.mtime = it->last_write_time(ec);
        if (ec)
            continue;
        total += e.size;
        entries.push_back(std::move(e));
    }
    if (total <= opts_.maxBytes)
        return;
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.path < b.path;
              });
    std::uint64_t evicted = 0;
    for (const Entry &e : entries) {
        if (total <= opts_.maxBytes)
            break;
        if (::unlink(e.path.c_str()) == 0) {
            total -= e.size;
            evicted++;
        }
    }
    if (evicted > 0) {
        std::lock_guard<std::mutex> lk(mu_);
        stats_.evictions += evicted;
    }
}

StoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

std::uint64_t
ResultStore::diskBytes() const
{
    std::uint64_t total = 0;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir_, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file(ec) &&
            it->path().extension() == ".res")
            total += it->file_size(ec);
    }
    return total;
}

std::size_t
ResultStore::entryCount() const
{
    std::size_t n = 0;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir_, ec);
         !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file(ec) &&
            it->path().extension() == ".res")
            n++;
    }
    return n;
}

std::shared_ptr<ResultStore>
storeFromConfig(const sim::Config &cfg)
{
    if (!cfg.getBool("sweep.store", false))
        return nullptr;
    ResultStore::Options opts;
    opts.root = cfg.getString("sweep.store_path", "");
    opts.maxBytes =
        cfg.getUint("sweep.store_max_bytes", 256ull << 20);
    return std::make_shared<ResultStore>(std::move(opts));
}

} // namespace gtsc::serve
