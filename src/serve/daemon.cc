/**
 * @file
 * gtscd — the simulation-serving daemon.
 *
 * Listens on a unix stream socket for line-delimited JSON requests
 * (protocol in service.hh / docs/SERVING.md), resolves each cell of
 * a batched run request against the persistent content-addressed
 * result store, simulates only the misses through the parallel
 * SweepRunner, and streams per-cell results back as they complete.
 * CI, plotting scripts and interactive clients (tools/gtsc_client.py)
 * all talk to the same store, so no (config, workload, protocol)
 * cell is ever simulated twice on one machine.
 *
 * Connections are served sequentially; parallelism comes from the
 * batch (--jobs fans a request's misses over the sweep pool), and
 * the store's file locking keeps concurrent *processes* — another
 * daemon, a CLI sweep — safe.
 *
 * Usage:
 *   gtscd [--socket PATH] [--store PATH] [--max-bytes N]
 *         [--jobs N] [--once] [--no-store] [key=value ...]
 */

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "serve/service.hh"

using namespace gtsc;

namespace
{

/** write(2) the whole buffer; false when the client went away. */
bool
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** Serve one connection; true when a shutdown op was received. */
bool
serveConnection(int fd, serve::Service &service)
{
    bool shutdown = false;
    bool clientGone = false;
    serve::Service::LineSink sink = [&](const std::string &line) {
        if (!clientGone && !writeAll(fd, line + "\n"))
            clientGone = true;
    };

    std::string buf;
    char chunk[65536];
    while (!shutdown && !clientGone) {
        ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0)
            break;
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t nl;
             (nl = buf.find('\n', start)) != std::string::npos;
             start = nl + 1) {
            std::string line = buf.substr(start, nl - start);
            if (!service.handleLine(line, sink)) {
                shutdown = true;
                break;
            }
        }
        buf.erase(0, start);
    }
    return shutdown;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--socket PATH] [--store PATH] [--max-bytes N]\n"
        "          [--jobs N] [--once] [--no-store] [key=value ...]\n"
        "  --socket PATH   unix socket to listen on\n"
        "                  (default: <store-root>/gtscd.sock)\n"
        "  --store PATH    result-store root (default:\n"
        "                  GTSC_RESULT_STORE, else ~/.cache/gtsc)\n"
        "  --max-bytes N   store size cap for LRU eviction (0 = none)\n"
        "  --jobs N        default sweep workers per request\n"
        "  --once          exit after the first connection closes\n"
        "  --no-store      serve without the persistent store\n"
        "  key=value       base config for every request\n",
        argv0);
    return 2;
}

/** Reject a numeric flag whose value is not a whole number. */
int
badValue(const char *flag, const char *text)
{
    std::fprintf(stderr, "gtscd: bad %s value '%s'\n", flag, text);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socketPath;
    std::string storeRoot;
    std::uint64_t maxBytes = 256ull << 20;
    unsigned jobs = 0;
    bool once = false;
    bool noStore = false;
    sim::Config base;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--socket" && i + 1 < argc) {
            socketPath = argv[++i];
        } else if (arg == "--store" && i + 1 < argc) {
            storeRoot = argv[++i];
        } else if (arg == "--max-bytes" && i + 1 < argc) {
            if (!harness::parseWholeNumber(argv[++i], UINT64_MAX,
                                           &maxBytes))
                return badValue("--max-bytes", argv[i]);
        } else if (arg == "--jobs" && i + 1 < argc) {
            std::uint64_t n = 0;
            if (!harness::parseWholeNumber(argv[++i], UINT_MAX, &n))
                return badValue("--jobs", argv[i]);
            jobs = static_cast<unsigned>(n);
        } else if (arg == "--once") {
            once = true;
        } else if (arg == "--no-store") {
            noStore = true;
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0]);
        } else {
            try {
                if (!base.parseOverride(arg)) {
                    std::fprintf(stderr, "gtscd: bad argument '%s'\n",
                                 argv[i]);
                    return usage(argv[0]);
                }
            } catch (const std::exception &e) {
                // An undeclared key or a value of the wrong type.
                std::fprintf(stderr, "gtscd: %s\n", e.what());
                return 2;
            }
        }
    }

    std::signal(SIGPIPE, SIG_IGN);

    serve::ServiceOptions opts;
    opts.jobs = jobs;
    opts.baseConfig = base;
    if (!noStore) {
        serve::ResultStore::Options so;
        so.root = storeRoot;
        so.maxBytes = maxBytes;
        try {
            opts.store =
                std::make_shared<serve::ResultStore>(std::move(so));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "gtscd: %s\n", e.what());
            return 1;
        }
    }
    if (socketPath.empty()) {
        socketPath = (opts.store ? opts.store->root()
                                 : serve::ResultStore::defaultRoot()) +
                     "/gtscd.sock";
    }
    serve::Service service(std::move(opts));

    int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0) {
        std::perror("gtscd: socket");
        return 1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "gtscd: socket path too long: %s\n",
                     socketPath.c_str());
        return 1;
    }
    std::strncpy(addr.sun_path, socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(socketPath.c_str());
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        std::perror("gtscd: bind");
        return 1;
    }
    if (::listen(listenFd, 8) != 0) {
        std::perror("gtscd: listen");
        return 1;
    }
    std::fprintf(stderr, "gtscd: listening on %s\n",
                 socketPath.c_str());
    std::fflush(stderr);

    bool shutdown = false;
    while (!shutdown) {
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            std::perror("gtscd: accept");
            break;
        }
        shutdown = serveConnection(fd, service);
        ::close(fd);
        if (once)
            break;
    }
    ::close(listenFd);
    ::unlink(socketPath.c_str());
    std::fprintf(stderr,
                 "gtscd: exiting (%llu simulations served "
                 "this process)\n",
                 static_cast<unsigned long long>(
                     harness::runOneCallCount()));
    return 0;
}
