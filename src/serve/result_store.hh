/**
 * @file
 * Persistent, content-addressed store of simulation results.
 *
 * Every (config, protocol, consistency, workload) cell maps to a
 * SHA-256 key over the canonicalized explicit configuration (sorted
 * keys, normalized values, harness-only `sweep.*` knobs excluded)
 * plus the cell identity and a schema/code version stamp. Entries
 * live under `<root>/v<schema>/<kk>/<key>.res` (`<root>/v4/...`),
 * where `kk` is the first key byte — one file per result, written
 * atomically (temp file + rename) under an advisory flock, so
 * concurrent writers (sweep workers, multiple processes, a daemon
 * next to a CLI run) never produce a torn entry. Reads need no lock: they see either the old
 * or the new file. Truncated, corrupt, or version-mismatched entries
 * are treated as misses and removed (miss + repair). A size cap
 * evicts least-recently-used entries (mtime, refreshed on every
 * hit).
 *
 * The store implements harness::SweepCache, so a SweepRunner with it
 * attached skips runOne() entirely on hits and returns results
 * bit-identical to fresh simulations (see result_codec.hh and
 * tests/integration/store_sweep_test.cc).
 */

#ifndef GTSC_SERVE_RESULT_STORE_HH_
#define GTSC_SERVE_RESULT_STORE_HH_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "harness/sweep.hh"
#include "sim/config.hh"

namespace gtsc::serve
{

/** Entry-format generation; bump when the on-disk layout changes. */
constexpr int kStoreSchemaVersion = 4;

/**
 * Simulator-output generation baked into every key and entry: bump
 * whenever a change alters what runOne() produces for the same
 * configuration, so stale results can never be served.
 */
extern const char *const kStoreCodeVersion;

struct StoreStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t puts = 0;
    std::uint64_t evictions = 0;
    /** Entries rejected (truncated/corrupt/version) and removed. */
    std::uint64_t repaired = 0;
};

class ResultStore final : public harness::SweepCache
{
  public:
    struct Options
    {
        /**
         * Store root. Empty resolves through the GTSC_RESULT_STORE
         * environment variable, then ~/.cache/gtsc.
         */
        std::string root;

        /** Size cap in bytes for LRU eviction; 0 = unlimited. */
        std::uint64_t maxBytes = 256ull << 20;

        /** Version stamp; overridable for mismatch tests. */
        std::string codeVersion;
    };

    explicit ResultStore(Options opts);

    /** GTSC_RESULT_STORE env var, else ~/.cache/gtsc. */
    static std::string defaultRoot();

    const std::string &root() const { return root_; }

    /** Hex SHA-256 store key for one experiment cell. */
    std::string keyFor(const sim::Config &cfg,
                       const std::string &protocol,
                       const std::string &consistency,
                       const std::string &workload) const;

    /** Absolute path the entry for `key` lives at. */
    std::string entryPath(const std::string &key) const;

    // SweepCache interface (thread- and process-safe).
    bool lookup(const harness::RunSpec &spec,
                harness::RunResult *out) override;
    void insert(const harness::RunSpec &spec,
                const harness::RunResult &result) override;

    /** Key-level access (daemon / tests). */
    bool get(const std::string &key, harness::RunResult *out);
    void put(const std::string &key, const harness::RunResult &r);

    StoreStats stats() const;

    /** Bytes and entry count currently on disk (full scan). */
    std::uint64_t diskBytes() const;
    std::size_t entryCount() const;

  private:
    void evictLocked();

    Options opts_;
    std::string root_; ///< resolved root
    std::string dir_;  ///< root + "/v" + kStoreSchemaVersion

    mutable std::mutex mu_; ///< guards stats_ (files use flock)
    StoreStats stats_;
};

/**
 * Build the store the `sweep.store` knob asks for, or nullptr when
 * the knob is off. Root comes from `sweep.store_path`, then the
 * GTSC_RESULT_STORE environment variable, then ~/.cache/gtsc; the
 * cap from `sweep.store_max_bytes`.
 */
std::shared_ptr<ResultStore> storeFromConfig(const sim::Config &cfg);

} // namespace gtsc::serve

#endif // GTSC_SERVE_RESULT_STORE_HH_
