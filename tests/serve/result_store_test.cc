/**
 * @file
 * Unit tests for the persistent content-addressed result store and
 * its building blocks: the SHA-256 implementation (FIPS 180-4 known
 * answers), canonical key derivation (spelling/order invariance,
 * harness-knob exclusion), the bit-exact result codec, and the store
 * itself — crash/corruption repair, version fencing, concurrent
 * writers, and LRU eviction under a size cap.
 */

#include "serve/result_store.hh"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/report.hh"
#include "serve/result_codec.hh"
#include "serve/sha256.hh"

namespace fs = std::filesystem;
using namespace gtsc;
using serve::ResultStore;
using serve::Sha256;

namespace
{

/** Fresh temp directory, removed on destruction. */
struct TempDir
{
    TempDir()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "gtsc-store-test-XXXXXX")
                .string();
        path = mkdtemp(tmpl.data());
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    std::string path;
};

ResultStore
makeStore(const std::string &root, std::uint64_t maxBytes = 0,
          const std::string &codeVersion = "")
{
    ResultStore::Options opts;
    opts.root = root;
    opts.maxBytes = maxBytes;
    opts.codeVersion = codeVersion;
    return ResultStore(opts);
}

/** A synthetic result exercising every codec field class. */
harness::RunResult
sampleResult()
{
    harness::RunResult r;
    r.workload = "bh";
    r.protocol = "gtsc";
    r.consistency = "rc";
    r.cycles = 123456;
    r.checkerViolations = 0;
    r.loadsChecked = 1000;
    r.verified = true;
    r.fastForwarded = 500;
    r.energy.core = 1.0 / 3.0;
    r.energy.dram = 2e-9;
    r.stats.counter("sm.instructions") = 789012;
    r.stats.counter("l1.hits") = 10;
    r.stats.counter("noc.req.packets") = 44;
    // Enough samples to engage the reservoir stride logic, plus
    // values whose doubles don't round-trip through decimal text.
    sim::Distribution &d = r.stats.distribution("noc.req.latency");
    for (int i = 0; i < 2000; ++i)
        d.sample(0.1 * i + 1.0 / 3.0);
    r.obsFiles = {"/tmp/out/trace.jsonl", "/tmp/out/stats.csv"};
    return r;
}

} // namespace

// ---------------------------------------------------------------
// SHA-256

TEST(Sha256, Fips180KnownAnswers)
{
    EXPECT_EQ(Sha256::hexDigest(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(Sha256::hexDigest("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(Sha256::hexDigest("abcdbcdecdefdefgefghfghighijhijk"
                                "ijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, StreamingMatchesOneShot)
{
    std::string msg(1000, 'x');
    Sha256 h;
    for (std::size_t i = 0; i < msg.size(); i += 7)
        h.update(msg.substr(i, 7));
    std::string hex;
    for (std::uint8_t b : h.digest()) {
        static const char *k = "0123456789abcdef";
        hex += k[b >> 4];
        hex += k[b & 0xf];
    }
    EXPECT_EQ(hex, Sha256::hexDigest(msg));
}

// ---------------------------------------------------------------
// Key derivation

TEST(StoreKey, InvariantUnderSpellingAndInsertionOrder)
{
    TempDir td;
    ResultStore store = makeStore(td.path);

    sim::Config a;
    a.set("gpu.num_sms", "0x10");
    a.set("check.enabled", "true");
    a.set("tc.lease", "800");

    sim::Config b; // different order, different spellings
    b.set("tc.lease", "800");
    b.setInt("gpu.num_sms", 16);
    b.set("check.enabled", "1");

    EXPECT_EQ(store.keyFor(a, "gtsc", "rc", "bh"),
              store.keyFor(b, "gtsc", "rc", "bh"));
}

TEST(StoreKey, SensitiveToEveryIdentityComponent)
{
    TempDir td;
    ResultStore store = makeStore(td.path);
    sim::Config cfg;
    cfg.setInt("gpu.num_sms", 8);

    std::string base = store.keyFor(cfg, "gtsc", "rc", "bh");
    EXPECT_EQ(base.size(), 64u);
    EXPECT_NE(base, store.keyFor(cfg, "tc", "rc", "bh"));
    EXPECT_NE(base, store.keyFor(cfg, "gtsc", "sc", "bh"));
    EXPECT_NE(base, store.keyFor(cfg, "gtsc", "rc", "cc"));
    sim::Config other = cfg;
    other.setInt("gpu.num_sms", 16);
    EXPECT_NE(base, store.keyFor(other, "gtsc", "rc", "bh"));
}

TEST(StoreKey, HarnessOnlySweepKnobsExcluded)
{
    TempDir td;
    ResultStore store = makeStore(td.path);
    sim::Config plain;
    plain.setInt("gpu.num_sms", 8);

    sim::Config swept = plain;
    swept.setBool("sweep.store", true);
    swept.set("sweep.store_path", "/somewhere/else");
    swept.setInt("sweep.store_max_bytes", 1234);

    // Running with the store on must look up the very key a
    // store-less run would have produced.
    EXPECT_EQ(store.keyFor(plain, "gtsc", "rc", "bh"),
              store.keyFor(swept, "gtsc", "rc", "bh"));
}

TEST(StoreKey, CodeVersionChangesKey)
{
    TempDir td;
    ResultStore a = makeStore(td.path, 0, "vA");
    ResultStore b = makeStore(td.path, 0, "vB");
    sim::Config cfg;
    EXPECT_NE(a.keyFor(cfg, "gtsc", "rc", "bh"),
              b.keyFor(cfg, "gtsc", "rc", "bh"));
}

// ---------------------------------------------------------------
// Codec

TEST(ResultCodec, RoundTripIsBitExact)
{
    harness::RunResult r = sampleResult();
    std::string text = serve::encodeResult(r);

    harness::RunResult back;
    std::string err;
    ASSERT_TRUE(serve::decodeResult(text, &back, &err)) << err;

    // Re-encoding the decoded result must reproduce the bytes —
    // every field, double bit pattern, counter and distribution
    // (reservoir included) survived.
    EXPECT_EQ(serve::encodeResult(back), text);
    // And the derived reports the figures print are identical too.
    EXPECT_EQ(harness::csvRow(back), harness::csvRow(r));
    EXPECT_EQ(harness::toJson(back), harness::toJson(r));
    EXPECT_EQ(back.stats.toString(), r.stats.toString());
    EXPECT_EQ(back.stats.getDistribution("noc.req.latency").p99(),
              r.stats.getDistribution("noc.req.latency").p99());
    EXPECT_EQ(back.obsFiles, r.obsFiles);
    EXPECT_EQ(back.obs, nullptr);
}

TEST(ResultCodec, RejectsMalformedPayloads)
{
    harness::RunResult r = sampleResult();
    std::string text = serve::encodeResult(r);
    harness::RunResult out;
    std::string err;
    EXPECT_FALSE(
        serve::decodeResult(text.substr(0, text.size() / 2), &out,
                            &err));
    EXPECT_FALSE(serve::decodeResult("z bogus line\n", &out, &err));
    EXPECT_FALSE(serve::decodeResult("u cycles notanumber\n", &out,
                                     &err));
    // strtoull alone would wrap a sign, skip a space and saturate an
    // overflow; an entry holding any of them is corrupt.
    for (const char *bad :
         {"u cycles -1\n", "u cycles  7\n", "c l1.hits +2\n",
          "u cycles 18446744073709551616\n", "f energy_l1 -1\n",
          "D noc.latency -1 0 0 0 0 0 0\n"})
        EXPECT_FALSE(serve::decodeResult(bad, &out, &err)) << bad;
    // Counts live once, as 'c' lines: the per-field copies earlier
    // schemas wrote are unknown fields now.
    EXPECT_FALSE(serve::decodeResult("u instructions 5\n", &out, &err));
    // A reservoir longer than any Distribution keeps is refused
    // before anything is allocated for it.
    EXPECT_FALSE(serve::decodeResult(
        "D noc.latency 1 0 0 0 0 0 18446744073709551615\n", &out, &err));
    EXPECT_NE(err.find("oversized reservoir"), std::string::npos) << err;
}

// ---------------------------------------------------------------
// Store behaviour

TEST(ResultStore, PutGetRoundTrip)
{
    TempDir td;
    ResultStore store = makeStore(td.path);
    harness::RunResult r = sampleResult();
    std::string key(64, 'a');

    harness::RunResult out;
    EXPECT_FALSE(store.get(key, &out)); // cold
    store.put(key, r);
    ASSERT_TRUE(store.get(key, &out));
    EXPECT_EQ(serve::encodeResult(out), serve::encodeResult(r));

    serve::StoreStats s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.puts, 1u);
    EXPECT_EQ(s.repaired, 0u);
    EXPECT_EQ(store.entryCount(), 1u);
}

TEST(ResultStore, TruncatedEntryIsMissAndRepaired)
{
    TempDir td;
    ResultStore store = makeStore(td.path);
    std::string key(64, 'b');
    store.put(key, sampleResult());

    // Simulate a crash mid-write-through: chop the entry in half.
    std::string path = store.entryPath(key);
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        bytes = buf.str();
    }
    {
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, bytes.size() / 2);
    }

    harness::RunResult out;
    EXPECT_FALSE(store.get(key, &out));
    EXPECT_EQ(store.stats().repaired, 1u);
    EXPECT_FALSE(fs::exists(path)) << "bad entry must be removed";

    // A fresh put repairs the slot and hits again.
    store.put(key, sampleResult());
    EXPECT_TRUE(store.get(key, &out));
}

TEST(ResultStore, GarbageEntryIsMissAndRepaired)
{
    TempDir td;
    ResultStore store = makeStore(td.path);
    std::string key(64, 'c');
    std::string path = store.entryPath(key);
    fs::create_directories(fs::path(path).parent_path());
    {
        std::ofstream out(path, std::ios::binary);
        out << "not a store entry at all\n";
    }
    harness::RunResult out;
    EXPECT_FALSE(store.get(key, &out));
    EXPECT_EQ(store.stats().repaired, 1u);
    EXPECT_FALSE(fs::exists(path));
}

TEST(ResultStore, VersionMismatchIsMiss)
{
    TempDir td;
    std::string key(64, 'd');
    {
        ResultStore vA = makeStore(td.path, 0, "vA");
        vA.put(key, sampleResult());
        harness::RunResult out;
        EXPECT_TRUE(vA.get(key, &out));
    }
    // A store from a different simulator generation must never
    // serve that entry, even when handed the same key.
    ResultStore vB = makeStore(td.path, 0, "vB");
    harness::RunResult out;
    EXPECT_FALSE(vB.get(key, &out));
    EXPECT_EQ(vB.stats().hits, 0u);
    EXPECT_GE(vB.stats().misses, 1u);
}

TEST(ResultStore, ConcurrentWritersOneWinnerNoTornReads)
{
    TempDir td;
    std::string key(64, 'e');
    harness::RunResult r = sampleResult();

    // Writers hammer the same key from separate store instances
    // (same root — the flock is what serializes them, not the
    // in-process mutex) while a reader polls. The reader must only
    // ever see a complete entry: any torn read would decode-fail
    // and bump `repaired`.
    constexpr int kWriters = 3;
    constexpr int kPutsPerWriter = 20;
    std::vector<std::thread> threads;
    threads.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&td, &key, &r] {
            ResultStore mine = makeStore(td.path);
            for (int i = 0; i < kPutsPerWriter; ++i)
                mine.put(key, r);
        });
    }
    ResultStore reader = makeStore(td.path);
    std::uint64_t observedHits = 0;
    for (int i = 0; i < 200; ++i) {
        harness::RunResult out;
        if (reader.get(key, &out)) {
            observedHits++;
            EXPECT_EQ(serve::encodeResult(out),
                      serve::encodeResult(r));
        }
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(reader.stats().repaired, 0u)
        << "reader saw a torn entry";
    EXPECT_EQ(reader.entryCount(), 1u) << "exactly one winner";
    harness::RunResult out;
    EXPECT_TRUE(reader.get(key, &out));
    EXPECT_EQ(serve::encodeResult(out), serve::encodeResult(r));
    (void)observedHits; // may be 0 early on; correctness is above
}

TEST(ResultStore, EvictionRespectsCapAndKeepsRecentlyUsed)
{
    TempDir td;
    harness::RunResult r = sampleResult();
    auto keyOf = [](char c) { return std::string(64, c); };

    std::uint64_t entryBytes = 0;
    {
        ResultStore unlimited = makeStore(td.path);
        unlimited.put(keyOf('a'), r);
        entryBytes = unlimited.diskBytes();
        ASSERT_GT(entryBytes, 0u);
        unlimited.put(keyOf('b'), r);
        unlimited.put(keyOf('c'), r);

        // Pin distinct ages: a oldest, then b, then c. All three
        // are pinned hours apart so the hit-refresh below is
        // unambiguous even on filesystems with one-second
        // timestamp granularity.
        using namespace std::chrono_literals;
        auto now = fs::last_write_time(
            unlimited.entryPath(keyOf('c')));
        fs::last_write_time(unlimited.entryPath(keyOf('a')),
                            now - 3h);
        fs::last_write_time(unlimited.entryPath(keyOf('b')),
                            now - 2h);
        fs::last_write_time(unlimited.entryPath(keyOf('c')),
                            now - 1h);

        // A hit refreshes 'a' to now — it becomes most recent.
        harness::RunResult out;
        ASSERT_TRUE(unlimited.get(keyOf('a'), &out));
    }

    // Cap fits two entries; the next put triggers eviction of the
    // least recently used, which is now 'b' (a was refreshed).
    ResultStore capped = makeStore(td.path, entryBytes * 5 / 2);
    capped.put(keyOf('d'), r);

    EXPECT_LE(capped.diskBytes(), entryBytes * 5 / 2);
    EXPECT_GE(capped.stats().evictions, 1u);
    harness::RunResult out;
    EXPECT_TRUE(capped.get(keyOf('d'), &out)) << "newest kept";
    EXPECT_TRUE(capped.get(keyOf('a'), &out))
        << "hit-refreshed entry survived";
    EXPECT_FALSE(fs::exists(capped.entryPath(keyOf('b'))))
        << "LRU victim evicted";
}

TEST(ResultStore, StoreFromConfigHonoursKnobs)
{
    TempDir td;
    sim::Config off;
    EXPECT_EQ(serve::storeFromConfig(off), nullptr);
    off.setBool("sweep.store", false);
    EXPECT_EQ(serve::storeFromConfig(off), nullptr);

    sim::Config on;
    on.setBool("sweep.store", true);
    on.set("sweep.store_path", td.path + "/sub");
    auto store = serve::storeFromConfig(on);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->root(), td.path + "/sub");
}
