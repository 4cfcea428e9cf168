/**
 * @file
 * Persistent trace store tests (sim/trace_store.hh): round-trip
 * hit/miss, full-tuple (bench, insts, seed) keying, corruption
 * detection (bit-flip → regeneration, not a crash), atomic writes (no
 * partial files visible), and the SweepEngine integration that makes a
 * second sweep over the same grid perform zero trace generations. The cache-directory properties the store
 * shares with the result cache (stale-temp reclaim, publish faults,
 * torn and truncated files, mutation fuzz) are in test_cache_dir.cc.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "isa/trace_io.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "sim/trace_store.hh"

namespace fs = std::filesystem;

namespace icfp {
namespace {

std::string
makeTempDir()
{
    std::string tmpl =
        (fs::temp_directory_path() / "icfp_store_XXXXXX").string();
    const char *dir = mkdtemp(tmpl.data());
    EXPECT_NE(dir, nullptr);
    return tmpl;
}

std::string
traceBytes(const Trace &trace)
{
    std::ostringstream os;
    writeTrace(os, trace);
    return os.str();
}

Trace
genTrace(const std::string &bench, uint64_t insts,
         std::optional<uint64_t> seed = std::nullopt)
{
    BenchmarkSpec spec = findBenchmark(bench);
    if (seed)
        spec.workload.seed = *seed;
    return makeBenchTrace(spec, insts);
}

class TraceStoreTest : public ::testing::Test
{
  protected:
    void SetUp() override { dir_ = makeTempDir(); }
    void TearDown() override { fs::remove_all(dir_); }

    fs::path storePath(const TraceId &id) { return fs::path(dir_) / id.fileName(); }

    std::string dir_;
};

TEST_F(TraceStoreTest, RoundTripHitAfterMiss)
{
    TraceStore store(dir_);
    const TraceId id{"gzip", 1000, std::nullopt};

    EXPECT_FALSE(store.load(id).has_value());
    EXPECT_EQ(store.stats().misses, 1u);

    const Trace trace = genTrace("gzip", 1000);
    store.store(id, trace);
    EXPECT_EQ(store.stats().writes, 1u);
    EXPECT_TRUE(fs::exists(storePath(id)));

    const std::optional<Trace> cached = store.load(id);
    ASSERT_TRUE(cached.has_value());
    EXPECT_EQ(traceBytes(*cached), traceBytes(trace));
    EXPECT_EQ(store.stats().hits, 1u);

    // A second store instance over the same directory also hits (the
    // cross-process reuse the store exists for).
    TraceStore other(dir_);
    EXPECT_TRUE(other.load(id).has_value());
}

TEST_F(TraceStoreTest, KeysOnFullBenchInstsSeedTuple)
{
    // Regression: a trace cache keyed on bench name alone would alias
    // these three requests; the store must treat every (bench, insts,
    // seed) as a distinct artifact.
    TraceStore store(dir_);
    const TraceId plain{"gzip", 1000, std::nullopt};
    const TraceId budget{"gzip", 500, std::nullopt};
    const TraceId seeded{"gzip", 1000, uint64_t{42}};

    EXPECT_NE(plain.fileName(), budget.fileName());
    EXPECT_NE(plain.fileName(), seeded.fileName());
    EXPECT_NE(plain.keyString(), seeded.keyString());

    store.store(plain, genTrace("gzip", 1000));
    EXPECT_FALSE(store.load(budget).has_value());
    EXPECT_FALSE(store.load(seeded).has_value());

    store.store(budget, genTrace("gzip", 500));
    store.store(seeded, genTrace("gzip", 1000, uint64_t{42}));
    const auto a = store.load(plain);
    const auto b = store.load(budget);
    const auto c = store.load(seeded);
    ASSERT_TRUE(a && b && c);
    EXPECT_NE(traceBytes(*a), traceBytes(*b));
    EXPECT_NE(traceBytes(*a), traceBytes(*c));
}

TEST_F(TraceStoreTest, WorkloadDefVersionBumpInvalidatesStoredTrace)
{
    // Editing one benchmark's generator and bumping its
    // BenchmarkSpec::defVersion must invalidate exactly that
    // benchmark's stored traces: same file name, so the old file is
    // found, but the embedded key no longer matches — the store treats
    // it as corruption, deletes it, and the caller regenerates.
    TraceStore store(dir_);
    TraceId v1{"gzip", 1000, std::nullopt, 1};
    TraceId v2 = v1;
    v2.defVersion = 2;
    ASSERT_EQ(v1.fileName(), v2.fileName()); // version lives in the key
    ASSERT_NE(v1.keyString(), v2.keyString());

    store.store(v1, genTrace("gzip", 1000));
    EXPECT_TRUE(store.load(v1).has_value());

    EXPECT_FALSE(store.load(v2).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_FALSE(fs::exists(storePath(v2))); // stale file dropped

    // The regenerated v2 publication serves v2 (and no longer v1).
    store.store(v2, genTrace("gzip", 1000));
    EXPECT_TRUE(store.load(v2).has_value());
    EXPECT_FALSE(store.load(v1).has_value());
}

TEST_F(TraceStoreTest, EngineStampsBenchmarkDefVersionIntoStoreKeys)
{
    // The sweep engine resolves each bench's defVersion into the
    // TraceId it stores under; a key with a different version must not
    // serve what the engine wrote.
    auto shared = std::make_shared<TraceStore>(dir_);
    SweepEngine engine(1);
    engine.setTraceStore(shared);
    (void)engine.trace("gzip", 1000);
    EXPECT_EQ(engine.traceGenerations(), 1u);

    TraceId current{"gzip", 1000, std::nullopt,
                    findBenchmark("gzip").defVersion};
    EXPECT_TRUE(shared->load(current).has_value());
    TraceId bumped = current;
    bumped.defVersion = current.defVersion + 1;
    EXPECT_FALSE(shared->load(bumped).has_value());
}

TEST_F(TraceStoreTest, OldStoreFormatIsAMissThatIsReplaced)
{
    // A file an older binary published: a well-formed store file whose
    // key names trace format 2. It must read as a miss — never be
    // parsed, never be fatal — be deleted, and be replaced by the
    // regenerated trace under the current key.
    const TraceId id{"gzip", 1000, std::nullopt,
                     findBenchmark("gzip").defVersion};
    std::string key = id.keyString();
    ASSERT_EQ(key.rfind("fmt=", 0), 0u);
    key.replace(0, key.find(' '), "fmt=2");
    const std::string payload = "ICFPTRC2" + std::string(64, '\0');
    const auto u64 = [](uint64_t v) {
        return std::string(reinterpret_cast<const char *>(&v), 8);
    };
    std::ofstream(storePath(id), std::ios::binary)
        << "ICFPSTR1" << u64(key.size()) << key
        << u64(fnv1a64(payload.data(), payload.size()))
        << u64(payload.size()) << payload;

    auto store = std::make_shared<TraceStore>(dir_);
    EXPECT_FALSE(store->load(id).has_value());
    EXPECT_EQ(store->stats().misses, 1u);
    EXPECT_FALSE(fs::exists(storePath(id)));

    SweepEngine engine(1);
    engine.setTraceStore(store);
    const Trace &regen = engine.trace("gzip", 1000);
    EXPECT_EQ(engine.traceGenerations(), 1u);
    ASSERT_TRUE(fs::exists(storePath(id)));
    std::ifstream in(storePath(id), std::ios::binary);
    std::string header(8 + 8 + id.keyString().size(), '\0');
    in.read(header.data(), static_cast<std::streamsize>(header.size()));
    EXPECT_EQ(header.substr(16), id.keyString());
    const std::optional<Trace> hit = store->load(id);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(traceBytes(*hit), traceBytes(regen));
}

TEST_F(TraceStoreTest, KeyMismatchInsideFileIsCorruption)
{
    // Rename a valid file over another key's slot: the embedded key
    // string must reject it even though the hash is intact.
    TraceStore store(dir_);
    const TraceId id{"gzip", 1000, std::nullopt};
    const TraceId other{"gzip", 999, std::nullopt};
    store.store(id, genTrace("gzip", 1000));
    fs::rename(storePath(id), storePath(other));

    EXPECT_FALSE(store.load(other).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_FALSE(fs::exists(storePath(other)));
}

TEST_F(TraceStoreTest, BitFlipDetectedAndRegenerated)
{
    TraceStore store(dir_);
    const TraceId id{"gzip", 1000, std::nullopt};
    const Trace trace = genTrace("gzip", 1000);
    store.store(id, trace);

    // Flip one bit deep in the payload.
    const fs::path path = storePath(id);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-64, std::ios::end);
    char byte = 0;
    f.get(byte);
    f.seekp(-64, std::ios::end);
    f.put(static_cast<char>(byte ^ 0x01));
    f.close();

    // No crash: the load reports a miss, counts the corruption, and
    // removes the bad file.
    EXPECT_FALSE(store.load(id).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_FALSE(fs::exists(path));

    // The regenerate path: an engine backed by this store rebuilds the
    // trace and re-publishes it.
    auto shared = std::make_shared<TraceStore>(dir_);
    SweepEngine engine(1);
    engine.setTraceStore(shared);
    const Trace &regen = engine.trace("gzip", 1000);
    EXPECT_EQ(traceBytes(regen), traceBytes(trace));
    EXPECT_EQ(engine.traceGenerations(), 1u);
    EXPECT_TRUE(fs::exists(path));
}

TEST_F(TraceStoreTest, AtomicWriteLeavesNoPartialFiles)
{
    TraceStore store(dir_);
    store.store({"gzip", 800, std::nullopt}, genTrace("gzip", 800));
    store.store({"mesa", 800, std::nullopt}, genTrace("mesa", 800));

    size_t published = 0;
    for (const fs::directory_entry &de : fs::directory_iterator(dir_)) {
        EXPECT_EQ(de.path().extension(), ".trc")
            << "stray file: " << de.path();
        ++published;
    }
    EXPECT_EQ(published, 2u);
}

TEST_F(TraceStoreTest, SecondSweepOverSameGridGeneratesNothing)
{
    SweepSpec spec;
    spec.benches = {"gzip", "mesa"};
    const SimConfig cfg;
    spec.variants = {{"base", CoreKind::InOrder, cfg},
                     {"icfp", CoreKind::ICfp, cfg}};
    spec.insts = 2000;

    auto store = std::make_shared<TraceStore>(dir_);
    SweepEngine cold(2);
    cold.setTraceStore(store);
    const std::vector<SweepResult> first = cold.run(spec);
    EXPECT_EQ(cold.traceGenerations(), spec.benches.size());
    EXPECT_EQ(store->stats().writes, spec.benches.size());

    // A fresh engine (fresh process stand-in) over the same store: every
    // trace is served from disk, zero generations, identical report.
    auto warm_store = std::make_shared<TraceStore>(dir_);
    SweepEngine warm(2);
    warm.setTraceStore(warm_store);
    const std::vector<SweepResult> second = warm.run(spec);
    EXPECT_EQ(warm.traceGenerations(), 0u);
    EXPECT_EQ(warm_store->stats().hits, spec.benches.size());
    EXPECT_EQ(warm_store->stats().misses, 0u);
    EXPECT_EQ(sweepCsv(second), sweepCsv(first));
    EXPECT_EQ(sweepJson(second), sweepJson(first));
}

} // namespace
} // namespace icfp
