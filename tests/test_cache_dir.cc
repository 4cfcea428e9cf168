/**
 * @file
 * Tests of the checksummed cache directory (common/durable_file.hh),
 * run through both caches that keep their files in one: the trace
 * store (ICFPSTR1 .trc files) and the result cache's disk tier
 * (ICFPRES1 .res files). Each test is parameterised over the two, so a
 * property proven for one is proven for the other: stale temp files
 * are reclaimed on construction, every durable-publish fault degrades
 * to a miss (the result cache keeps a memory copy) and leaves no file
 * behind, a torn or truncated entry is caught by the next instance,
 * deleted and recomputed, and a seeded mutation fuzz of valid entries
 * (bit flips, truncations, extensions, splices of one store's file into
 * the other's) only ever yields the exact original payload or a miss
 * that deleted the file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "common/durable_file.hh"
#include "common/fault_inject.hh"
#include "common/rng.hh"
#include "isa/trace_io.hh"
#include "service/result_cache.hh"
#include "sim/simulator.hh"
#include "sim/trace_store.hh"
#include "sim/version_info.hh"

namespace fs = std::filesystem;

namespace icfp {
namespace {

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const fs::path &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/**
 * One of the caches that keep their files in a CacheDir, driven through
 * the operations their tests share. Entry i is a fixed payload under a
 * fixed key.
 */
class CacheUnderTest
{
  public:
    virtual ~CacheUnderTest() = default;
    /** Its fault-point prefix ("trace_store" / "result_cache"). */
    virtual std::string faultPrefix() const = 0;
    /** A fresh instance over @p dir: a restarted process. */
    virtual void open(const std::string &dir) = 0;
    virtual void put(int entry) = 0;
    /** The payload bytes served for @p entry; nullopt on a miss. */
    virtual std::optional<std::string> get(int entry) = 0;
    /** The payload bytes put(@p entry) publishes. */
    virtual std::string payload(int entry) const = 0;
    virtual fs::path file(int entry) const = 0;
    virtual uint64_t corrupt() const = 0;
    virtual uint64_t writeFailures() const = 0;
    /** Does an entry whose disk write failed still serve (from memory)? */
    virtual bool keepsMemoryCopy() const = 0;
};

class TraceStoreUnderTest : public CacheUnderTest
{
  public:
    std::string faultPrefix() const override { return "trace_store"; }
    void open(const std::string &dir) override
    {
        store_ = std::make_unique<TraceStore>(dir);
        puts_ = 0;
    }
    void put(int entry) override
    {
        store_->store(id(entry), trace(entry));
        ++puts_;
    }
    std::optional<std::string> get(int entry) override
    {
        const std::optional<Trace> hit = store_->load(id(entry));
        if (!hit)
            return std::nullopt;
        std::string bytes;
        writeTrace(bytes, *hit);
        return bytes;
    }
    std::string payload(int entry) const override
    {
        std::string bytes;
        writeTrace(bytes, trace(entry));
        return bytes;
    }
    fs::path file(int entry) const override
    {
        return fs::path(store_->dir()) / id(entry).fileName();
    }
    uint64_t corrupt() const override { return store_->stats().corrupt; }
    // The store counts publications, not failures.
    uint64_t writeFailures() const override
    {
        return puts_ - store_->stats().writes;
    }
    bool keepsMemoryCopy() const override { return false; }

  private:
    static TraceId id(int entry)
    {
        return {entry == 0 ? "gzip" : "mesa", 1000, std::nullopt};
    }
    static const Trace &trace(int entry)
    {
        static const Trace traces[2] = {
            makeBenchTrace(findBenchmark("gzip"), 1000),
            makeBenchTrace(findBenchmark("mesa"), 1000)};
        return traces[entry];
    }

    std::unique_ptr<TraceStore> store_;
    uint64_t puts_ = 0;
};

class ResultCacheUnderTest : public CacheUnderTest
{
  public:
    std::string faultPrefix() const override { return "result_cache"; }
    void open(const std::string &dir) override
    {
        dir_ = dir;
        cache_ = std::make_unique<service::ResultCache>(1 << 20, dir);
    }
    void put(int entry) override
    {
        cache_->insert(key(entry), payload(entry));
    }
    std::optional<std::string> get(int entry) override
    {
        return cache_->lookup(key(entry));
    }
    std::string payload(int entry) const override
    {
        std::string artifact = "bench,core,cycles\n";
        for (int row = 0; row < 40; ++row)
            artifact += "b" + std::to_string(entry) + ",icfp," +
                        std::to_string(1000 * entry + row) + "\n";
        return artifact;
    }
    fs::path file(int entry) const override
    {
        return fs::path(dir_) / (fingerprintHex(key(entry)) + ".res");
    }
    uint64_t corrupt() const override
    {
        return cache_->stats().diskCorrupt;
    }
    uint64_t writeFailures() const override
    {
        return cache_->stats().diskWriteFailures;
    }
    bool keepsMemoryCopy() const override { return true; }

  private:
    static uint64_t key(int entry) { return 0xc0ffee00ull + entry; }

    std::string dir_;
    std::unique_ptr<service::ResultCache> cache_;
};

enum class Kind { TraceStore, ResultCache };

std::unique_ptr<CacheUnderTest>
makeCache(Kind kind)
{
    if (kind == Kind::TraceStore)
        return std::make_unique<TraceStoreUnderTest>();
    return std::make_unique<ResultCacheUnderTest>();
}

std::string
kindName(const ::testing::TestParamInfo<Kind> &info)
{
    return info.param == Kind::TraceStore ? "TraceStore" : "ResultCache";
}

std::string
makeTempDir()
{
    std::string tmpl =
        (fs::temp_directory_path() / "icfp_cachedir_XXXXXX").string();
    const char *dir = mkdtemp(tmpl.data());
    EXPECT_NE(dir, nullptr);
    return tmpl;
}

class CacheDirTest : public ::testing::TestWithParam<Kind>
{
  protected:
    void SetUp() override
    {
        fault::disarmAll();
        dir_ = makeTempDir();
        cache_ = makeCache(GetParam());
        cache_->open(dir_);
    }
    void TearDown() override
    {
        fs::remove_all(dir_);
        fault::disarmAll();
    }

    std::string dir_;
    std::unique_ptr<CacheUnderTest> cache_;
};

TEST_P(CacheDirTest, RoundTripAcrossInstances)
{
    EXPECT_FALSE(cache_->get(0).has_value());
    cache_->put(0);
    cache_->open(dir_);
    EXPECT_EQ(cache_->get(0), cache_->payload(0));
    EXPECT_FALSE(cache_->get(1).has_value());
}

TEST_P(CacheDirTest, StaleTempFilesReclaimedOnConstruction)
{
    // Orphan from a killed writer: old enough to be stale.
    const fs::path stale = cache_->file(0).string() + ".tmp.999.1";
    writeFile(stale, "partial");
    fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                   std::chrono::hours(1));
    // A freshly-written temp (a live writer mid-publish) must survive.
    const fs::path live = cache_->file(1).string() + ".tmp.999.2";
    writeFile(live, "partial");

    cache_->open(dir_);
    EXPECT_FALSE(fs::exists(stale));
    EXPECT_TRUE(fs::exists(live));
}

TEST_P(CacheDirTest, FailedPublishDegradesAndLeavesNoFile)
{
    // A publish that cannot make its bytes durable is skipped: neither
    // the destination nor an orphaned temp survives, the failure is
    // counted, and the cache keeps answering (from memory, if it has a
    // memory tier). Each fault is one-shot: the retry publishes.
    for (const char *step : {"write.short", "fsync", "rename"}) {
        SCOPED_TRACE(step);
        fs::remove_all(dir_);
        cache_->open(dir_);
        const std::string point = cache_->faultPrefix() + "." + step;
        ASSERT_TRUE(fault::armSpec(point + ":1"));
        cache_->put(0);
        EXPECT_EQ(fault::firedCount(point.c_str()), 1u);
        EXPECT_EQ(cache_->writeFailures(), 1u);
        EXPECT_TRUE(fs::is_empty(dir_));
        EXPECT_EQ(cache_->get(0).has_value(), cache_->keepsMemoryCopy());

        cache_->put(0);
        EXPECT_EQ(cache_->writeFailures(), 1u);
        cache_->open(dir_);
        EXPECT_EQ(cache_->get(0), cache_->payload(0));
    }
}

TEST_P(CacheDirTest, TornPublicationCaughtByNextInstanceAndRecomputed)
{
    // write.torn publishes half the bytes and reports success — the
    // crash the writer never saw. The next instance's checksum must
    // catch it: a miss, counted corrupt, the file removed, and the
    // recomputed entry published cleanly.
    const std::string point = cache_->faultPrefix() + ".write.torn";
    ASSERT_TRUE(fault::armSpec(point + ":1"));
    cache_->put(0);
    EXPECT_EQ(fault::firedCount(point.c_str()), 1u);
    EXPECT_EQ(cache_->writeFailures(), 0u); // the writer believed it
    ASSERT_TRUE(fs::exists(cache_->file(0)));
    fault::disarmAll();

    cache_->open(dir_);
    EXPECT_FALSE(cache_->get(0).has_value());
    EXPECT_EQ(cache_->corrupt(), 1u);
    EXPECT_FALSE(fs::exists(cache_->file(0)));

    cache_->put(0);
    cache_->open(dir_);
    EXPECT_EQ(cache_->get(0), cache_->payload(0));
    EXPECT_EQ(cache_->corrupt(), 0u);
}

TEST_P(CacheDirTest, TruncatedEntryDetectedDeletedRecomputed)
{
    cache_->put(0);
    const fs::path file = cache_->file(0);
    fs::resize_file(file, fs::file_size(file) / 2);

    cache_->open(dir_);
    EXPECT_FALSE(cache_->get(0).has_value());
    EXPECT_EQ(cache_->corrupt(), 1u);
    EXPECT_FALSE(fs::exists(file)); // deleted, not retried forever

    cache_->put(0);
    cache_->open(dir_);
    EXPECT_EQ(cache_->get(0), cache_->payload(0));
}

TEST_P(CacheDirTest, MutationFuzzServesOriginalOrDeletes)
{
    // Seeded mutations of a valid entry: bit flips (biased toward the
    // header), truncations, extensions, and splices with the other
    // store's valid file. Each mutant is loaded by a fresh instance and
    // must yield either the exact original payload or a miss that
    // deleted the file — never a crash, never different bytes.
    constexpr int kIterations = 300;
    cache_->put(0);
    const std::string original = readFile(cache_->file(0));
    const std::string payload = cache_->payload(0);

    const std::string donor_dir = makeTempDir();
    const std::unique_ptr<CacheUnderTest> donor = makeCache(
        GetParam() == Kind::TraceStore ? Kind::ResultCache
                                       : Kind::TraceStore);
    donor->open(donor_dir);
    donor->put(0);
    const std::string other = readFile(donor->file(0));
    fs::remove_all(donor_dir);

    Rng rng(0x1cf9 + static_cast<int>(GetParam()));
    for (int i = 0; i < kIterations; ++i) {
        std::string mutant = original;
        switch (rng.below(4)) {
          case 0: { // 1-4 bit flips, half of them in the first 64 bytes
            for (uint64_t n = rng.range(1, 4); n > 0; --n) {
                const size_t span = rng.below(2) ? 64 : mutant.size();
                const size_t at = rng.below(std::min(span, mutant.size()));
                mutant[at] = static_cast<char>(
                    mutant[at] ^ (1u << rng.below(8)));
            }
            break;
          }
          case 1: // truncation
            mutant.resize(rng.below(mutant.size()));
            break;
          case 2: // extension
            for (uint64_t n = rng.range(1, 16); n > 0; --n)
                mutant.push_back(static_cast<char>(rng.below(256)));
            break;
          default: { // splice: our prefix, the other file's suffix
            const size_t cut = rng.below(mutant.size() + 1);
            mutant = mutant.substr(0, cut) +
                     other.substr(rng.below(other.size() + 1));
            break;
          }
        }
        writeFile(cache_->file(0), mutant);
        cache_->open(dir_);
        const std::optional<std::string> got = cache_->get(0);
        if (got) {
            ASSERT_EQ(*got, payload) << "iteration " << i;
            ASSERT_EQ(mutant, original) << "iteration " << i;
        } else {
            ASSERT_FALSE(fs::exists(cache_->file(0))) << "iteration " << i;
            ASSERT_EQ(cache_->corrupt(), 1u) << "iteration " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(BothStores, CacheDirTest,
                         ::testing::Values(Kind::TraceStore,
                                           Kind::ResultCache),
                         kindName);

TEST(CacheDirFormatTest, Fnv1aMatchesReferenceVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a64("", 0), 14695981039346656037ull);
    EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar", 6), 0x85944171f73967e8ull);
    // Cache files carry this hash: changing it means bumping both
    // stores' header magics.
    EXPECT_EQ(fnv1a64("abcdefgh", 8), 0x25da8c1836a8d66dull);
    EXPECT_EQ(fnv1a64("abcdefghijklm", 13), 0x4213ea06398bc308ull);
}

TEST(CacheDirFormatTest, HeaderIntegersAreLittleEndian)
{
    EXPECT_EQ(u64Bytes(0x0807060504030201ull),
              std::string("\x01\x02\x03\x04\x05\x06\x07\x08", 8));
}

} // namespace
} // namespace icfp
