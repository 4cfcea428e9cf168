/**
 * @file
 * Memory substrate tests: cache hit/miss/LRU/victim-buffer behaviour,
 * pinning (SLTP), in-flight line protection, MSHR merging, main-memory
 * bus bandwidth (the L2-MLP-of-12 bound), the stream prefetcher, and the
 * composed hierarchy's latencies and MLP accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"

#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/main_memory.hh"
#include "mem/mshr.hh"
#include "mem/prefetcher.hh"

namespace icfp {
namespace {

CacheParams
tinyCache()
{
    CacheParams p;
    p.sizeBytes = 1024; // 4 sets x 4 ways x 64B
    p.associativity = 4;
    p.lineBytes = 64;
    p.victimEntries = 2;
    return p;
}

TEST(Cache, MissThenHit)
{
    Cache c(tinyCache());
    EXPECT_EQ(c.access(0x100, 10, false).outcome, CacheOutcome::Miss);
    c.fill(0x100, 20, 10);
    EXPECT_EQ(c.access(0x100, 25, false).outcome, CacheOutcome::Hit);
}

TEST(Cache, InFlightHitReportsReadyTime)
{
    Cache c(tinyCache());
    c.fill(0x100, 50, 10);
    const CacheAccessResult r = c.access(0x100, 20, false);
    EXPECT_EQ(r.outcome, CacheOutcome::InFlightHit);
    EXPECT_EQ(r.readyAt, 50u);
}

TEST(Cache, SameLineDifferentWordsHit)
{
    Cache c(tinyCache());
    c.fill(0x100, 0, 0);
    EXPECT_EQ(c.access(0x100 + 56, 5, false).outcome, CacheOutcome::Hit);
    EXPECT_EQ(c.access(0x100 + 64, 5, false).outcome, CacheOutcome::Miss);
}

TEST(Cache, LruEviction)
{
    Cache c(tinyCache()); // 4 ways per set; set stride = 256
    // Fill 4 lines in set 0, touch the first, add a 5th: the 2nd (LRU)
    // must leave, the 1st must stay.
    for (int i = 0; i < 4; ++i)
        c.fill(Addr{0x1000} + 256u * i, 0, 0);
    c.access(0x1000, 1, false); // refresh line 0
    c.fill(0x1000 + 256u * 4, 2, 2);
    EXPECT_EQ(c.access(0x1000, 3, false).outcome, CacheOutcome::Hit);
    // Line 1 went to the victim buffer.
    EXPECT_EQ(c.access(0x1000 + 256, 3, false).outcome,
              CacheOutcome::VictimHit);
}

TEST(Cache, VictimBufferCapacityAndWriteback)
{
    CacheParams p = tinyCache();
    p.victimEntries = 1;
    Cache c(p);
    for (int i = 0; i < 4; ++i)
        c.fill(Addr{0x1000} + 256u * i, 0, 0, /*dirty=*/true);
    // Two more fills: two evictions, but only one victim slot -> one
    // dirty writeback.
    c.fill(0x1000 + 256u * 4, 0, 0);
    const CacheFillResult wb = c.fill(0x1000 + 256u * 5, 0, 0);
    EXPECT_TRUE(wb.writeback);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, DirtyTrackingOnWriteHit)
{
    Cache c(tinyCache());
    c.fill(0x200, 0, 0);
    c.access(0x200, 1, /*is_write=*/true);
    // Force eviction through a full set plus victim buffer.
    for (int i = 1; i <= 6; ++i)
        c.fill(Addr{0x200} + 256u * i, 2, 2);
    EXPECT_GE(c.stats().writebacks, 1u);
}

TEST(Cache, InvalidateDropsLine)
{
    Cache c(tinyCache());
    c.fill(0x300, 0, 0);
    EXPECT_TRUE(c.invalidate(0x300));
    EXPECT_EQ(c.access(0x300, 1, false).outcome, CacheOutcome::Miss);
    EXPECT_FALSE(c.invalidate(0x300));
}

TEST(Cache, PinnedLinesSurviveEviction)
{
    Cache c(tinyCache());
    c.fill(0x400, 0, 0);
    c.setPinned(0x400, true);
    EXPECT_TRUE(c.isPinned(0x400));
    for (int i = 1; i <= 8; ++i)
        c.fill(Addr{0x400} + 256u * i, 1, 1);
    EXPECT_EQ(c.access(0x400, 9, false).outcome, CacheOutcome::Hit);
}

TEST(Cache, FlushPinnedDropsAllPinnedLines)
{
    Cache c(tinyCache());
    c.fill(0x400, 0, 0);
    c.fill(0x500, 0, 0);
    c.setPinned(0x400, true);
    c.setPinned(0x500, true);
    EXPECT_EQ(c.flushPinned(), 2u);
    EXPECT_EQ(c.access(0x400, 1, false).outcome, CacheOutcome::Miss);
}

TEST(Cache, InFlightLinesNotEvicted)
{
    Cache c(tinyCache());
    c.fill(0x600, /*ready_at=*/100, /*now=*/0); // in flight until 100
    // Four more fills at now=1 target the same set; the in-flight line
    // must survive all of them.
    for (int i = 1; i <= 4; ++i)
        c.fill(Addr{0x600} + 256u * i, 2, 1);
    const CacheAccessResult r = c.access(0x600, 5, false);
    EXPECT_EQ(r.outcome, CacheOutcome::InFlightHit);
}

TEST(Cache, SetFullyPinned)
{
    Cache c(tinyCache());
    for (int i = 0; i < 4; ++i) {
        c.fill(Addr{0x700} + 256u * i, 0, 0);
        c.setPinned(Addr{0x700} + 256u * i, true);
    }
    EXPECT_TRUE(c.setFullyPinned(0x700));
    EXPECT_FALSE(c.setFullyPinned(0x740)); // different set
}

// ---- MSHRs ---------------------------------------------------------------

TEST(Mshr, MergeAndRetire)
{
    MshrFile mshrs(4, 8);
    MshrResult r = mshrs.allocate(0x100, 0, 50);
    EXPECT_TRUE(r.allocated);
    MshrResult merged;
    EXPECT_TRUE(mshrs.lookup(0x100, 10, &merged));
    EXPECT_EQ(merged.fillAt, 50u);
    EXPECT_EQ(merged.poisonBit, r.poisonBit);
    // After the fill time the entry retires.
    EXPECT_FALSE(mshrs.lookup(0x100, 51, &merged));
}

TEST(Mshr, CapacityAndRoundRobinBits)
{
    MshrFile mshrs(2, 8);
    const MshrResult a = mshrs.allocate(0x100, 0, 100);
    const MshrResult b = mshrs.allocate(0x200, 0, 100);
    EXPECT_NE(a.poisonBit, b.poisonBit);
    const MshrResult c = mshrs.allocate(0x300, 0, 100);
    EXPECT_TRUE(c.full);
    EXPECT_EQ(mshrs.earliestFill(), 100u);
}

TEST(Mshr, CachedEarliestMatchesScan)
{
    // A brute-force file that scans on every call, driven by the same
    // seeded calls at non-monotonic times (a core's retries and slice
    // re-executions do not ask in time order).
    struct Ref
    {
        Addr line;
        Cycle fillAt;
        unsigned poisonBit;
    };
    std::vector<Ref> ref;
    unsigned next_bit = 0;
    auto retire = [&](Cycle now) {
        std::erase_if(ref, [&](const Ref &e) { return e.fillAt <= now; });
    };
    auto find = [&](Addr line) {
        return std::find_if(ref.begin(), ref.end(),
                            [&](const Ref &e) { return e.line == line; });
    };

    constexpr unsigned kEntries = 8, kBits = 4;
    MshrFile mshrs(kEntries, kBits);
    Rng rng(25);
    for (int step = 0; step < 20000; ++step) {
        SCOPED_TRACE(step);
        const Cycle now = rng.below(400);
        const Addr line = rng.below(16) * 64;
        switch (rng.below(10)) {
          case 0:
          case 1:
          case 2: {
            retire(now);
            MshrResult got;
            const bool merged = mshrs.lookup(line, now, &got);
            const auto it = find(line);
            ASSERT_EQ(merged, it != ref.end());
            if (merged) {
                EXPECT_EQ(got.fillAt, it->fillAt);
                EXPECT_EQ(got.poisonBit, it->poisonBit);
            }
            break;
          }
          case 3:
          case 4:
          case 5: {
            // allocate's precondition, checked as a core does; the
            // lookup also retires, so the two files stay in step.
            retire(now);
            MshrResult merged;
            ASSERT_EQ(mshrs.lookup(line, now, &merged),
                      find(line) != ref.end());
            if (merged.merged)
                break;
            const Cycle fill = now + 1 + rng.below(200);
            const MshrResult got = mshrs.allocate(line, now, fill);
            ASSERT_EQ(got.full, ref.size() >= kEntries);
            if (!got.full) {
                EXPECT_EQ(got.fillAt, fill);
                EXPECT_EQ(got.poisonBit, next_bit);
                ref.push_back({line, fill, next_bit});
                next_bit = (next_bit + 1) % kBits;
            }
            break;
          }
          case 6:
          case 7:
            retire(now);
            ASSERT_EQ(mshrs.outstanding(now), ref.size());
            break;
          case 8: {
            Cycle earliest = kCycleNever;
            for (const Ref &e : ref)
                earliest = std::min(earliest, e.fillAt);
            ASSERT_EQ(mshrs.earliestFill(), earliest);
            break;
          }
          default:
            if (rng.below(50) == 0) {
                mshrs.clear();
                ref.clear();
            }
            break;
        }
    }
}

// ---- MainMemory ------------------------------------------------------------

TEST(MainMemory, FirstChunkLatency)
{
    MainMemory mem;
    const MemoryResponse r = mem.read(0, 128);
    EXPECT_EQ(r.criticalChunkAt, 400u);
    // 8 chunks of 16B at 4 cycles each; first arrives with the critical
    // chunk, seven more follow.
    EXPECT_EQ(r.lineCompleteAt, r.criticalChunkAt + 7 * 4);
}

TEST(MainMemory, BusSerializesLines)
{
    MainMemory mem;
    const MemoryResponse a = mem.read(0, 128);
    const MemoryResponse b = mem.read(0, 128);
    // Second line's chunks follow the first's on the bus.
    EXPECT_GE(b.criticalChunkAt, a.lineCompleteAt + 4);
}

TEST(MainMemory, SteadyStateBandwidthBoundsL2Mlp)
{
    // The paper: 400-cycle latency / 32-cycle line occupancy -> the
    // practical L2 MLP limit of ~12 (Section 5.1).
    MainMemory mem;
    const MemoryResponse first = mem.read(0, 128);
    MemoryResponse last{};
    for (int i = 0; i < 99; ++i)
        last = mem.read(0, 128);
    const double per_line =
        static_cast<double>(last.lineCompleteAt - first.lineCompleteAt) /
        99.0;
    EXPECT_NEAR(per_line, 32.0, 2.0);
}

TEST(MainMemory, OutstandingLimitDelaysRequests)
{
    MemoryParams p;
    p.maxOutstanding = 2;
    MainMemory mem(p);
    const MemoryResponse a = mem.read(0, 128);
    mem.read(0, 128);
    const MemoryResponse c = mem.read(0, 128); // must wait for a slot
    EXPECT_GE(c.criticalChunkAt, a.lineCompleteAt + 400);
}

TEST(MainMemory, WritebackConsumesBandwidth)
{
    MainMemory mem;
    // Enough writebacks to push bus occupancy past the DRAM latency
    // shadow; a later read must then queue behind them.
    for (int i = 0; i < 15; ++i)
        mem.writeback(0, 128); // 15 x 32 = 480 cycles of bus occupancy
    const MemoryResponse r = mem.read(0, 128);
    EXPECT_GE(r.criticalChunkAt, 480u);
    EXPECT_EQ(mem.writebacks(), 15u);
}

// ---- StreamPrefetcher -------------------------------------------------------

TEST(Prefetcher, SequentialStreamGetsCovered)
{
    MainMemory mem;
    PrefetcherParams params;
    StreamPrefetcher pf(params, mem);
    Cycle now = 0;
    // Two sequential misses confirm; later blocks hit.
    EXPECT_FALSE(pf.demandMiss(0x10000, now).hit);
    EXPECT_FALSE(pf.demandMiss(0x10080, now += 10).hit);
    unsigned hits = 0;
    for (int i = 2; i < 10; ++i)
        hits += pf.demandMiss(0x10000 + 128u * i, now += 50).hit;
    EXPECT_GE(hits, 7u);
}

TEST(Prefetcher, RandomMissesNeverConfirm)
{
    MainMemory mem;
    StreamPrefetcher pf(PrefetcherParams{}, mem);
    Cycle now = 0;
    unsigned hits = 0;
    for (int i = 0; i < 50; ++i)
        hits += pf.demandMiss(Addr{0x10000} + 7919u * 128u * i, now += 30).hit;
    EXPECT_EQ(hits, 0u);
    EXPECT_EQ(pf.stats().allocations, 0u);
}

TEST(Prefetcher, LargeStrideDefeatsShallowMatch)
{
    MainMemory mem;
    StreamPrefetcher pf(PrefetcherParams{}, mem);
    Cycle now = 0;
    unsigned hits = 0;
    // Stride 512 = 4 blocks: beyond the 2-deep match window.
    for (int i = 0; i < 20; ++i)
        hits += pf.demandMiss(Addr{0x20000} + 512u * i, now += 30).hit;
    EXPECT_EQ(hits, 0u);
}

TEST(Prefetcher, DisabledDoesNothing)
{
    MainMemory mem;
    PrefetcherParams params;
    params.enabled = false;
    StreamPrefetcher pf(params, mem);
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(pf.demandMiss(0x1000 + 128u * i, i * 10).hit);
    EXPECT_EQ(pf.stats().probes, 0u);
}

// ---- MemHierarchy ----------------------------------------------------------

TEST(Hierarchy, DcacheHitLatency)
{
    MemHierarchy mem;
    mem.load(0x100, 0); // cold miss to warm the line
    const MemAccessResult r = mem.load(0x100, 5000);
    EXPECT_EQ(r.level, MemLevel::Dcache);
    EXPECT_EQ(r.doneAt, 5000u + 3u);
}

TEST(Hierarchy, L2HitLatency)
{
    MemHierarchy mem;
    mem.load(0x100, 0);
    // Evict from D$ (4-way, 128 sets, 64B lines -> set stride 8KB) but
    // stay in L2.
    for (int i = 1; i <= 16; ++i)
        mem.load(Addr{0x100} + 8192u * i, 1000 + 100u * i);
    const MemAccessResult r = mem.load(0x100, 50000);
    EXPECT_EQ(r.level, MemLevel::L2);
    EXPECT_EQ(r.doneAt, 50000u + 20u);
}

TEST(Hierarchy, MemoryMissLatency)
{
    MemHierarchy mem;
    const MemAccessResult r = mem.load(0x100, 0);
    EXPECT_EQ(r.level, MemLevel::Memory);
    EXPECT_TRUE(r.dcacheMiss);
    EXPECT_TRUE(r.l2Miss);
    // D$ tag check (3) + 400 + first chunk.
    EXPECT_GE(r.doneAt, 400u);
    EXPECT_LE(r.doneAt, 450u);
}

TEST(Hierarchy, SecondaryMissMergesIntoMshr)
{
    MemHierarchy mem;
    const MemAccessResult a = mem.load(0x100, 0);
    const MemAccessResult b = mem.load(0x108, 1); // same 64B line
    EXPECT_EQ(b.level, MemLevel::DcacheInFlight);
    EXPECT_FALSE(b.dcacheMiss); // merged, not a new demand miss
    EXPECT_EQ(b.poisonBit, a.poisonBit);
    EXPECT_EQ(mem.stats().dcacheMerges, 1u);
}

TEST(Hierarchy, MlpTracksOverlappedMisses)
{
    MemHierarchy mem;
    // Two independent far-apart misses issued back to back overlap.
    mem.load(0x100000, 0);
    mem.load(0x200000, 1);
    EXPECT_GT(mem.dcacheMlp(), 1.5);
    EXPECT_GT(mem.l2Mlp(), 1.5);
}

TEST(Hierarchy, PrefetchCoversStream)
{
    MemHierarchy mem;
    Cycle now = 0;
    for (int i = 0; i < 40; ++i)
        mem.load(Addr{0x40000} + 128u * i, now += 100);
    EXPECT_GT(mem.stats().prefetchHits, 25u);
    // Covered accesses are not demand L2 misses.
    EXPECT_LT(mem.stats().l2Misses, 10u);
}

TEST(Hierarchy, StoreWriteAllocates)
{
    MemHierarchy mem;
    const MemAccessResult w = mem.store(0x500, 0);
    EXPECT_TRUE(w.dcacheMiss);
    const MemAccessResult r = mem.load(0x500, w.doneAt + 10);
    EXPECT_EQ(r.level, MemLevel::Dcache);
}

TEST(Hierarchy, ResetStatsClears)
{
    MemHierarchy mem;
    mem.load(0x100000, 0);
    mem.resetStats();
    EXPECT_EQ(mem.stats().loads, 0u);
    EXPECT_EQ(mem.stats().dcacheMisses, 0u);
    EXPECT_DOUBLE_EQ(mem.dcacheMlp(), 0.0);
}

} // namespace
} // namespace icfp
