/**
 * @file
 * Unit and property tests for the iCFP mechanisms: the chained store
 * buffer (including a property sweep against an associative reference
 * model), the chain table, the slice buffer (including its linked
 * delivery against a search-and-scan reference model), poison vectors, the
 * register file's sequence gating, and the MP-safety signature.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "core/register_file.hh"
#include "icfp/chained_store_buffer.hh"
#include "icfp/poison.hh"
#include "icfp/signature.hh"
#include "icfp/slice_buffer.hh"

namespace icfp {
namespace {

// ---- ChainedStoreBuffer -----------------------------------------------------

ChainedSbParams
smallSb(SbMode mode = SbMode::Chained)
{
    ChainedSbParams p;
    p.entries = 16;
    p.chainTableEntries = 8;
    p.mode = mode;
    return p;
}

TEST(ChainedSb, ForwardYoungestOlderStore)
{
    ChainedStoreBuffer sb(smallSb());
    sb.allocate(0x100, 11, 0, /*seq=*/1);
    sb.allocate(0x100, 22, 0, /*seq=*/2);
    sb.allocate(0x200, 33, 0, /*seq=*/3);

    const SbLookupResult r = sb.lookup(0x100, /*load_seq=*/5, nullptr);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.value, 22u); // youngest older store wins
}

TEST(ChainedSb, RallyLoadSkipsYoungerStores)
{
    ChainedStoreBuffer sb(smallSb());
    sb.allocate(0x100, 11, 0, /*seq=*/1);
    sb.allocate(0x100, 99, 0, /*seq=*/10); // younger than the rally load
    const SbLookupResult r = sb.lookup(0x100, /*load_seq=*/5, nullptr);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.value, 11u);
}

TEST(ChainedSb, MissWhenNoMatchingOlderStore)
{
    ChainedStoreBuffer sb(smallSb());
    sb.allocate(0x100, 11, 0, 5);
    EXPECT_FALSE(sb.lookup(0x300, 10, nullptr).found);
    EXPECT_FALSE(sb.lookup(0x100, 3, nullptr).found); // store is younger
}

TEST(ChainedSb, PoisonPropagatesToLoad)
{
    ChainedStoreBuffer sb(smallSb());
    const Ssn ssn = sb.allocate(0x100, 0, /*poison=*/0b10, 1);
    SbLookupResult r = sb.lookup(0x100, 5, nullptr);
    EXPECT_TRUE(r.found);
    EXPECT_TRUE(r.poisoned);
    EXPECT_EQ(r.poison, 0b10);
    // Rally resolution clears it.
    sb.resolve(ssn, 77);
    r = sb.lookup(0x100, 5, nullptr);
    EXPECT_FALSE(r.poisoned);
    EXPECT_EQ(r.value, 77u);
}

TEST(ChainedSb, UpdatePoisonRetargetsBits)
{
    ChainedStoreBuffer sb(smallSb());
    const Ssn ssn = sb.allocate(0x100, 0, 0b01, 1);
    sb.updatePoison(ssn, 0b100);
    EXPECT_EQ(sb.lookup(0x100, 5, nullptr).poison, 0b100);
}

TEST(ChainedSb, DrainInProgramOrderGatedByOldestActive)
{
    ChainedStoreBuffer sb(smallSb());
    sb.allocate(0x100, 1, 0, /*seq=*/10);
    sb.allocate(0x200, 2, 0, /*seq=*/20);

    Addr addr;
    RegVal value;
    // An active slice entry at seq 15 blocks the second store only.
    EXPECT_TRUE(sb.drainHead(15, &addr, &value));
    EXPECT_EQ(addr, 0x100u);
    EXPECT_FALSE(sb.drainHead(15, &addr, &value));
    EXPECT_TRUE(sb.drainHead(~SeqNum{0}, &addr, &value));
    EXPECT_EQ(addr, 0x200u);
    EXPECT_TRUE(sb.empty());
}

TEST(ChainedSb, PoisonedHeadBlocksDrain)
{
    ChainedStoreBuffer sb(smallSb());
    const Ssn ssn = sb.allocate(0x100, 0, 1, 1);
    Addr addr;
    RegVal value;
    EXPECT_FALSE(sb.drainHead(~SeqNum{0}, &addr, &value));
    sb.resolve(ssn, 42);
    EXPECT_TRUE(sb.drainHead(~SeqNum{0}, &addr, &value));
    EXPECT_EQ(value, 42u);
}

TEST(ChainedSb, FullAndOccupancy)
{
    ChainedSbParams p = smallSb();
    p.entries = 4;
    ChainedStoreBuffer sb(p);
    for (int i = 0; i < 4; ++i)
        sb.allocate(Addr{0x100} + 8u * i, i, 0, i);
    EXPECT_TRUE(sb.full());
    Addr addr;
    RegVal value;
    sb.drainHead(~SeqNum{0}, &addr, &value);
    EXPECT_FALSE(sb.full());
    EXPECT_EQ(sb.occupancy(), 3u);
}

TEST(ChainedSb, SquashRestoresChains)
{
    ChainedStoreBuffer sb(smallSb());
    sb.allocate(0x100, 1, 0, 1);
    const Ssn snap = sb.ssnTail();
    sb.allocate(0x100, 2, 0, 2);
    sb.allocate(0x180, 3, 0, 3); // collides with 0x100's hash? separate ok
    sb.squashTo(snap);
    // Only the pre-snapshot store remains and must still forward.
    const SbLookupResult r = sb.lookup(0x100, 10, nullptr);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.value, 1u);
    EXPECT_EQ(sb.occupancy(), 1u);
}

TEST(ChainedSb, ExcessHopsCountedOnCollisions)
{
    // Chain table of 1 entry: every store shares one chain.
    ChainedSbParams p;
    p.entries = 16;
    p.chainTableEntries = 1;
    ChainedStoreBuffer sb(p);
    for (int i = 0; i < 8; ++i)
        sb.allocate(Addr{0x1000} + 64u * i, i, 0, i);
    SbStats stats;
    const SbLookupResult r = sb.lookup(0x1000, 100, &stats);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.excessHops, 7u); // walked the whole chain
}

TEST(ChainedSb, IndexedLimitedStallsOnHashConflict)
{
    ChainedSbParams p = smallSb(SbMode::IndexedLimited);
    p.chainTableEntries = 1; // force conflicts
    ChainedStoreBuffer sb(p);
    sb.allocate(0x100, 1, 0, 1);
    sb.allocate(0x200, 2, 0, 2); // different address, same hash bucket
    const SbLookupResult r = sb.lookup(0x100, 10, nullptr);
    EXPECT_TRUE(r.mustStall);
}

TEST(ChainedSb, FullyAssocMatchesChainedResults)
{
    // Property: for random store/load sequences, Chained and FullyAssoc
    // agree on every forwarding decision.
    Rng rng(123);
    ChainedStoreBuffer chained(smallSb(SbMode::Chained));
    ChainedStoreBuffer assoc(smallSb(SbMode::FullyAssoc));
    SeqNum seq = 1;
    for (int step = 0; step < 400; ++step) {
        if (!chained.full() && rng.chance(0.5)) {
            const Addr addr = rng.below(32) * 8;
            const RegVal val = rng.next();
            chained.allocate(addr, val, 0, seq);
            assoc.allocate(addr, val, 0, seq);
            ++seq;
        } else if (!chained.empty() && rng.chance(0.6)) {
            Addr a1, a2;
            RegVal v1, v2;
            const bool d1 = chained.drainHead(~SeqNum{0}, &a1, &v1);
            const bool d2 = assoc.drainHead(~SeqNum{0}, &a2, &v2);
            ASSERT_EQ(d1, d2);
            if (d1) {
                ASSERT_EQ(a1, a2);
                ASSERT_EQ(v1, v2);
            }
        }
        const Addr probe = rng.below(32) * 8;
        const SeqNum ls = rng.below(seq + 2);
        const SbLookupResult rc = chained.lookup(probe, ls, nullptr);
        const SbLookupResult ra = assoc.lookup(probe, ls, nullptr);
        ASSERT_EQ(rc.found, ra.found) << "step " << step;
        if (rc.found)
            ASSERT_EQ(rc.value, ra.value) << "step " << step;
    }
}

TEST(ChainedSb, SsnWraparoundThroughBufferReuse)
{
    // Exercise many allocate/drain rounds so buffer slots are recycled
    // far past the entry count.
    ChainedSbParams p = smallSb();
    p.entries = 4;
    ChainedStoreBuffer sb(p);
    Addr addr;
    RegVal value;
    for (SeqNum seq = 1; seq <= 1000; ++seq) {
        sb.allocate(seq % 16 * 8, seq, 0, seq);
        const SbLookupResult r = sb.lookup(seq % 16 * 8, seq + 1, nullptr);
        ASSERT_TRUE(r.found);
        ASSERT_EQ(r.value, seq);
        ASSERT_TRUE(sb.drainHead(~SeqNum{0}, &addr, &value));
    }
}

// ---- SliceBuffer ------------------------------------------------------------

/** An entry with both sources captured, so it names no producer. */
SliceEntry
entryAt(SeqNum seq)
{
    SliceEntry e;
    e.seq = seq;
    e.src1Captured = true;
    e.src2Captured = true;
    return e;
}

TEST(SliceBuffer, PushResolveReclaim)
{
    SliceBuffer sb(4);
    sb.push(entryAt(1), 1);
    sb.push(entryAt(2), 1);
    EXPECT_EQ(sb.occupancy(), 2u);
    EXPECT_EQ(sb.oldestActiveSeq(), 1u);
    sb.resolve(sb.headIndex());
    EXPECT_EQ(sb.occupancy(), 1u); // head reclaimed
    EXPECT_EQ(sb.oldestActiveSeq(), 2u);
    sb.resolve(sb.headIndex());
    EXPECT_TRUE(sb.noneActive());
    EXPECT_EQ(sb.occupancy(), 0u);
}

TEST(SliceBuffer, MiddleResolutionKeepsSparseOccupancy)
{
    SliceBuffer sb(8);
    sb.push(entryAt(1), 1);
    sb.push(entryAt(2), 1);
    sb.push(entryAt(3), 1);
    sb.resolve(sb.headIndex() + 1); // resolve the middle entry
    // Space is reclaimed only from the head (Section 3.4).
    EXPECT_EQ(sb.occupancy(), 3u);
    EXPECT_EQ(sb.activeCount(), 2u);
    sb.resolve(sb.headIndex());
    // Now the head reclaim skips the already-resolved middle entry.
    EXPECT_EQ(sb.occupancy(), 1u);
    EXPECT_EQ(sb.oldestActiveSeq(), 3u);
}

TEST(SliceBuffer, FullBound)
{
    SliceBuffer sb(2);
    sb.push(entryAt(1), 1);
    EXPECT_FALSE(sb.full());
    sb.push(entryAt(2), 1);
    EXPECT_TRUE(sb.full());
}

TEST(SliceBuffer, FindBySeq)
{
    SliceBuffer sb(8);
    sb.push(entryAt(10), 1);
    sb.push(entryAt(20), 1);
    sb.push(entryAt(30), 1);
    ASSERT_NE(sb.findBySeq(20), nullptr);
    EXPECT_EQ(sb.findBySeq(20)->seq, 20u);
    EXPECT_EQ(sb.findBySeq(25), nullptr);
    EXPECT_EQ(sb.findBySeq(5), nullptr);
}

TEST(SliceBuffer, ClearEmptiesEverything)
{
    SliceBuffer sb(4);
    sb.push(entryAt(1), 1);
    sb.clear();
    EXPECT_EQ(sb.occupancy(), 0u);
    EXPECT_TRUE(sb.noneActive());
    EXPECT_EQ(sb.oldestActiveSeq(), ~SeqNum{0});
}

TEST(SliceBuffer, UncapturedSourceNeedsBufferedProducer)
{
    auto consumerOf = [](SeqNum seq, SeqNum producer) {
        SliceEntry e = entryAt(seq);
        e.src2Captured = false;
        e.src2Producer = producer;
        return e;
    };
    // No such entry.
    EXPECT_DEATH(
        {
            SliceBuffer sb(4);
            sb.push(consumerOf(2, 1), 1);
        },
        "assertion failed");
    // Resolved, but not yet reclaimed behind an active head.
    EXPECT_DEATH(
        {
            SliceBuffer sb(4);
            sb.push(entryAt(1), 1);
            sb.push(entryAt(2), 1);
            sb.resolve(1);
            sb.push(consumerOf(3, 2), 1);
        },
        "assertion failed");
    // Resolved and reclaimed from the head.
    EXPECT_DEATH(
        {
            SliceBuffer sb(4);
            sb.push(entryAt(1), 1);
            sb.push(entryAt(2), 1);
            sb.resolve(0);
            sb.push(consumerOf(3, 1), 1);
        },
        "assertion failed");
    // A producer cannot resolve before it has delivered.
    EXPECT_DEATH(
        {
            SliceBuffer sb(4);
            sb.push(entryAt(1), 1);
            sb.push(consumerOf(2, 1), 1);
            sb.resolve(0);
        },
        "assertion failed");
}

TEST(SliceBuffer, LinkedDeliveryMatchesSearchAndScan)
{
    // A brute-force buffer that looks every producer up by sequence
    // number and delivers by scanning every younger active entry, driven
    // by the same seeded calls as the linked one.
    struct Ref
    {
        SeqNum seq;
        PoisonMask poison; ///< 0 once resolved
        bool captured[2];
        RegVal val[2];
        Cycle readyAt[2];
        SeqNum producer[2];
    };
    std::vector<Ref> ref; // un-reclaimed entries, oldest first
    auto find = [&](SeqNum seq) -> Ref * {
        for (Ref &r : ref) {
            if (r.seq == seq)
                return &r;
        }
        return nullptr;
    };
    auto consumersOf = [&](SeqNum seq) {
        uint32_t n = 0;
        for (const Ref &r : ref) {
            for (int s = 0; s < 2; ++s)
                n += !r.captured[s] && r.producer[s] == seq;
        }
        return n;
    };
    auto deliver = [&](const Ref &producer, RegVal value, Cycle ready_at) {
        for (Ref &r : ref) {
            if (r.seq <= producer.seq || r.poison == 0)
                continue;
            for (int s = 0; s < 2; ++s) {
                if (!r.captured[s] && r.producer[s] == producer.seq) {
                    r.captured[s] = true;
                    r.val[s] = value;
                    r.readyAt[s] = ready_at;
                }
            }
        }
    };
    // A random active entry, optionally one whose sources are captured;
    // returns its position in ref, or ref.size() when there is none.
    Rng rng(26);
    auto pick = [&](bool captured_only) {
        std::vector<size_t> ok;
        for (size_t k = 0; k < ref.size(); ++k) {
            const Ref &r = ref[k];
            if (r.poison != 0 &&
                (!captured_only || (r.captured[0] && r.captured[1])))
                ok.push_back(k);
        }
        return ok.empty() ? ref.size() : ok[rng.below(ok.size())];
    };

    constexpr unsigned kCapacity = 24;
    SliceBuffer sb(kCapacity);
    SeqNum next_seq = 0;
    auto check = [&] {
        ASSERT_EQ(sb.occupancy(), ref.size());
        size_t active = 0;
        SeqNum oldest = ~SeqNum{0};
        for (size_t k = 0; k < ref.size(); ++k) {
            const Ref &r = ref[k];
            const size_t idx = sb.headIndex() + k;
            const SliceEntry &e = sb.at(idx);
            ASSERT_EQ(e.seq, r.seq);
            ASSERT_EQ(sb.poison(idx), r.poison);
            if (r.poison != 0) {
                ++active;
                oldest = std::min(oldest, r.seq);
            }
            ASSERT_EQ(e.consumers, consumersOf(r.seq));
            const bool captured[2] = {e.src1Captured, e.src2Captured};
            const RegVal val[2] = {e.src1Val, e.src2Val};
            const Cycle ready[2] = {e.src1ReadyAt, e.src2ReadyAt};
            const uint32_t link[2] = {e.src1Link, e.src2Link};
            for (int s = 0; s < 2; ++s) {
                ASSERT_EQ(captured[s], r.captured[s]);
                if (captured[s]) {
                    ASSERT_EQ(val[s], r.val[s]);
                    ASSERT_EQ(ready[s], r.readyAt[s]);
                } else {
                    const Ref *producer = find(r.producer[s]);
                    ASSERT_NE(producer, nullptr);
                    ASSERT_EQ(sb.producerPoison(link[s], r.producer[s]),
                              producer->poison);
                }
            }
        }
        ASSERT_EQ(sb.activeCount(), active);
        ASSERT_EQ(sb.oldestActiveSeq(), oldest);

        // The rally's banked skip over the same entries.
        const size_t from = rng.below(ref.size() + 1);
        const auto bits = static_cast<PoisonMask>(1 + rng.below(15));
        const size_t budget = rng.below(9);
        size_t k = from;
        while (k < ref.size() && k < from + budget &&
               (ref[k].poison & bits) == 0)
            ++k;
        ASSERT_EQ(sb.skipUnwanted(sb.headIndex() + from, bits, budget),
                  sb.headIndex() + k);
    };

    for (int step = 0; step < 20000; ++step) {
        SCOPED_TRACE(step);
        const uint64_t op = rng.below(20);
        if (op < 7) { // push
            if (sb.full())
                continue;
            next_seq += 1 + rng.below(3);
            Ref r{next_seq, static_cast<PoisonMask>(1 + rng.below(15)),
                  {true, true}, {0, 0}, {0, 0}, {0, 0}};
            for (int s = 0; s < 2; ++s) {
                const size_t k = pick(false);
                if (k < ref.size() && rng.below(3) != 0) {
                    r.captured[s] = false;
                    r.producer[s] = ref[k].seq;
                } else {
                    r.val[s] = rng.next();
                    r.readyAt[s] = rng.below(100);
                }
            }
            SliceEntry e;
            e.seq = r.seq;
            e.src1Captured = r.captured[0];
            e.src2Captured = r.captured[1];
            e.src1Val = r.val[0];
            e.src2Val = r.val[1];
            e.src1ReadyAt = r.readyAt[0];
            e.src2ReadyAt = r.readyAt[1];
            e.src1Producer = r.producer[0];
            e.src2Producer = r.producer[1];
            sb.push(e, r.poison);
            ref.push_back(r);
        } else if (op < 13) { // deliver, and usually resolve
            const size_t k = pick(true);
            if (k == ref.size())
                continue;
            const RegVal value = rng.next();
            const Cycle ready_at = rng.below(100);
            sb.deliverFrom(sb.headIndex() + k, value, ready_at);
            deliver(ref[k], value, ready_at);
            if (rng.below(4) != 0) {
                sb.resolve(sb.headIndex() + k);
                ref[k].poison = 0;
                while (!ref.empty() && ref.front().poison == 0)
                    ref.erase(ref.begin());
            }
        } else if (op < 19) { // re-poison
            const size_t k = pick(false);
            if (k == ref.size())
                continue;
            const auto bits = static_cast<PoisonMask>(1 + rng.below(15));
            sb.rePoison(sb.headIndex() + k, bits);
            ref[k].poison = bits;
        } else if (rng.below(20) == 0) { // squash
            sb.clear();
            ref.clear();
        }
        check();
        if (HasFatalFailure())
            return;
    }
}

// ---- Poison -----------------------------------------------------------------

TEST(Poison, MaskWidthCollapse)
{
    EXPECT_EQ(poisonBitMask(0, 8), 0b1);
    EXPECT_EQ(poisonBitMask(3, 8), 0b1000);
    EXPECT_EQ(poisonBitMask(9, 8), 0b10); // wraps at width
    EXPECT_EQ(poisonBitMask(5, 1), 0b1);  // single-bit degenerates
}

TEST(Poison, PendingQueueOrdering)
{
    PendingMissQueue q;
    q.push(100, 0b01);
    q.push(50, 0b10);
    q.push(200, 0b100);
    EXPECT_EQ(q.nextFillAt(), 50u);
    EXPECT_EQ(q.popReturned(49), 0);
    EXPECT_EQ(q.popReturned(120), 0b11); // both early events
    EXPECT_EQ(q.size(), 1u);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextFillAt(), kCycleNever);
}

// ---- RegisterFile gating ----------------------------------------------------

TEST(RegisterFile, SequenceGatedMerge)
{
    RegisterFile rf;
    rf.writePoisoned(4, 0b1, /*seq=*/8); // advance instr 8 poisons r4
    EXPECT_EQ(rf.poison(4), 0b1);
    // A rally write from an OLDER instruction (seq 2) must be suppressed.
    EXPECT_FALSE(rf.writeGated(4, 111, 2));
    EXPECT_EQ(rf.poison(4), 0b1);
    // The actual last writer lands and un-poisons.
    EXPECT_TRUE(rf.writeGated(4, 222, 8));
    EXPECT_EQ(rf.read(4), 222u);
    EXPECT_EQ(rf.poison(4), 0);
}

TEST(RegisterFile, TailWriteClearsPoisonAndRetargets)
{
    // Figure 3: rally writes to r3/r4 are suppressed because younger
    // advance instructions already overwrote them.
    RegisterFile rf;
    rf.writePoisoned(3, 0b1, 0); // seq 0 load poisons r3
    rf.write(3, 3, 6);           // seq 6 tail instr overwrites r3
    EXPECT_EQ(rf.poison(3), 0);
    EXPECT_FALSE(rf.writeGated(3, 9, 0)); // rally write suppressed
    EXPECT_EQ(rf.read(3), 3u);
}

TEST(RegisterFile, CheckpointRestore)
{
    RegisterFile rf;
    rf.write(1, 100, 1);
    rf.checkpoint();
    rf.write(1, 200, 2);
    rf.writePoisoned(2, 0b1, 3);
    rf.restore();
    EXPECT_EQ(rf.read(1), 100u);
    EXPECT_EQ(rf.poison(2), 0);
    EXPECT_FALSE(rf.anyPoisoned());
}

TEST(RegisterFile, R0AlwaysZeroNeverPoisoned)
{
    RegisterFile rf;
    rf.write(0, 55, 1);
    rf.writePoisoned(0, 0b1, 2);
    EXPECT_EQ(rf.read(0), 0u);
    EXPECT_EQ(rf.poison(0), 0);
}

// ---- Signature --------------------------------------------------------------

TEST(Signature, InsertedAddressesAlwaysProbe)
{
    Signature sig(1024);
    Rng rng(7);
    std::vector<Addr> addrs;
    for (int i = 0; i < 50; ++i)
        addrs.push_back(rng.below(1 << 20) * 8);
    for (const Addr a : addrs)
        sig.insert(a);
    for (const Addr a : addrs)
        EXPECT_TRUE(sig.probe(a)); // no false negatives, ever
}

TEST(Signature, FalsePositiveRateIsLow)
{
    Signature sig(1024);
    Rng rng(8);
    for (int i = 0; i < 32; ++i)
        sig.insert(rng.below(1 << 16) * 8);
    unsigned fp = 0;
    const unsigned probes = 2000;
    for (unsigned i = 0; i < probes; ++i)
        fp += sig.probe((Addr{1} << 30) + i * 8);
    EXPECT_LT(double(fp) / probes, 0.05);
}

TEST(Signature, ClearEmpties)
{
    Signature sig(1024);
    sig.insert(0x100);
    EXPECT_FALSE(sig.empty());
    sig.clear();
    EXPECT_TRUE(sig.empty());
    EXPECT_FALSE(sig.probe(0x100));
}

} // namespace
} // namespace icfp
