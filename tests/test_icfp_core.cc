/**
 * @file
 * iCFP core tests: the Figure 3 worked example, advance/rally mechanics,
 * squash paths, simple-runahead fallback, and golden-equivalence property
 * tests over randomized programs (the heavy functional verification of
 * the merge machinery — the core itself asserts every value it commits).
 */

#include <gtest/gtest.h>

#include "core/inorder_core.hh"
#include "icfp/icfp_core.hh"
#include "isa/interpreter.hh"
#include "isa/program.hh"

namespace icfp {
namespace {

/** Small memory config so tests hit/miss deterministically. */
MemParams
testMemParams()
{
    MemParams mp;
    return mp;
}

/** Run both the golden interpreter and iCFP; the core self-checks. */
RunResult
runICfp(const Program &prog, uint64_t max_insts,
        ICfpParams icfp_params = ICfpParams{})
{
    const Trace trace = Interpreter::run(prog, max_insts);
    ICfpCore core(CoreParams{}, testMemParams(), icfp_params);
    return core.run(trace);
}

/**
 * The Figure 3 program: two independent load-multiply-store chains over a
 * strided array walk. Built exactly as in the paper's working example:
 *   ld [r1] -> r3 ; ld [r2] -> r4 ; mul r3,r4 -> r4 ; st r4 -> [r1]
 *   addi r1,8 ; addi r2,8 ; (repeat)
 * with r1 pointing at a cold region (misses) and r2 at a hot one.
 */
Program
figure3Program(unsigned iterations)
{
    ProgramBuilder b(1 << 22); // 4 MB: r1 region cold beyond the caches
    // r1 = 0x100000 (cold), r2 = 0x40 (warm after first touch).
    b.li(1, 0x100000);
    b.li(2, 0x40);
    b.li(5, iterations);
    b.li(6, 0);
    const uint32_t loop = b.label();
    b.ld(3, 1, 0);      // ld [r1] -> r3   (cold: misses)
    b.ld(4, 2, 0);      // ld [r2] -> r4
    b.mul(4, 3, 4);     // mul r3, r4 -> r4
    b.st(4, 1, 0);      // st r4 -> [r1]
    b.addi(1, 1, 8);
    b.addi(2, 2, 8);
    b.addi(6, 6, 1);
    b.blt(6, 5, loop);
    b.halt();
    // Initialize data so products are nontrivial.
    for (Addr a = 0; a < (1 << 16); a += 8)
        b.poke(a, (a / 8) % 97 + 1);
    for (Addr a = 0x100000; a < 0x100000 + (1 << 16); a += 8)
        b.poke(a, (a / 8) % 89 + 2);
    return std::move(b).build("figure3");
}

TEST(ICfpCore, Figure3WorkedExample)
{
    // The core asserts every forwarded/merged value internally; this test
    // additionally checks that advance/rally actually engaged.
    const Program prog = figure3Program(64);
    const RunResult r = runICfp(prog, 100000);
    EXPECT_GT(r.advanceEntries, 0u);
    EXPECT_GT(r.rallyPasses, 0u);
    EXPECT_GT(r.rallyInsts, 0u);
    EXPECT_GT(r.slicedInsts, 0u);
    EXPECT_EQ(r.squashes, 0u); // loop branch is predictable
}

TEST(ICfpCore, OutperformsInOrderOnMissChains)
{
    const Program prog = figure3Program(256);
    const Trace trace = Interpreter::run(prog, 100000);

    InOrderCore base(CoreParams{}, testMemParams());
    const RunResult rb = base.run(trace);

    ICfpCore core(CoreParams{}, testMemParams());
    const RunResult ri = core.run(trace);

    EXPECT_EQ(rb.instructions, ri.instructions);
    EXPECT_LT(ri.cycles, rb.cycles); // iCFP must win on this pattern
}

TEST(ICfpCore, PureComputeNeverAdvances)
{
    ProgramBuilder b(4096);
    b.li(1, 1);
    b.li(2, 3);
    b.li(5, 2000);
    b.li(6, 0);
    const uint32_t loop = b.label();
    b.add(1, 1, 2);
    b.mul(3, 1, 2);
    b.xor_(4, 3, 1);
    b.addi(6, 6, 1);
    b.blt(6, 5, loop);
    b.halt();
    const RunResult r = runICfp(std::move(b).build("compute"), 50000);
    EXPECT_EQ(r.advanceEntries, 0u);
    EXPECT_EQ(r.rallyInsts, 0u);
}

TEST(ICfpCore, StoreLoadForwardingThroughChainedSb)
{
    // Store then immediately load the same address under a miss shadow.
    ProgramBuilder b(1 << 22);
    b.li(1, 0x200000);         // cold region: trigger misses
    b.li(2, 0x80);             // scratch location
    b.li(5, 64);
    b.li(6, 0);
    const uint32_t loop = b.label();
    b.ld(3, 1, 0);             // miss -> epoch
    b.addi(4, 6, 41);          // miss-independent value
    b.st(4, 2, 0);             // store (miss-independent)
    b.ld(7, 2, 0);             // load must forward from the store buffer
    b.add(8, 7, 4);
    b.addi(1, 1, 8);
    b.addi(6, 6, 1);
    b.blt(6, 5, loop);
    b.halt();
    const RunResult r = runICfp(std::move(b).build("fwd"), 50000);
    EXPECT_GT(r.sbForwards, 0u);
    EXPECT_GT(r.advanceEntries, 0u);
}

TEST(ICfpCore, DependentMissesMakeMultiplePasses)
{
    // Pointer chase: each load's address depends on the previous load.
    ProgramBuilder b(1 << 22);
    const unsigned nodes = 4096;
    // Build a ring of pointers spread across 4MB (stride large enough to
    // miss): node i at addr i*1024 points to node (i+1).
    for (unsigned i = 0; i < nodes; ++i)
        b.poke(Addr{i} * 1024, (Addr{i} + 1) % nodes * 1024);
    b.li(1, 0);
    b.li(5, 512);
    b.li(6, 0);
    const uint32_t loop = b.label();
    b.ld(1, 1, 0);  // r1 = MEM[r1]: dependent miss chain
    b.addi(6, 6, 1);
    b.blt(6, 5, loop);
    b.halt();
    const RunResult r = runICfp(std::move(b).build("chase"), 50000);
    EXPECT_GT(r.rallyPasses, 1u);
    EXPECT_GT(r.advanceEntries, 0u);
}

TEST(ICfpCore, BlockingRallyStillCorrect)
{
    ICfpParams p;
    p.nonBlockingRally = false;
    p.multithreadedRally = false;
    p.poisonBits = 1;
    const Program prog = figure3Program(128);
    const RunResult r = runICfp(prog, 100000, p);
    EXPECT_GT(r.rallyPasses, 0u);
}

TEST(ICfpCore, SinglePoisonBitStillCorrect)
{
    ICfpParams p;
    p.poisonBits = 1;
    const Program prog = figure3Program(128);
    const RunResult r = runICfp(prog, 100000, p);
    EXPECT_GT(r.rallyPasses, 0u);
}

TEST(ICfpCore, TinySliceBufferFallsBackToSimpleRunahead)
{
    ICfpParams p;
    p.sliceEntries = 4;
    const Program prog = figure3Program(256);
    const RunResult r = runICfp(prog, 100000, p);
    EXPECT_GT(r.simpleRaEntries, 0u);
}

TEST(ICfpCore, ExternalStoreSquashesViaSignature)
{
    // Inject external stores over the whole run at the warm addresses the
    // loop loads from the cache inside every epoch; at least one should
    // land inside an epoch and squash.
    ICfpParams p;
    for (Cycle c = 100; c < 40000; c += 50)
        p.externalStores.push_back({c, 0x40 + (c % 64) * 8});
    const Program prog = figure3Program(256);
    const Trace trace = Interpreter::run(prog, 100000);
    ICfpCore core(CoreParams{}, testMemParams(), p);
    const RunResult r = core.run(trace);
    EXPECT_GT(core.signatureSquashes(), 0u);
    EXPECT_GT(r.squashes, 0u);
}

TEST(ICfpCore, IndexedLimitedModeCorrect)
{
    ICfpParams p;
    p.storeBuffer.mode = SbMode::IndexedLimited;
    const Program prog = figure3Program(64);
    const RunResult r = runICfp(prog, 50000, p);
    EXPECT_GT(r.advanceEntries, 0u);
}

TEST(ICfpCore, FullyAssociativeModeCorrect)
{
    ICfpParams p;
    p.storeBuffer.mode = SbMode::FullyAssoc;
    const Program prog = figure3Program(64);
    const RunResult r = runICfp(prog, 50000, p);
    EXPECT_EQ(r.sbExcessHops, 0u);
}

} // namespace
} // namespace icfp
