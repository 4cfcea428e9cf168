/**
 * @file
 * The Figure 1 miss scenarios as executable assertions.
 *
 * Section 2 of the paper walks through six abstract miss patterns and
 * predicts, for each, which schemes help and which do not. These tests
 * build micro-programs realizing each pattern and assert the predicted
 * *ordering* (with small tolerances where the paper predicts ties). They
 * are the regression net for the qualitative claims the evaluation
 * section rests on.
 */

#include <gtest/gtest.h>

#include <functional>

#include "sim/simulator.hh"

namespace icfp {
namespace {

constexpr size_t kRegion = 32 * 1024 * 1024;
constexpr Addr kColdA = 0x400000;
constexpr Addr kColdB = 0x800000;
constexpr unsigned kIters = 300;

/** Common loop scaffold: init(), then body() / counter / branch. */
Program
loopProgram(const char *name,
            const std::function<void(ProgramBuilder &)> &init,
            const std::function<void(ProgramBuilder &)> &body)
{
    ProgramBuilder b(kRegion);
    init(b);
    b.li(20, kIters);
    b.li(21, 0);
    const uint32_t loop = b.label();
    body(b);
    b.addi(21, 21, 1);
    b.blt(21, 20, loop);
    b.halt();
    return std::move(b).build(name);
}

struct ScenarioCycles
{
    Cycle inorder;
    Cycle runahead;
    Cycle multipass;
    Cycle sltp;
    Cycle icfp;
};

ScenarioCycles
runAll(const Program &program)
{
    const Trace trace = Interpreter::run(program, 80000);
    SimConfig cfg;
    ScenarioCycles c;
    c.inorder = simulate(CoreKind::InOrder, cfg, trace).cycles;
    c.runahead = simulate(CoreKind::Runahead, cfg, trace).cycles;
    c.multipass = simulate(CoreKind::Multipass, cfg, trace).cycles;
    c.sltp = simulate(CoreKind::Sltp, cfg, trace).cycles;
    c.icfp = simulate(CoreKind::ICfp, cfg, trace).cycles;
    return c;
}

/** a is at least @p pct percent faster than b. */
::testing::AssertionResult
fasterByPct(Cycle a, Cycle b, double pct)
{
    const double gain = 100.0 * (double(b) / double(a) - 1.0);
    if (gain >= pct)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "expected >= " << pct << "% gain, got " << gain << "% ("
           << a << " vs " << b << " cycles)";
}

/** a within @p pct percent of b (tie). */
::testing::AssertionResult
roughlyEqual(Cycle a, Cycle b, double pct)
{
    const double diff =
        100.0 * std::abs(double(a) - double(b)) / double(b);
    if (diff <= pct)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "expected within " << pct << "%, got " << diff << "% ("
           << a << " vs " << b << " cycles)";
}

// ---------------------------------------------------------------- Fig 1a

Program
loneMissProgram()
{
    // The figure's "lone" miss means no other miss is reachable during
    // the shadow of this one: the post-miss independent work (C..F) must
    // outlast the memory latency, so advance execution never reaches the
    // next iteration's load. ~1200 ALU ops at 2-wide ~= 600 cycles > 400.
    return loopProgram(
        "lone-miss",
        [](ProgramBuilder &b) { b.li(1, kColdA); },
        [](ProgramBuilder &b) {
            b.ld(2, 1, 0);  // A: L2 miss
            b.add(3, 2, 2); // B: its lone dependent
            for (int i = 0; i < 1200; ++i)
                b.addi(4, 21, 7); // C..F: miss-independent work
            b.addi(1, 1, 4160);
        });
}

TEST(Fig1a_LoneL2Miss, RunaheadProvidesNoBenefit)
{
    const ScenarioCycles c = runAll(loneMissProgram());
    // "In this situation, RA provides no benefit" — it re-executes all
    // the post-miss instructions it ran in advance mode.
    EXPECT_TRUE(roughlyEqual(c.runahead, c.inorder, 5.0));
}

TEST(Fig1a_LoneL2Miss, SliceSchemesCommitIndependentWork)
{
    const ScenarioCycles c = runAll(loneMissProgram());
    // "SLTP and iCFP do" — they commit C..F and re-execute only A-B.
    EXPECT_TRUE(fasterByPct(c.sltp, c.inorder, 5.0));
    EXPECT_TRUE(fasterByPct(c.icfp, c.inorder, 5.0));
    EXPECT_TRUE(fasterByPct(c.icfp, c.runahead, 5.0));
}

// ---------------------------------------------------------------- Fig 1b

Program
independentMissProgram()
{
    return loopProgram(
        "indep-miss",
        [](ProgramBuilder &b) {
            b.li(1, kColdA);
            b.li(5, kColdB);
        },
        [](ProgramBuilder &b) {
            b.ld(2, 1, 0);  // A
            b.add(3, 2, 2);
            b.ld(6, 5, 0);  // E: independent of A
            b.add(7, 6, 6);
            b.addi(1, 1, 4160);
            b.addi(5, 5, 4160);
        });
}

TEST(Fig1b_IndependentMisses, EveryAdvanceSchemeOverlapsThem)
{
    const ScenarioCycles c = runAll(independentMissProgram());
    // "RA, SLTP, and iCFP can all overlap these misses."
    EXPECT_TRUE(fasterByPct(c.runahead, c.inorder, 15.0));
    EXPECT_TRUE(fasterByPct(c.multipass, c.inorder, 15.0));
    EXPECT_TRUE(fasterByPct(c.sltp, c.inorder, 15.0));
    EXPECT_TRUE(fasterByPct(c.icfp, c.inorder, 15.0));
}

TEST(Fig1b_IndependentMisses, ICfpAtLeastMatchesTheOthers)
{
    const ScenarioCycles c = runAll(independentMissProgram());
    EXPECT_LE(c.icfp, c.runahead + c.runahead / 20);
    EXPECT_LE(c.icfp, c.sltp + c.sltp / 20);
}

// ---------------------------------------------------------------- Fig 1c

/**
 * One serial pointer chain, two hops per iteration: A's loaded value is
 * E's address, and E's loaded value is the next iteration's A address —
 * every miss in the program depends on the one before it, so advance
 * execution can never initiate a future miss early.
 */
Program
dependentMissProgram()
{
    ProgramBuilder b(kRegion);
    const unsigned node = 8384;
    const size_t nodes = (kRegion / 2) / node;
    // Ring between two halves: lo[i] -> hi[p(i)] -> lo[p'(i)] -> ...
    for (size_t i = 0; i < nodes; ++i) {
        b.poke(Addr{i} * node,
               kRegion / 2 + (Addr{i} * 131 + 97) % nodes * node);
        b.poke(kRegion / 2 + Addr{i} * node,
               (Addr{i} * 193 + 31) % nodes * node);
    }
    b.li(1, 0);
    b.li(20, kIters);
    b.li(21, 0);
    const uint32_t loop = b.label();
    b.ld(2, 1, 0);      // A: L2 miss, produces E's address
    b.ld(1, 2, 0);      // E: L2 miss, produces the next A's address
    b.add(4, 1, 1);     // use of E
    for (int i = 0; i < 200; ++i)
        b.addi(5, 21, 3); // C, D: independent work
    b.addi(21, 21, 1);
    b.blt(21, 20, loop);
    b.halt();
    return std::move(b).build("dep-miss");
}

TEST(Fig1c_DependentMisses, RunaheadIsIneffective)
{
    const ScenarioCycles c = runAll(dependentMissProgram());
    // "RA is ineffective here" — advance under A cannot resolve E.
    EXPECT_TRUE(roughlyEqual(c.runahead, c.inorder, 8.0));
}

TEST(Fig1c_DependentMisses, ICfpBeatsBlockingRallySchemes)
{
    const ScenarioCycles c = runAll(dependentMissProgram());
    // SLTP commits C and D under A but blocks rallying under E;
    // iCFP keeps committing under E too.
    EXPECT_LE(c.icfp, c.sltp);
    EXPECT_TRUE(fasterByPct(c.icfp, c.inorder, 4.0));
}

// ---------------------------------------------------------------- Fig 1d

/** Two independent chains of pairwise-dependent misses. */
Program
chainsProgram()
{
    ProgramBuilder b(kRegion);
    const unsigned node = 8384;
    const size_t nodes = (kRegion / 2) / node;
    for (size_t i = 0; i < nodes; ++i) {
        b.poke(Addr{i} * node, (Addr{i} + 97) % nodes * node);
        b.poke(kRegion / 2 + Addr{i} * node,
               kRegion / 2 + (Addr{i} + 193) % nodes * node);
    }
    b.li(1, 0);           // chain 1 cursor (A -> B -> ...)
    b.li(5, kRegion / 2); // chain 2 cursor (E -> F -> ...)
    b.li(20, kIters);
    b.li(21, 0);
    const uint32_t loop = b.label();
    b.ld(1, 1, 0);
    b.add(2, 1, 1);
    b.ld(5, 5, 0);
    b.add(6, 5, 5);
    b.addi(21, 21, 1);
    b.blt(21, 20, loop);
    b.halt();
    return std::move(b).build("chains");
}

TEST(Fig1d_IndependentChains, RunaheadOverlapsTheChains)
{
    const ScenarioCycles c = runAll(chainsProgram());
    // "RA is effective, overlapping E with A and F with B."
    EXPECT_TRUE(fasterByPct(c.runahead, c.inorder, 10.0));
}

TEST(Fig1d_IndependentChains, BlockingRalliesSerializeSltp)
{
    const ScenarioCycles c = runAll(chainsProgram());
    // "Despite being able to commit ... SLTP is less effective than RA"
    // because its blocking rallies serialize B and F. iCFP has no such
    // limit.
    EXPECT_GE(c.sltp + c.sltp / 50, c.runahead);
    EXPECT_LE(c.icfp, c.sltp);
    EXPECT_LE(c.icfp, c.runahead + c.runahead / 20);
}

// -------------------------------------------------------------- Fig 1e/f

/** D$ miss (L2 hit) + another L2 miss under a primary L2 miss. */
Program
secondaryDcacheProgram(bool dependent_on_dcache_miss)
{
    return loopProgram(
        dependent_on_dcache_miss ? "f-dep" : "e-indep",
        [](ProgramBuilder &b) {
            b.li(1, kColdA);
            b.li(5, kColdB);
            b.li(8, 0x20000); // L2-resident ring
            // Pointer ring inside the L2-resident region for the
            // dependent variant: C's loaded value addresses D's load.
            for (Addr a = 0; a < 0x20000; a += 128)
                b.poke(0x20000 + a, 0x20000 + (a + 8192) % 0x20000);
        },
        [=](ProgramBuilder &b) {
            b.ld(2, 1, 0); // A: primary L2 miss
            b.ld(9, 8, 0); // C: D$ miss that hits the L2
            if (dependent_on_dcache_miss) {
                b.ld(10, 9, 0); // D: load whose address depends on C
                b.add(11, 10, 10);
            } else {
                b.add(10, 9, 9); // D: simple use of C
                b.ld(6, 5, 0);   // independent L2 miss
                b.add(7, 6, 6);
            }
            b.addi(1, 1, 4160);
            b.addi(5, 5, 4160);
            b.addi(8, 8, 128);
            b.andi(8, 8, 0x1ffff);
        });
}

TEST(Fig1e_SecondaryDcacheMiss, ICfpPoisonsAndStillWins)
{
    const ScenarioCycles c = runAll(secondaryDcacheProgram(false));
    // iCFP can poison the secondary D$ miss, advance to the independent
    // L2 miss, and come back — it must beat in-order clearly.
    EXPECT_TRUE(fasterByPct(c.icfp, c.inorder, 10.0));
}

TEST(Fig1f_DependentL2UnderMiss, ICfpHandlesBothPatterns)
{
    const ScenarioCycles ce = runAll(secondaryDcacheProgram(false));
    const ScenarioCycles cf = runAll(secondaryDcacheProgram(true));
    // Runahead must pick one policy and lose on the other pattern;
    // iCFP is at least as good as Runahead on both (Section 2).
    EXPECT_LE(ce.icfp, ce.runahead + ce.runahead / 20);
    EXPECT_LE(cf.icfp, cf.runahead + cf.runahead / 20);
}

} // namespace
} // namespace icfp
