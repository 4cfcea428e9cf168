/**
 * @file
 * Scheme-specific semantic claims from Sections 2 and 4:
 *
 *  - Runahead's secondary data-cache miss dilemma (Figures 1e/1f): the
 *    D$-blocking policy wins when future misses depend on the secondary
 *    miss, the non-blocking policy wins when they are independent, and
 *    no single policy wins both — whereas iCFP beats (or matches) both
 *    policies on both patterns.
 *  - Multipass accelerates rallies by reusing buffered miss-independent
 *    results (it re-processes post-miss instructions but breaks their
 *    dependences).
 *  - SLTP's single blocking rally versus iCFP's multi-pass behaviour.
 */

#include <gtest/gtest.h>

#include "multipass/multipass_core.hh"
#include "runahead/runahead_core.hh"
#include "sim/simulator.hh"
#include "sltp/sltp_core.hh"

namespace icfp {
namespace {

constexpr size_t kRegion = 32 * 1024 * 1024;
constexpr Addr kColdA = 0x400000;
constexpr Addr kColdB = 0x800000;

/**
 * The Figure 1e/1f scaffold: a primary L2 miss (A), then a D$ miss that
 * hits the L2 (C), then either a load dependent on C (variant f) or an
 * independent L2 miss (variant e).
 */
Program
secondaryMissProgram(bool dependent)
{
    ProgramBuilder b(kRegion);
    b.li(1, kColdA);
    b.li(5, kColdB);
    b.li(8, 0x20000);
    b.li(22, 5); // multiplier for the prefetch-hostile C walk
    // The L2-resident ring's values point into a *cold* region, so the
    // 1f variant's dependent load D is a genuine L2 miss (the case the
    // D$-blocking policy is supposed to win). Every 8-aligned slot holds
    // a pointer because C's walk is multiplicative, not strided.
    for (Addr a = 0; a < 0x20000; a += 8)
        b.poke(0x20000 + a, 0xc00000 + (a * 131) % 0x1000000);
    b.li(20, 300);
    b.li(21, 0);
    const uint32_t loop = b.label();
    b.ld(2, 1, 0); // A: primary L2 miss
    b.ld(9, 8, 0); // C: secondary D$ miss (L2 hit)
    if (dependent) {
        b.ld(10, 9, 0); // D (1f): depends on C
        b.add(11, 10, 10);
    } else {
        b.add(10, 9, 9); // D (1e): simple use
        b.ld(6, 5, 0);   // independent L2 miss
        b.add(7, 6, 6);
    }
    // A walks its line slowly (one fresh L2 miss per 8 iterations) so
    // episode coverage of future A's is not the dominant effect — the
    // policies are differentiated by what they do with C and D, as in
    // the paper's straight-line timeline.
    b.addi(1, 1, 8);
    b.addi(5, 5, 4160);
    // Prefetch-hostile: r8 = 0x20000 + ((5*r8 + 136) mod 128K) keeps C
    // missing the D$ without a stride the prefetcher can lock onto.
    b.mul(8, 8, 22);
    b.addi(8, 8, 136);
    b.andi(8, 8, 0x1ffff);
    b.addi(8, 8, 0x20000);
    b.addi(21, 21, 1);
    b.blt(21, 20, loop);
    b.halt();
    return std::move(b).build(dependent ? "fig1f" : "fig1e");
}

Cycle
runRa(const Trace &trace, SecondaryMissPolicy policy)
{
    RunaheadParams p;
    p.trigger = AdvanceTrigger::AnyDcache; // must be in an episode at C
    p.secondaryPolicy = policy;
    RunaheadCore core(CoreParams{}, MemParams{}, p);
    return core.run(trace).cycles;
}

TEST(RunaheadDilemma, NoSinglePolicyWinsBothPatterns)
{
    const Trace indep = Interpreter::run(secondaryMissProgram(false),
                                         60000);
    const Trace dep = Interpreter::run(secondaryMissProgram(true), 60000);

    const Cycle e_block = runRa(indep, SecondaryMissPolicy::Block);
    const Cycle e_nb = runRa(indep, SecondaryMissPolicy::Poison);
    const Cycle f_block = runRa(dep, SecondaryMissPolicy::Block);
    const Cycle f_nb = runRa(dep, SecondaryMissPolicy::Poison);

    // Figure 1e: waiting for C delays the independent L2 miss, so
    // non-blocking should not lose; Figure 1f: poisoning C forfeits the
    // dependent miss D, so blocking should not lose. (In a loop context
    // the gap on 1f is small — a D that non-blocking forfeits inside
    // this episode triggers its own episode later and prefetches the
    // following Ds — so the assertion is tie-or-win, which is also how
    // the paper reports it: "most benchmarks prefer D$-blocking", not
    // "by a lot".)
    EXPECT_LE(e_nb, e_block + e_block / 100);
    EXPECT_LE(f_block, f_nb + f_nb / 50);
}

TEST(RunaheadDilemma, ICfpMatchesBothSpecializedPolicies)
{
    SimConfig cfg;
    for (const bool dependent : {false, true}) {
        const Trace trace =
            Interpreter::run(secondaryMissProgram(dependent), 60000);
        const Cycle best_ra =
            std::min(runRa(trace, SecondaryMissPolicy::Block),
                     runRa(trace, SecondaryMissPolicy::Poison));
        const Cycle ic = simulate(CoreKind::ICfp, cfg, trace).cycles;
        // iCFP poisons confidently because it can rally back the moment
        // the miss returns (Section 2): within 5% of the better RA
        // policy on both patterns.
        EXPECT_LE(ic, best_ra + best_ra / 20)
            << (dependent ? "fig1f" : "fig1e");
    }
}

// ------------------------------------------------------------- Multipass

TEST(MultipassSemantics, ResultReuseCutsReExecutionWork)
{
    // Independent misses plus plenty of miss-independent compute: every
    // pass re-processes the post-miss instructions, but buffered results
    // break dependences so later passes run faster. The observable
    // effect: Multipass beats Runahead, which re-executes cold.
    WorkloadParams w;
    w.name = "mp-reuse";
    w.coldBytes = 8 * 1024 * 1024;
    w.coldLoads = 1;
    w.coldRandom = true;
    w.intOps = 12;
    w.stores = 2;
    const Trace trace = Interpreter::run(buildWorkload(w), 20000);
    SimConfig cfg;
    const Cycle mp = simulate(CoreKind::Multipass, cfg, trace).cycles;
    const Cycle ra = simulate(CoreKind::Runahead, cfg, trace).cycles;
    EXPECT_LE(mp, ra + ra / 50);
}

TEST(MultipassSemantics, TinyInstBufferStillCorrect)
{
    WorkloadParams w;
    w.name = "mp-tiny";
    w.coldBytes = 4 * 1024 * 1024;
    w.coldLoads = 2;
    w.intOps = 6;
    w.stores = 2;
    const Trace trace = Interpreter::run(buildWorkload(w), 10000);
    MultipassParams p;
    p.instBufferEntries = 8;
    MultipassCore core(CoreParams{}, MemParams{}, p);
    const RunResult r = core.run(trace);
    EXPECT_EQ(r.instructions, trace.size());
}

// ------------------------------------------------------------------ SLTP

TEST(SltpSemantics, SingleRallyPerEpoch)
{
    // SLTP makes exactly one (blocking) rally pass per advance epoch;
    // iCFP's passes can exceed its epochs on dependent-miss code.
    WorkloadParams w;
    w.name = "sltp-passes";
    w.coldBytes = 8 * 1024 * 1024;
    w.chaseHops = 2;
    w.chaseChains = 2;
    w.intOps = 6;
    w.stores = 1;
    const Trace trace = Interpreter::run(buildWorkload(w), 15000);
    SimConfig cfg;
    const RunResult sl = simulate(CoreKind::Sltp, cfg, trace);
    const RunResult ic = simulate(CoreKind::ICfp, cfg, trace);
    EXPECT_LE(sl.rallyPasses, sl.advanceEntries);
    EXPECT_GT(ic.rallyPasses, ic.advanceEntries);
}

TEST(SltpSemantics, TinySrlStillCorrect)
{
    WorkloadParams w;
    w.name = "sltp-tiny";
    w.coldBytes = 4 * 1024 * 1024;
    w.coldLoads = 1;
    w.intOps = 4;
    w.stores = 3;
    const Trace trace = Interpreter::run(buildWorkload(w), 10000);
    SltpParams p;
    p.srlEntries = 8;
    p.sliceEntries = 8;
    SltpCore core(CoreParams{}, MemParams{}, p);
    const RunResult r = core.run(trace);
    EXPECT_EQ(r.instructions, trace.size());
}

} // namespace
} // namespace icfp
