/**
 * @file
 * Tests for the in-order baseline and the three comparison schemes
 * (Runahead, Multipass, SLTP): functional correctness (each model
 * self-checks against the golden trace), miss-pattern behaviours from
 * Figure 1, and the relative-performance orderings the paper reports.
 */

#include <gtest/gtest.h>

#include "core/inorder_core.hh"
#include "icfp/icfp_core.hh"
#include "isa/interpreter.hh"
#include "isa/program.hh"
#include "multipass/multipass_core.hh"
#include "runahead/runahead_cache.hh"
#include "runahead/runahead_core.hh"
#include "sim/simulator.hh"
#include "sltp/sltp_core.hh"
#include "workloads/nonspec_suites.hh"
#include "workloads/suite_registry.hh"

namespace icfp {
namespace {

/** Strided cold-region walk with per-iteration dependent work. */
Program
independentMissProgram(unsigned iterations, unsigned stride = 256)
{
    ProgramBuilder b(1 << 23);
    b.li(1, 0x400000);
    b.li(5, iterations);
    b.li(6, 0);
    const uint32_t loop = b.label();
    b.ld(3, 1, 0);         // independent miss each iteration
    b.addi(4, 3, 7);       // dependent use
    b.addi(1, 1, static_cast<int64_t>(stride));
    b.addi(6, 6, 1);
    b.blt(6, 5, loop);
    b.halt();
    for (Addr a = 0x400000; a < 0x400000 + Addr{iterations} * stride + 8;
         a += 8)
        b.poke(a, a / 8);
    return std::move(b).build("independent-misses");
}

/** Pointer chase: chains of dependent misses. */
Program
dependentMissProgram(unsigned hops)
{
    ProgramBuilder b(1 << 23);
    const unsigned nodes = 2048;
    // Pseudo-random ring with large strides so every hop misses.
    const unsigned step = 701; // coprime with nodes
    for (unsigned i = 0; i < nodes; ++i) {
        const Addr at = Addr{i} * (1 << 12);
        const Addr next = Addr{(i + step) % nodes} * (1 << 12);
        b.poke(at, next);
    }
    b.li(1, 0);
    b.li(5, hops);
    b.li(6, 0);
    const uint32_t loop = b.label();
    b.ld(1, 1, 0);
    b.addi(6, 6, 1);
    b.blt(6, 5, loop);
    b.halt();
    return std::move(b).build("dependent-misses");
}

/**
 * Cold strided walk that branches on three pseudo-random bits of each
 * loaded value: the branch is poisoned and mispredicted about one
 * iteration in eight, so every advance mode goes down its wrong path.
 * The not-taken path stores the missing value and reloads it.
 */
Program
missBranchProgram(unsigned iterations, unsigned stride = 256)
{
    ProgramBuilder b(1 << 23);
    b.li(1, 0x400000);
    b.li(5, iterations);
    b.li(6, 0);
    b.li(8, 0x100);
    const uint32_t loop = b.label();
    b.ld(3, 1, 0);      // cold miss
    b.andi(4, 3, 7);    // poisoned
    const uint32_t branch = b.label();
    b.bne(4, 0, 0);     // poisoned; target patched below
    b.st(3, 8, 0);      // poisoned store data, known address
    b.ld(9, 8, 0);
    b.addi(7, 9, 1);
    b.patchTarget(branch, b.label());
    b.addi(1, 1, static_cast<int64_t>(stride));
    b.addi(6, 6, 1);
    b.blt(6, 5, loop);
    b.halt();
    uint64_t x = 12345;
    for (unsigned i = 0; i < iterations; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        b.poke(0x400000 + Addr{i} * stride, x >> 33);
    }
    return std::move(b).build("miss-branch");
}

Trace
traceOf(const Program &prog, uint64_t max_insts = 200000)
{
    return Interpreter::run(prog, max_insts);
}

TEST(RunaheadCore, CorrectOnComputeLoop)
{
    ProgramBuilder b(4096);
    b.li(1, 3);
    b.li(5, 1000);
    b.li(6, 0);
    const uint32_t loop = b.label();
    b.mul(2, 1, 1);
    b.add(1, 2, 1);
    b.st(1, 6, 64);
    b.ld(3, 6, 64);
    b.addi(6, 6, 1);
    b.blt(6, 5, loop);
    b.halt();
    const Trace t = traceOf(std::move(b).build("compute"));
    RunaheadCore core(CoreParams{}, MemParams{});
    const RunResult r = core.run(t);
    EXPECT_EQ(r.advanceEntries, 0u); // everything hits after warmup
    EXPECT_GT(r.ipc(), 0.5);
}

TEST(RunaheadCore, EntersAndExitsEpisodes)
{
    const Trace t = traceOf(independentMissProgram(512));
    RunaheadCore core(CoreParams{}, MemParams{});
    const RunResult r = core.run(t);
    EXPECT_GT(r.advanceEntries, 0u);
    EXPECT_EQ(r.advanceEntries, r.squashes); // every episode restores
    EXPECT_GT(r.advanceInsts, 0u);
}

TEST(RunaheadCore, BeatsInOrderOnIndependentMisses)
{
    const Trace t = traceOf(independentMissProgram(512));
    InOrderCore base(CoreParams{}, MemParams{});
    RunaheadCore ra(CoreParams{}, MemParams{});
    EXPECT_LT(ra.run(t).cycles, base.run(t).cycles);
}

TEST(RunaheadCore, NoBenefitOnDependentMisses)
{
    // Figure 1c: RA is ineffective on a pure dependent chain — but must
    // not be catastrophically worse than in-order either.
    const Trace t = traceOf(dependentMissProgram(1024));
    InOrderCore base(CoreParams{}, MemParams{});
    RunaheadCore ra(CoreParams{}, MemParams{});
    const Cycle cb = base.run(t).cycles;
    const Cycle cr = ra.run(t).cycles;
    EXPECT_LT(cr, cb * 13 / 10);
}

TEST(RunaheadCore, DcacheNonBlockingConfig)
{
    RunaheadParams p;
    p.trigger = AdvanceTrigger::AnyDcache;
    p.secondaryPolicy = SecondaryMissPolicy::Poison;
    const Trace t = traceOf(independentMissProgram(256));
    RunaheadCore ra(CoreParams{}, MemParams{}, p);
    const RunResult r = ra.run(t);
    EXPECT_GT(r.advanceEntries, 0u);
}

TEST(MultipassCore, CorrectAndCommits)
{
    const Trace t = traceOf(independentMissProgram(512));
    MultipassCore core(CoreParams{}, MemParams{});
    const RunResult r = core.run(t);
    EXPECT_GT(r.advanceEntries, 0u);
    EXPECT_GT(r.rallyPasses, 0u);
}

TEST(MultipassCore, BeatsInOrderOnIndependentMisses)
{
    const Trace t = traceOf(independentMissProgram(512));
    InOrderCore base(CoreParams{}, MemParams{});
    MultipassCore mp(CoreParams{}, MemParams{});
    EXPECT_LT(mp.run(t).cycles, base.run(t).cycles);
}

TEST(MultipassCore, ResultReuseBeatsRunaheadOnMixedWork)
{
    // Multipass's recorded results accelerate re-execution; with plenty
    // of miss-independent work per miss it should at least match RA.
    ProgramBuilder b(1 << 23);
    b.li(1, 0x400000);
    b.li(5, 256);
    b.li(6, 0);
    const uint32_t loop = b.label();
    b.ld(3, 1, 0);
    for (int k = 0; k < 12; ++k)
        b.add(7, 6, 5); // independent filler
    b.addi(4, 3, 1);    // one dependent use
    b.addi(1, 1, 512);
    b.addi(6, 6, 1);
    b.blt(6, 5, loop);
    b.halt();
    for (Addr a = 0x400000; a < 0x400000 + 256 * 512 + 8; a += 8)
        b.poke(a, a);
    const Trace t = traceOf(std::move(b).build("mixed"));
    InOrderCore base(CoreParams{}, MemParams{});
    RunaheadCore ra(CoreParams{}, MemParams{});
    MultipassCore mp(CoreParams{}, MemParams{});
    const Cycle c_base = base.run(t).cycles;
    const Cycle c_ra = ra.run(t).cycles;
    const Cycle c_mp = mp.run(t).cycles;
    // Multipass triggers on primary D$ misses too and re-walks its window
    // once per miss-return cluster, so on this all-miss microbenchmark it
    // trails Runahead; it must still not be pathologically worse, and its
    // whole point is beating the blocking baseline.
    EXPECT_LE(c_mp, c_ra * 2);
    EXPECT_LT(c_mp, c_base);
}

TEST(SltpCore, CorrectOnComputeLoop)
{
    ProgramBuilder b(4096);
    b.li(1, 5);
    b.li(5, 1000);
    b.li(6, 0);
    const uint32_t loop = b.label();
    b.add(1, 1, 1);
    b.st(1, 6, 0);
    b.ld(2, 6, 0);
    b.addi(6, 6, 1);
    b.blt(6, 5, loop);
    b.halt();
    const Trace t = traceOf(std::move(b).build("compute"));
    SltpCore core(CoreParams{}, MemParams{});
    const RunResult r = core.run(t);
    EXPECT_GT(r.ipc(), 0.4);
}

TEST(SltpCore, RalliesAndCommits)
{
    const Trace t = traceOf(independentMissProgram(512));
    SltpCore core(CoreParams{}, MemParams{});
    const RunResult r = core.run(t);
    EXPECT_GT(r.advanceEntries, 0u);
    EXPECT_GT(r.rallyPasses, 0u);
    EXPECT_GT(r.slicedInsts, 0u);
}

TEST(SltpCore, BeatsInOrderOnIndependentMisses)
{
    const Trace t = traceOf(independentMissProgram(512));
    InOrderCore base(CoreParams{}, MemParams{});
    SltpCore sltp(CoreParams{}, MemParams{});
    EXPECT_LT(sltp.run(t).cycles, base.run(t).cycles);
}

TEST(Ordering, ICfpMatchesOrBeatsAllOnDependentMisses)
{
    // Figure 1c/1d: dependent misses are where iCFP's non-blocking
    // rallies pay off; nothing should beat it here.
    const Trace t = traceOf(dependentMissProgram(768));
    InOrderCore base(CoreParams{}, MemParams{});
    RunaheadCore ra(CoreParams{}, MemParams{});
    MultipassCore mp(CoreParams{}, MemParams{});
    SltpCore sltp(CoreParams{}, MemParams{});
    ICfpCore icfp_core(CoreParams{}, MemParams{});

    const Cycle c_base = base.run(t).cycles;
    const Cycle c_ra = ra.run(t).cycles;
    const Cycle c_mp = mp.run(t).cycles;
    const Cycle c_sltp = sltp.run(t).cycles;
    const Cycle c_icfp = icfp_core.run(t).cycles;

    // On a *pure* chain there is nothing to overlap; iCFP may pay a small
    // epoch-management overhead vs. in-order (the paper's dependent-miss
    // wins, e.g. mcf/vpr, come from the independent work around chains).
    EXPECT_LE(c_icfp, c_base * 101 / 100);
    EXPECT_LE(c_icfp, c_ra * 102 / 100);
    EXPECT_LE(c_icfp, c_mp * 102 / 100);
    EXPECT_LE(c_icfp, c_sltp * 102 / 100);
}

TEST(Ordering, AllSchemesBeatInOrderOnIndependentMisses)
{
    const Trace t = traceOf(independentMissProgram(768));
    InOrderCore base(CoreParams{}, MemParams{});
    RunaheadCore ra(CoreParams{}, MemParams{});
    MultipassCore mp(CoreParams{}, MemParams{});
    SltpCore sltp(CoreParams{}, MemParams{});
    ICfpCore icfp_core(CoreParams{}, MemParams{});

    const Cycle c_base = base.run(t).cycles;
    EXPECT_LT(ra.run(t).cycles, c_base);
    EXPECT_LT(mp.run(t).cycles, c_base);
    EXPECT_LT(sltp.run(t).cycles, c_base);
    EXPECT_LT(icfp_core.run(t).cycles, c_base);
}

TEST(SharedPipeline, NeverAdvancingSchemesAreTheInOrderBaseline)
{
    // Runahead and Multipass run the baseline's in-order pipeline between
    // episodes, so with no trigger they must be the baseline cycle for
    // cycle. (SLTP is left out on purpose: its tail stores go through the
    // SRL, not the baseline store buffer.)
    SimConfig cfg;
    cfg.runahead.trigger = AdvanceTrigger::None;
    cfg.multipass.trigger = AdvanceTrigger::None;
    for (const char *suite : {kDefaultSuiteName, kNonspecSuiteName}) {
        for (const BenchmarkSpec &spec : findSuite(suite)) {
            const Trace trace = makeBenchTrace(spec, 20000);
            const RunResult base = simulate(CoreKind::InOrder, cfg, trace);
            for (const CoreKind kind :
                 {CoreKind::Runahead, CoreKind::Multipass}) {
                const RunResult r = simulate(kind, cfg, trace);
                const std::string what = spec.name + " on " + r.core;
                EXPECT_EQ(r.cycles, base.cycles) << what;
                EXPECT_EQ(r.mem.dcacheMisses, base.mem.dcacheMisses) << what;
                EXPECT_EQ(r.mem.l2Misses, base.mem.l2Misses) << what;
                EXPECT_EQ(r.mem.prefetchHits, base.mem.prefetchHits) << what;
                EXPECT_EQ(r.dcacheMlp, base.dcacheMlp) << what;
                EXPECT_EQ(r.l2Mlp, base.l2Mlp) << what;
                EXPECT_EQ(r.branch.condMispredicts,
                          base.branch.condMispredicts)
                    << what;
                EXPECT_EQ(r.branch.indirectMispredicts,
                          base.branch.indirectMispredicts)
                    << what;
                EXPECT_EQ(r.advanceEntries, 0u) << what;
            }
        }
    }
}

TEST(SharedPipeline, AdvanceModesPinnedOffDefaults)
{
    // Runahead's episode, Multipass's A-pipe and iCFP's simple-runahead
    // fallback all run a non-committing advance, and SLTP and iCFP share
    // the deferring tail. No golden grid runs these off-default
    // configurations, which drive a tiny lossy forwarding cache, a
    // poisoning secondary-miss policy, a full instruction buffer, a small
    // slice buffer and SLTP's full-SRL, full-slice and poisoned-SRL
    // forward paths, so their exact counts are pinned here. No benchmark
    // mispredicts a poisoned branch, so missBranchProgram() adds the
    // wrong-path paths; gcc's mispredicted tail branches open front-end
    // bubbles in mid-cycle.
    SimConfig cfg;
    cfg.runahead.runaheadCacheEntries = 4;
    cfg.runahead.trigger = AdvanceTrigger::AnyDcache;
    cfg.runahead.secondaryPolicy = SecondaryMissPolicy::Poison;
    cfg.multipass.instBufferEntries = 8;
    cfg.multipass.forwardCacheEntries = 4;
    cfg.icfp.sliceEntries = 16;
    cfg.icfp.simpleRaMaxDepth = 64;
    cfg.sltp.trigger = AdvanceTrigger::AnyDcache;
    cfg.sltp.srlEntries = 2;
    cfg.sltp.sliceEntries = 16;

    struct Pin
    {
        const char *bench;
        CoreKind kind;
        Cycle cycles;
        uint64_t advanceEntries, advanceInsts, slicedInsts, squashes,
            rallyPasses, simpleRaEntries, dcacheMisses, l2Misses;
    };
    // Captured at 20k insts; like the goldens, they move only with a
    // kSimSemanticsVersion bump.
    static constexpr Pin kPins[] = {
        {"graph.chase", CoreKind::Runahead, 539856, 1270, 772424, 0, 1270, 0,
         0, 1509, 1273},
        {"graph.chase", CoreKind::Multipass, 525019, 2, 26309, 0, 0, 1271, 0,
         1509, 1273},
        {"graph.chase", CoreKind::Sltp, 517801, 212, 18610, 2547, 0, 212, 0,
         1774, 1273},
        {"graph.chase", CoreKind::ICfp, 516663, 6, 40074, 2546, 0, 2544, 311,
         1510, 1274},
        {"graph.bfs", CoreKind::Runahead, 246719, 1500, 334120, 0, 1500, 0, 0,
         1697, 1512},
        {"graph.bfs", CoreKind::Multipass, 428769, 2, 29238, 0, 0, 1513, 0,
         1697, 1514},
        {"graph.bfs", CoreKind::Sltp, 355832, 346, 18788, 5304, 0, 346, 0,
         1697, 1514},
        {"graph.bfs", CoreKind::ICfp, 208126, 5, 51801, 6118, 0, 3500, 496,
         1698, 1513},
        {"kv.cold", CoreKind::Runahead, 315457, 707, 379905, 0, 707, 0, 0,
         1699, 728},
        {"kv.cold", CoreKind::Multipass, 307674, 689, 17036, 0, 0, 1417, 0,
         1689, 730},
        {"kv.cold", CoreKind::Sltp, 303850, 700, 18933, 2131, 0, 700, 0, 1690,
         730},
        {"kv.cold", CoreKind::ICfp, 288360, 7, 32752, 1757, 0, 1760, 200, 1690,
         729},
        {"join.probe", CoreKind::Runahead, 24879, 252, 12381, 0, 252, 0, 0,
         271, 24},
        {"join.probe", CoreKind::Multipass, 24348, 236, 6233, 0, 0, 269, 0,
         271, 24},
        {"join.probe", CoreKind::Sltp, 22339, 238, 5038, 613, 0, 238, 0, 356,
         24},
        {"join.probe", CoreKind::ICfp, 18617, 232, 9663, 1081, 0, 672, 7, 271,
         24},
        {"miss-branch", CoreKind::Runahead, 247396, 3117, 101532, 0, 3117, 0,
         0, 3121, 3},
        {"miss-branch", CoreKind::Multipass, 262653, 500, 33242, 0, 498, 3118,
         0, 3121, 3},
        {"miss-branch", CoreKind::Sltp, 275751, 802, 15757, 8800, 483, 802, 0,
         3121, 3},
        {"miss-branch", CoreKind::ICfp, 266118, 535, 33295, 9389, 534, 6220,
         519, 3121, 3},
        {"gcc", CoreKind::Sltp, 14839, 217, 6923, 220, 0, 217, 0, 508, 4},
        {"gcc", CoreKind::ICfp, 13143, 208, 10066, 544, 0, 374, 2, 294, 4},
    };
    std::string bench;
    Trace trace;
    for (const Pin &pin : kPins) {
        if (bench != pin.bench) {
            bench = pin.bench;
            trace = bench == "miss-branch"
                        ? traceOf(missBranchProgram(4000), 20000)
                        : makeBenchTrace(findBenchmark(bench), 20000);
        }
        const RunResult r = simulate(pin.kind, cfg, trace);
        const std::string what = bench + " on " + r.core;
        EXPECT_EQ(r.cycles, pin.cycles) << what;
        EXPECT_EQ(r.advanceEntries, pin.advanceEntries) << what;
        EXPECT_EQ(r.advanceInsts, pin.advanceInsts) << what;
        EXPECT_EQ(r.slicedInsts, pin.slicedInsts) << what;
        EXPECT_EQ(r.squashes, pin.squashes) << what;
        EXPECT_EQ(r.rallyPasses, pin.rallyPasses) << what;
        EXPECT_EQ(r.simpleRaEntries, pin.simpleRaEntries) << what;
        EXPECT_EQ(r.mem.dcacheMisses, pin.dcacheMisses) << what;
        EXPECT_EQ(r.mem.l2Misses, pin.l2Misses) << what;
    }
}

TEST(RunaheadCache, HitPoisonConflictClear)
{
    // 4 entries: words 0x20, 0x21 and 0x24 index to 0, 1 and 0.
    RunaheadCache cache(4);
    EXPECT_FALSE(cache.read(0x100).hit);
    cache.write(0x100, false);
    cache.write(0x108, true);
    EXPECT_TRUE(cache.read(0x100).hit);
    EXPECT_FALSE(cache.read(0x100).poisoned);
    EXPECT_TRUE(cache.read(0x108).hit);
    EXPECT_TRUE(cache.read(0x108).poisoned);

    // A store to another address with the same index evicts the first.
    cache.write(0x120, true);
    EXPECT_FALSE(cache.read(0x100).hit);
    EXPECT_TRUE(cache.read(0x120).hit);
    EXPECT_TRUE(cache.read(0x120).poisoned);
    EXPECT_TRUE(cache.read(0x108).hit);

    cache.clear();
    for (const Addr addr : {Addr{0x100}, Addr{0x108}, Addr{0x120}})
        EXPECT_FALSE(cache.read(addr).hit) << addr;
}

} // namespace
} // namespace icfp
