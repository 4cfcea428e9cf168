/**
 * @file
 * Unit and property tests for the out-of-order comparison cores
 * (Section 5.3): OooCore and CfpCore.
 *
 * Both models carry architectural memory state and verify the final
 * image against the golden interpreter internally, so every test that
 * completes a run has already checked store-drain and forwarding
 * correctness; the EXPECTs here pin down the *timing* properties that
 * make the models meaningful comparison points.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "ooo/cfp_core.hh"
#include "ooo/ooo_core.hh"
#include "sim/simulator.hh"
#include "workloads/kernels.hh"

namespace icfp {
namespace {

/** A small ALU-only loop: OoO must not be slower than in-order. */
Program
aluProgram()
{
    ProgramBuilder b(4096);
    b.li(9, 1'000'000); // effectively unbounded; runs stop on budget
    const uint32_t loop = b.label();
    b.addi(1, 1, 1);
    b.addi(2, 2, 3);
    b.add(3, 1, 2);
    b.mul(4, 3, 3);
    b.addi(5, 5, 1);
    b.blt(5, 9, loop);
    b.halt();
    return std::move(b).build("alu");
}

/** Independent-miss streaming kernel (cold, strided). */
WorkloadParams
coldStream(uint64_t seed = 1)
{
    WorkloadParams w;
    w.name = "ooo-stream";
    w.seed = seed;
    w.hotBytes = 4 * 1024;
    w.coldBytes = 8 * 1024 * 1024;
    w.coldLoads = 2;
    w.coldRandom = true; // defeat the stream prefetcher
    w.intOps = 4;
    w.stores = 1;
    return w;
}

/** Dependent-miss pointer chase. */
WorkloadParams
coldChase(uint64_t seed = 2)
{
    WorkloadParams w;
    w.name = "ooo-chase";
    w.seed = seed;
    w.coldBytes = 8 * 1024 * 1024;
    w.chaseHops = 3;
    w.chaseChains = 2;
    w.chaseNodeBytes = 4096;
    w.intOps = 4;
    w.stores = 1;
    return w;
}

RunResult
runKind(CoreKind kind, const Trace &trace)
{
    SimConfig cfg;
    return simulate(kind, cfg, trace);
}

TEST(OooCore, CompletesAluLoop)
{
    const Trace trace = Interpreter::run(aluProgram(), 4000);
    OooCore core(CoreParams{}, MemParams{});
    const RunResult r = core.run(trace);
    EXPECT_EQ(r.instructions, trace.size());
    EXPECT_GT(r.cycles, trace.size() / 3); // 2-wide: >= n/2 cycles - slack
}

TEST(OooCore, NotSlowerThanInOrderOnCompute)
{
    const Trace trace = Interpreter::run(aluProgram(), 4000);
    const RunResult io = runKind(CoreKind::InOrder, trace);
    const RunResult ooo = runKind(CoreKind::Ooo, trace);
    EXPECT_LE(ooo.cycles, io.cycles + io.cycles / 10);
}

TEST(OooCore, OverlapsIndependentMisses)
{
    const Trace trace =
        Interpreter::run(buildWorkload(coldStream()), 20000);
    const RunResult io = runKind(CoreKind::InOrder, trace);
    const RunResult ooo = runKind(CoreKind::Ooo, trace);
    // A 128-entry window must overlap independent memory-latency misses
    // that serialize the in-order pipeline.
    EXPECT_LT(ooo.cycles, io.cycles);
    EXPECT_GE(ooo.l2Mlp, io.l2Mlp);
}

TEST(OooCore, WindowSizeMatters)
{
    const Trace trace =
        Interpreter::run(buildWorkload(coldStream(7)), 20000);
    OooParams small;
    small.robEntries = 8;
    small.iqEntries = 4;
    OooParams big; // defaults: 128/32
    OooCore small_core(CoreParams{}, MemParams{}, small);
    OooCore big_core(CoreParams{}, MemParams{}, big);
    const Cycle small_cycles = small_core.run(trace).cycles;
    const Cycle big_cycles = big_core.run(trace).cycles;
    EXPECT_LE(big_cycles, small_cycles);
}

TEST(OooCore, PeakRobBounded)
{
    const Trace trace =
        Interpreter::run(buildWorkload(coldStream(3)), 10000);
    OooParams p;
    p.robEntries = 32;
    OooCore core(CoreParams{}, MemParams{}, p);
    core.run(trace);
    EXPECT_LE(core.peakRobOccupancy(), 32u);
    EXPECT_GT(core.peakRobOccupancy(), 8u); // misses should fill it
}

TEST(OooCore, StoreLoadForwardingWorks)
{
    // Tight store->load dependences through memory; internal asserts
    // check forwarded values against the golden trace.
    WorkloadParams w;
    w.name = "fwd";
    w.hotBytes = 256; // force frequent same-address store/load pairs
    w.stores = 3;
    w.hotLoads = 3;
    w.intOps = 2;
    const Trace trace = Interpreter::run(buildWorkload(w), 10000);
    const RunResult r = runKind(CoreKind::Ooo, trace);
    EXPECT_EQ(r.instructions, trace.size());
}

TEST(CfpCore, CompletesAndVerifies)
{
    const Trace trace =
        Interpreter::run(buildWorkload(coldChase()), 20000);
    CfpCore core(CoreParams{}, MemParams{});
    const RunResult r = core.run(trace);
    EXPECT_EQ(r.instructions, trace.size());
    EXPECT_GT(core.slicedInsts(), 0u);
    EXPECT_EQ(core.slicedInsts(), core.rallyInsts());
}

TEST(CfpCore, BeatsOooWhenWindowWouldFill)
{
    // Long-latency misses + a small window: the OoO core stalls when the
    // ROB fills behind the miss; CFP slices the dependents out and keeps
    // fetching.
    const Trace trace =
        Interpreter::run(buildWorkload(coldChase(11)), 30000);
    OooParams small;
    small.robEntries = 32;
    small.iqEntries = 16;
    CfpParams cfp;
    cfp.ooo = small;
    OooCore ooo(CoreParams{}, MemParams{}, small);
    CfpCore cfpc(CoreParams{}, MemParams{}, cfp);
    const Cycle ooo_cycles = ooo.run(trace).cycles;
    const Cycle cfp_cycles = cfpc.run(trace).cycles;
    // On a purely serial chain the two tie (the chain, not the window,
    // is the bottleneck); CFP must never be meaningfully slower.
    EXPECT_LE(cfp_cycles, ooo_cycles + ooo_cycles / 200);
}

TEST(CfpCore, SliceEmptyOnMissFreeCode)
{
    const Trace trace = Interpreter::run(aluProgram(), 4000);
    CfpCore core(CoreParams{}, MemParams{});
    core.run(trace);
    EXPECT_EQ(core.slicedInsts(), 0u);
}

TEST(CfpCore, TinySliceBufferDegradesGracefully)
{
    const Trace trace =
        Interpreter::run(buildWorkload(coldChase(5)), 20000);
    CfpParams tiny;
    tiny.sliceEntries = 4;
    CfpCore core(CoreParams{}, MemParams{}, tiny);
    const RunResult r = core.run(trace);
    EXPECT_EQ(r.instructions, trace.size()); // still completes + verifies
}

TEST(CfpCore, RallyWidthMatters)
{
    const Trace trace =
        Interpreter::run(buildWorkload(coldChase(9)), 20000);
    CfpParams slow;
    slow.rallyWidth = 1;
    slow.rallyScanWidth = 1;
    CfpParams fast;
    fast.rallyWidth = 4;
    fast.rallyScanWidth = 16;
    CfpCore slow_core(CoreParams{}, MemParams{}, slow);
    CfpCore fast_core(CoreParams{}, MemParams{}, fast);
    EXPECT_LE(fast_core.run(trace).cycles, slow_core.run(trace).cycles);
}

// ---------------------------------------------------------------- sweeps

class OooSeedTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>>
{
};

/** Same stress recipe as the five in-order models' property sweep. */
WorkloadParams
oooStressParams(uint64_t seed)
{
    WorkloadParams w;
    w.name = "ooo-stress-" + std::to_string(seed);
    w.seed = seed;
    w.hotBytes = 8 * 1024;
    w.warmBytes = 128 * 1024;
    w.coldBytes = 4 * 1024 * 1024;
    w.hotLoads = 2;
    w.warmLoads = 1;
    w.coldLoads = 1;
    w.chaseHops = 1 + seed % 2;
    w.warmChaseHops = 1;
    w.chaseChains = 1 + seed % 2;
    w.stores = 2 + seed % 3;
    w.intOps = 6;
    w.fpOps = 2;
    w.noiseBranches = 1;
    w.calls = seed % 2;
    w.coldRandom = seed % 3 == 0;
    w.chaseNodeBytes = 4096;
    return w;
}

TEST_P(OooSeedTest, GoldenEquivalenceUnderStress)
{
    const auto [kind_int, seed] = GetParam();
    const Program program = buildWorkload(oooStressParams(seed));
    const Trace trace = Interpreter::run(program, 12000);
    const CoreKind kind = kind_int == 0 ? CoreKind::Ooo : CoreKind::Cfp;
    SimConfig cfg;
    const RunResult r = simulate(kind, cfg, trace);
    EXPECT_EQ(r.instructions, trace.size());
    // Exact cycle pins: any timing change must be deliberate.
    static const std::map<std::tuple<int, uint64_t>, Cycle> kCycles = {
        {{0, 1}, 128369}, {{0, 2}, 146060}, {{0, 3}, 129715},
        {{0, 4}, 150356}, {{0, 5}, 124305}, {{0, 6}, 156147},
        {{0, 7}, 128024}, {{0, 8}, 145136}, {{1, 1}, 140657},
        {{1, 2}, 149708}, {{1, 3}, 132436}, {{1, 4}, 155466},
        {{1, 5}, 132700}, {{1, 6}, 157683}, {{1, 7}, 131053},
        {{1, 8}, 147801},
    };
    EXPECT_EQ(r.cycles, kCycles.at(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    OooCfpBySeed, OooSeedTest,
    ::testing::Combine(::testing::Range(0, 2),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)));

class CfpConfigTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CfpConfigTest, CorrectAcrossWindowAndSliceSizes)
{
    const auto [rob, slice] = GetParam();
    const Trace trace =
        Interpreter::run(buildWorkload(oooStressParams(rob + slice)), 8000);
    CfpParams p;
    p.ooo.robEntries = rob;
    p.ooo.iqEntries = std::max(4u, rob / 4);
    p.sliceEntries = slice;
    CfpCore core(CoreParams{}, MemParams{}, p);
    const RunResult r = core.run(trace);
    EXPECT_EQ(r.instructions, trace.size());
    static const std::map<std::tuple<unsigned, unsigned>, Cycle> kCycles = {
        {{8, 4}, 111163},   {{8, 64}, 104483},   {{8, 512}, 110659},
        {{32, 4}, 104804},  {{32, 64}, 104070},  {{32, 512}, 103906},
        {{48, 4}, 100690},  {{48, 64}, 101198},  {{48, 512}, 100731},
        {{96, 4}, 100297},  {{96, 64}, 101848},  {{96, 512}, 101969},
        {{128, 4}, 105027}, {{128, 64}, 104851}, {{128, 512}, 103095},
        {{512, 4}, 102962}, {{512, 64}, 105183}, {{512, 512}, 104675},
    };
    EXPECT_EQ(r.cycles, kCycles.at(GetParam()));
}

// 48 and 96 are not powers of two: the window's slot arithmetic must
// not assume one.
INSTANTIATE_TEST_SUITE_P(
    WindowGrid, CfpConfigTest,
    ::testing::Combine(::testing::Values(8u, 32u, 48u, 96u, 128u, 512u),
                       ::testing::Values(4u, 64u, 512u)));

class OooConfigTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(OooConfigTest, CyclesPinnedAcrossWindowSizes)
{
    const unsigned rob = GetParam();
    const Trace trace =
        Interpreter::run(buildWorkload(oooStressParams(rob)), 8000);
    OooParams p;
    p.robEntries = rob;
    p.iqEntries = std::max(4u, rob / 4);
    OooCore core(CoreParams{}, MemParams{}, p);
    const RunResult r = core.run(trace);
    EXPECT_EQ(r.instructions, trace.size());
    EXPECT_LE(core.peakRobOccupancy(), rob);
    static const std::map<unsigned, Cycle> kCycles = {
        {8, 116693},  {32, 98053},  {48, 103745},
        {96, 102912}, {128, 98788}, {512, 98921},
    };
    EXPECT_EQ(r.cycles, kCycles.at(rob));
}

INSTANTIATE_TEST_SUITE_P(WindowGrid, OooConfigTest,
                         ::testing::Values(8u, 32u, 48u, 96u, 128u, 512u));

} // namespace
} // namespace icfp
