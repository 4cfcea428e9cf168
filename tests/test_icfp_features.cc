/**
 * @file
 * Feature-level semantics of the iCFP core's configuration knobs:
 * advance triggers, secondary-miss policy, poisoned-store-address
 * policy, multithreaded rally, and degenerate-program edge cases.
 *
 * Each knob is checked two ways: the run is still architecturally
 * correct (the core self-verifies against the golden trace), and the
 * knob moves the statistics/cycles in the direction the paper predicts.
 */

#include <gtest/gtest.h>

#include "core/inorder_core.hh"
#include "icfp/icfp_core.hh"
#include "sim/simulator.hh"
#include "workloads/kernels.hh"

namespace icfp {
namespace {

constexpr size_t kRegion = 32 * 1024 * 1024;

/** Independent cold misses with a bit of compute. */
WorkloadParams
streamParams(uint64_t seed = 4)
{
    WorkloadParams w;
    w.name = "feat-stream";
    w.seed = seed;
    w.coldBytes = 8 * 1024 * 1024;
    w.coldLoads = 2;
    w.coldRandom = true;
    w.intOps = 6;
    w.stores = 1;
    return w;
}

/** Warm D$-missing loads only (all L2 hits). */
WorkloadParams
warmParams(uint64_t seed = 5)
{
    WorkloadParams w;
    w.name = "feat-warm";
    w.seed = seed;
    w.warmBytes = 512 * 1024;
    w.warmLoads = 2;
    w.hotLoads = 1;
    w.intOps = 6;
    w.stores = 1;
    return w;
}

RunResult
runICfp(const Trace &trace, const ICfpParams &p)
{
    ICfpCore core(CoreParams{}, MemParams{}, p);
    return core.run(trace);
}

// ------------------------------------------------------- advance trigger

TEST(AdvanceTriggerKnob, NoneNeverEntersAdvance)
{
    const Trace trace =
        Interpreter::run(buildWorkload(streamParams()), 15000);
    ICfpParams p;
    p.trigger = AdvanceTrigger::None;
    const RunResult r = runICfp(trace, p);
    EXPECT_EQ(r.advanceEntries, 0u);
    EXPECT_EQ(r.slicedInsts, 0u);

    // And it must time out close to the vanilla in-order pipeline.
    InOrderCore io(CoreParams{}, MemParams{});
    const RunResult base = io.run(trace);
    const double diff =
        std::abs(double(r.cycles) - double(base.cycles)) /
        double(base.cycles);
    EXPECT_LT(diff, 0.05);
}

TEST(AdvanceTriggerKnob, L2OnlyEpochsStartOnlyOnL2Misses)
{
    // A workload whose steady-state D$ misses all hit the L2: the
    // L2-only trigger can open an epoch only on the few compulsory L2
    // misses; the any-miss trigger opens one on the first D$ miss. (An
    // open epoch persists across later D$ misses in both.)
    const Trace trace =
        Interpreter::run(buildWorkload(warmParams()), 15000);
    ICfpParams l2only;
    l2only.trigger = AdvanceTrigger::L2Only;
    ICfpParams any;
    any.trigger = AdvanceTrigger::AnyDcache;

    const RunResult rl2 = runICfp(trace, l2only);
    const RunResult rany = runICfp(trace, any);
    // Effective L2 misses (in-flight merges, late prefetch covers) can
    // also open epochs; demand misses alone bound the order of magnitude.
    EXPECT_LE(rl2.advanceEntries, rl2.mem.l2Misses +
                                      rl2.mem.dcacheMerges +
                                      rl2.mem.prefetchHits + 4);
    EXPECT_GE(rany.advanceInsts, rl2.advanceInsts);
    // Advancing under the 20-cycle misses must help, not hurt.
    EXPECT_LE(rany.cycles, rl2.cycles + rl2.cycles / 50);
}

TEST(AdvanceTriggerKnob, AnyDcacheFindsMoreMlp)
{
    const Trace trace =
        Interpreter::run(buildWorkload(streamParams()), 15000);
    ICfpParams l2only;
    l2only.trigger = AdvanceTrigger::L2Only;
    ICfpParams any; // default AnyDcache
    const RunResult rl2 = runICfp(trace, l2only);
    const RunResult rany = runICfp(trace, any);
    EXPECT_GE(rany.advanceEntries, rl2.advanceEntries);
    EXPECT_GE(rany.dcacheMlp + 0.05, rl2.dcacheMlp);
}

// -------------------------------------------------- secondary-miss policy

TEST(SecondaryMissKnob, BothPoliciesCorrectAndPoisonFindsMlp)
{
    // Streaming workload: waiting on a secondary D$ miss delays the
    // independent misses behind it, so Poison should win (Figure 1e).
    WorkloadParams w = streamParams(9);
    w.warmLoads = 1; // secondary D$ misses under the L2 misses
    const Trace trace = Interpreter::run(buildWorkload(w), 15000);

    ICfpParams block;
    block.secondaryPolicy = SecondaryMissPolicy::Block;
    ICfpParams poison;
    poison.secondaryPolicy = SecondaryMissPolicy::Poison;

    const RunResult rb = runICfp(trace, block);
    const RunResult rp = runICfp(trace, poison);
    EXPECT_EQ(rb.instructions, trace.size());
    EXPECT_EQ(rp.instructions, trace.size());
    EXPECT_GE(rp.l2Mlp + 0.05, rb.l2Mlp);
}

// ------------------------------------------- poisoned-store-address knob

/** Chased pointer becomes a *store* address: poisons the store's EA. */
Program
poisonAddrStoreProgram()
{
    ProgramBuilder b(kRegion);
    const unsigned node = 8384;
    const size_t nodes = kRegion / node;
    for (size_t i = 0; i < nodes; ++i)
        b.poke(Addr{i} * node, (Addr{i} + 97) % nodes * node);
    b.li(1, 0);
    b.li(20, 400);
    b.li(21, 0);
    const uint32_t loop = b.label();
    b.ld(1, 1, 0);        // chase (L2 miss; r1 poisoned in advance)
    b.st(21, 1, 8);       // store to a poisoned address
    for (int i = 0; i < 6; ++i)
        b.addi(5, 21, 3);
    b.addi(21, 21, 1);
    b.blt(21, 20, loop);
    b.halt();
    return std::move(b).build("poison-addr-store");
}

TEST(PoisonAddrStoreKnob, StallPolicyCountsStalls)
{
    const Trace trace = Interpreter::run(poisonAddrStoreProgram(), 20000);
    ICfpParams p;
    p.poisonAddrPolicy = PoisonAddrPolicy::Stall;
    const RunResult r = runICfp(trace, p);
    EXPECT_EQ(r.instructions, trace.size());
    EXPECT_GT(r.poisonAddrStalls, 0u);
}

TEST(PoisonAddrStoreKnob, SimpleRunaheadPolicyFallsBack)
{
    const Trace trace = Interpreter::run(poisonAddrStoreProgram(), 20000);
    ICfpParams p;
    p.poisonAddrPolicy = PoisonAddrPolicy::SimpleRunahead;
    const RunResult r = runICfp(trace, p);
    EXPECT_EQ(r.instructions, trace.size());
    EXPECT_GT(r.simpleRaEntries, 0u);
}

TEST(PoisonAddrStoreKnob, BothPoliciesAgreeArchitecturally)
{
    // Same trace, both policies: different timing, same architecture —
    // the internal golden checks prove it; here we just require both to
    // complete (and record that neither deadlocks).
    const Trace trace = Interpreter::run(poisonAddrStoreProgram(), 20000);
    for (const PoisonAddrPolicy policy :
         {PoisonAddrPolicy::Stall, PoisonAddrPolicy::SimpleRunahead}) {
        ICfpParams p;
        p.poisonAddrPolicy = policy;
        const RunResult r = runICfp(trace, p);
        EXPECT_EQ(r.instructions, trace.size());
        EXPECT_GT(r.cycles, 0u);
    }
}

// ------------------------------------------------- multithreaded rallies

TEST(MultithreadedRallyKnob, HelpsOnDependentMissCode)
{
    WorkloadParams w;
    w.name = "mt-rally";
    w.coldBytes = 8 * 1024 * 1024;
    w.chaseHops = 2;
    w.chaseChains = 2;
    w.intOps = 8;
    w.stores = 1;
    const Trace trace = Interpreter::run(buildWorkload(w), 15000);

    ICfpParams mt;
    mt.multithreadedRally = true;
    ICfpParams st;
    st.multithreadedRally = false;
    const RunResult rmt = runICfp(trace, mt);
    const RunResult rst = runICfp(trace, st);
    EXPECT_LE(rmt.cycles, rst.cycles + rst.cycles / 100);
}

// --------------------------------------------------- signature stress

TEST(SignatureKnob, TinySignatureSurvivesHeavyTraffic)
{
    const Trace trace =
        Interpreter::run(buildWorkload(streamParams(13)), 10000);
    ICfpParams p;
    p.signatureBits = 64;
    for (Cycle t = 50; t < 400000; t += 50)
        p.externalStores.push_back({t, 0x7000000 + (t % 512) * 8});
    const RunResult r = runICfp(trace, p);
    EXPECT_EQ(r.instructions, trace.size());
    // The saturated signature must be squashing (false positives).
    EXPECT_GT(r.squashes, 0u);
}

// ------------------------------------------- indexed-limited drain gate

TEST(IndexedLimitedMode, RallyNeverDeadlocksAgainstDrainGate)
{
    // Regression: a rallying load that hash-conflicts with a resolved
    // but undrained older store must not deadlock — the indexed-limited
    // mode drains interleaved with slice re-execution (SRL discipline).
    // Before the fix this configuration livelocked on store-heavy
    // workloads with dependent misses (the Figure 8 harness hung).
    WorkloadParams w;
    w.name = "idx-drain";
    w.coldBytes = 8 * 1024 * 1024;
    w.coldLoads = 1;
    w.chaseHops = 1;
    w.stores = 3;
    w.hotBytes = 4 * 1024; // dense store traffic -> chain conflicts
    w.hotLoads = 2;
    w.intOps = 4;
    const Trace trace = Interpreter::run(buildWorkload(w), 20000);
    ICfpParams p;
    p.storeBuffer.mode = SbMode::IndexedLimited;
    const RunResult r = runICfp(trace, p);
    EXPECT_EQ(r.instructions, trace.size());
}

// ------------------------------------------------------- degenerate input

TEST(DegenerateInput, HaltOnlyProgramOnEveryCore)
{
    ProgramBuilder b(64);
    b.halt();
    const Trace trace = Interpreter::run(std::move(b).build("halt"), 100);
    SimConfig cfg;
    for (int k = 0; k < 7; ++k) {
        const RunResult r =
            simulate(static_cast<CoreKind>(k), cfg, trace);
        EXPECT_EQ(r.instructions, trace.size())
            << coreKindName(static_cast<CoreKind>(k));
    }
}

TEST(DegenerateInput, StoreOnlyLoopOnEveryCore)
{
    ProgramBuilder b(4096);
    b.li(1, 0);
    b.li(20, 50);
    b.li(21, 0);
    const uint32_t loop = b.label();
    b.st(21, 1, 0);
    b.st(21, 1, 64);
    b.addi(1, 1, 8);
    b.andi(1, 1, 1023);
    b.addi(21, 21, 1);
    b.blt(21, 20, loop);
    b.halt();
    const Trace trace = Interpreter::run(std::move(b).build("stores"), 1000);
    SimConfig cfg;
    for (int k = 0; k < 7; ++k) {
        const RunResult r =
            simulate(static_cast<CoreKind>(k), cfg, trace);
        EXPECT_EQ(r.instructions, trace.size())
            << coreKindName(static_cast<CoreKind>(k));
    }
}

TEST(DegenerateInput, SingleInstructionBudget)
{
    const Program program = buildWorkload(streamParams(2));
    const Trace trace = Interpreter::run(program, 1);
    SimConfig cfg;
    for (int k = 0; k < 7; ++k) {
        const RunResult r =
            simulate(static_cast<CoreKind>(k), cfg, trace);
        EXPECT_EQ(r.instructions, 1u);
    }
}

} // namespace
} // namespace icfp
