/**
 * @file
 * Replay-equivalence suite for the packed DynInst layout and the
 * overlay-based replay pipeline.
 *
 * The hot-path overhaul repacked DynInst to 32 bytes (merged
 * result/store-value field, flags byte), re-encoded traces (trace_io
 * format v2 with a delta-compressed final image), replaced per-run
 * memory-image copies with MemOverlay views, and added idle-cycle
 * fast-forwarding to every core's run loop. None of that may change
 * simulated behaviour: these tests assert that traces round-trip
 * bit-exactly through trace_io and that every registered core model
 * produces identical RunResult statistics whether it replays the
 * generated trace, the round-tripped trace, or the same trace twice.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "isa/trace_io.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "trace_oracle.hh"
#include "workloads/suite_registry.hh"

namespace icfp {
namespace {

Trace
smallBenchTrace(const std::string &bench, uint64_t insts = 20000)
{
    return makeBenchTrace(findBenchmark(bench), insts);
}

TEST(PackedDynInst, LayoutIsTwoPerCacheLine)
{
    EXPECT_EQ(sizeof(DynInst), 32u);

    DynInst di;
    EXPECT_FALSE(di.taken());
    di.setTaken(true);
    EXPECT_TRUE(di.taken());
    di.setTaken(false);
    EXPECT_FALSE(di.taken());

    // The merged value field serves both read paths.
    di.value = 0x1234;
    EXPECT_EQ(di.result(), 0x1234u);
    EXPECT_EQ(di.storeValue(), 0x1234u);
}

TEST(PackedDynInst, OpcodeTraitTableMatchesTable1)
{
    // Table 1 latencies via the flat trait table.
    EXPECT_EQ(fuClass(Opcode::Add), FuClass::IntAlu);
    EXPECT_EQ(fuLatency(Opcode::Add), 1u);
    EXPECT_EQ(fuClass(Opcode::Mul), FuClass::IntMul);
    EXPECT_EQ(fuLatency(Opcode::Mul), 4u);
    EXPECT_EQ(fuClass(Opcode::Fadd), FuClass::FpAdd);
    EXPECT_EQ(fuLatency(Opcode::Fadd), 2u);
    EXPECT_EQ(fuClass(Opcode::Fmul), FuClass::FpMul);
    EXPECT_EQ(fuLatency(Opcode::Fmul), 4u);
    EXPECT_EQ(fuClass(Opcode::Ld), FuClass::Mem);
    EXPECT_EQ(fuClass(Opcode::St), FuClass::Mem);
    EXPECT_EQ(fuClass(Opcode::Beq), FuClass::Branch);
    EXPECT_EQ(fuClass(Opcode::Halt), FuClass::None);

    // Classification bits agree with the opcode identities.
    for (unsigned i = 0; i < kNumOpcodes; ++i) {
        const Opcode op = static_cast<Opcode>(i);
        const OpTraits &traits = opTraits(op);
        EXPECT_EQ(traits.isLoad, op == Opcode::Ld);
        EXPECT_EQ(traits.isStore, op == Opcode::St);
        EXPECT_EQ(traits.isControl,
                  op == Opcode::Beq || op == Opcode::Bne ||
                      op == Opcode::Blt || op == Opcode::Jmp ||
                      op == Opcode::Call || op == Opcode::Ret);
        EXPECT_EQ(traits.isCondBranch,
                  op == Opcode::Beq || op == Opcode::Bne ||
                      op == Opcode::Blt);
    }
}

TEST(ReplayEquiv, PackedTraceRoundTripsThroughTraceIo)
{
    const Trace t = smallBenchTrace("mcf");

    std::stringstream ss;
    writeTrace(ss, t);
    const Trace u = readTrace(ss);

    ASSERT_EQ(u.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(u[i].pc, t[i].pc) << "dyninst " << i;
        EXPECT_EQ(u[i].nextPc, t[i].nextPc);
        EXPECT_EQ(u[i].op, t[i].op);
        EXPECT_EQ(u[i].dst, t[i].dst);
        EXPECT_EQ(u[i].src1, t[i].src1);
        EXPECT_EQ(u[i].src2, t[i].src2);
        EXPECT_EQ(u[i].addr, t[i].addr);
        EXPECT_EQ(u[i].value, t[i].value);
        EXPECT_EQ(u[i].flags, t[i].flags);
    }
    EXPECT_EQ(u.finalRegs, t.finalRegs);
    EXPECT_EQ(u.finalDelta, t.finalDelta);
    EXPECT_EQ(u.halted, t.halted);

    // The reloaded delta must equal one rebuilt from the trace's stores.
    EXPECT_EQ(u.finalDelta, storeReplayDelta(u));
}

TEST(ReplayEquiv, EveryCoreIdenticalStatsAcrossRoundTripAndRerun)
{
    for (const char *bench : {"mcf", "gzip", "equake"}) {
        const Trace generated = smallBenchTrace(bench);

        std::stringstream ss;
        writeTrace(ss, generated);
        const Trace reloaded = readTrace(ss);

        const SimConfig cfg;
        for (const CoreKind kind : CoreRegistry::instance().kinds()) {
            const RunResult a = simulate(kind, cfg, generated);
            const RunResult b = simulate(kind, cfg, reloaded);
            const RunResult c = simulate(kind, cfg, generated);

            // The full stats block, via the canonical serialization.
            auto row = [&](const RunResult &r) {
                return sweepCsvRow(
                    SweepResult{bench, coreKindName(kind), kind, r});
            };
            EXPECT_EQ(row(a), row(b))
                << bench << "/" << coreKindName(kind)
                << ": stats diverge after a trace_io round trip";
            EXPECT_EQ(row(a), row(c))
                << bench << "/" << coreKindName(kind)
                << ": stats diverge across identical reruns";
        }
    }
}

TEST(ReplayEquiv, MemOverlayVerificationMatchesFullCompare)
{
    MemoryImage base(1024);
    base.write(0, 11);
    base.write(64, 22);
    MemoryImage final_image = base;
    final_image.write(64, 33);
    final_image.write(128, 44);
    const MemDelta golden{{64, 33}, {128, 44}};

    // Comparing deltas must decide every case as comparing whole
    // images does.
    const struct
    {
        const char *what;
        std::vector<std::pair<Addr, RegVal>> writes; ///< in store order
        bool matches;
    } cases[] = {
        {"exactly the golden writes", {{128, 44}, {64, 33}}, true},
        {"a word rewritten with its base value",
         {{64, 33}, {128, 44}, {0, 11}}, true},
        {"a missing golden write", {{64, 33}}, false},
        {"a wrong value", {{64, 33}, {128, 999}}, false},
        {"a stray write", {{64, 33}, {128, 44}, {256, 7}}, false},
    };
    for (const auto &c : cases) {
        MemOverlay overlay(&base);
        MemoryImage full = base;
        for (const auto &[addr, value] : c.writes) {
            overlay.write(addr, value);
            full.write(addr, value);
        }
        EXPECT_EQ(full == final_image, c.matches) << c.what;
        EXPECT_EQ(overlay.delta() == golden, c.matches) << c.what;
    }
}

TEST(ReplayEquiv, FinalDeltaMatchesStoreReplayForEveryRegisteredBench)
{
    for (const std::string &suite : suiteNames()) {
        for (const BenchmarkSpec &spec : findSuite(suite)) {
            const Trace t = makeBenchTrace(spec, 5000);
            EXPECT_EQ(t.finalDelta, storeReplayDelta(t))
                << suite << "/" << spec.name;
        }
    }
}

} // namespace
} // namespace icfp
