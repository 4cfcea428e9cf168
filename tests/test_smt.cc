/**
 * @file
 * Tests for the 2-thread SMT in-order core (src/smt/): architectural
 * correctness of both threads through the shared pipeline (the model
 * asserts both threads' final memory deltas internally), fairness/round-robin
 * behaviour, cache interference, and the throughput relations that make
 * the Section 6 trade meaningful, plus exact cycle pins: smt_tradeoff's
 * pairs, and the one-thread case against the in-order core.
 */

#include <gtest/gtest.h>

#include <map>

#include "smt/smt_core.hh"
#include "sim/simulator.hh"
#include "workloads/kernels.hh"
#include "workloads/spec_analogs.hh"

namespace icfp {
namespace {

WorkloadParams
computeParams(uint64_t seed)
{
    WorkloadParams w;
    w.name = "smt-compute-" + std::to_string(seed);
    w.seed = seed;
    w.hotLoads = 1;
    w.intOps = 10;
    w.fpOps = 2;
    w.stores = 1;
    return w;
}

WorkloadParams
memParams(uint64_t seed)
{
    WorkloadParams w;
    w.name = "smt-mem-" + std::to_string(seed);
    w.seed = seed;
    w.coldBytes = 8 * 1024 * 1024;
    w.chaseHops = 2;
    w.intOps = 4;
    w.stores = 1;
    return w;
}

TEST(SmtCore, BothThreadsCompleteAndVerify)
{
    const Trace a = Interpreter::run(buildWorkload(computeParams(1)), 8000);
    const Trace b = Interpreter::run(buildWorkload(memParams(2)), 8000);
    SmtInOrderCore core(CoreParams{}, MemParams{});
    const SmtRunResult r = core.run(a, b);
    EXPECT_EQ(r.instructions[0], a.size());
    EXPECT_EQ(r.instructions[1], b.size());
    EXPECT_GE(r.cycles, std::max(r.finishedAt[0], r.finishedAt[1]));
}

TEST(SmtCore, IdenticalThreadsShareFairly)
{
    const Trace t = Interpreter::run(buildWorkload(computeParams(3)), 8000);
    SmtInOrderCore core(CoreParams{}, MemParams{});
    const SmtRunResult r = core.run(t, t);
    // Round-robin priority: identical threads must finish within a whisker
    // of each other.
    const Cycle diff = r.finishedAt[0] > r.finishedAt[1]
                           ? r.finishedAt[0] - r.finishedAt[1]
                           : r.finishedAt[1] - r.finishedAt[0];
    EXPECT_LT(diff, r.cycles / 20);
}

TEST(SmtCore, ThroughputExceedsSingleThread)
{
    // Two memory-bound threads overlap each other's stalls: combined
    // throughput must beat one thread's alone.
    const Trace a = Interpreter::run(buildWorkload(memParams(4)), 10000);
    const Trace b = Interpreter::run(buildWorkload(memParams(5)), 10000);
    SimConfig cfg;
    const double single = simulate(CoreKind::InOrder, cfg, a).ipc();
    SmtInOrderCore core(cfg.core, cfg.mem);
    const SmtRunResult r = core.run(a, b);
    EXPECT_GT(r.throughputIpc(), single);
}

TEST(SmtCore, SiblingInterferenceSlowsAThread)
{
    // A thread co-running with any real sibling must be slower than
    // co-running with an instantly-finishing stub (the sibling takes
    // issue slots and cache capacity).
    const Trace victim =
        Interpreter::run(buildWorkload(computeParams(6)), 8000);
    ProgramBuilder sb(64);
    sb.halt();
    const Trace stub = Interpreter::run(std::move(sb).build("stub"), 10);
    WorkloadParams hog = memParams(7);
    hog.coldBytes = 16 * 1024 * 1024;
    hog.coldLoads = 3;
    const Trace hog_trace = Interpreter::run(buildWorkload(hog), 8000);

    SmtInOrderCore core(CoreParams{}, MemParams{});
    const SmtRunResult alone = core.run(victim, stub);
    SmtInOrderCore core2(CoreParams{}, MemParams{});
    const SmtRunResult contended = core2.run(victim, hog_trace);
    EXPECT_GT(contended.finishedAt[0], alone.finishedAt[0]);
}

TEST(SmtCore, SingleThreadDegenerateCase)
{
    // An empty-ish second thread: thread 0's time approaches the
    // dedicated in-order pipeline's.
    ProgramBuilder b(64);
    b.halt();
    const Trace stub = Interpreter::run(std::move(b).build("stub"), 10);
    const Trace real =
        Interpreter::run(buildWorkload(computeParams(8)), 8000);
    SimConfig cfg;
    const Cycle alone = simulate(CoreKind::InOrder, cfg, real).cycles;
    SmtInOrderCore core(cfg.core, cfg.mem);
    const SmtRunResult r = core.run(real, stub);
    EXPECT_LT(r.finishedAt[0], alone + alone / 10);
}

/** The default config, and one whose 2-entry store buffer fills. */
std::vector<SimConfig>
pinConfigs()
{
    SimConfig small_sb;
    small_sb.core.storeBufferEntries = 2;
    return {SimConfig{}, small_sb};
}

/** A trace with no instructions: a thread that is done from cycle 0. */
Trace
idleTrace()
{
    ProgramBuilder b(64);
    b.halt();
    return Interpreter::run(std::move(b).build("idle"), 0);
}

TEST(SmtCore, SmtTradeoffPairsArePinned)
{
    // smt_tradeoff's golden table prints IPC to two decimals, so its six
    // pairs are pinned exactly here at 20k insts: at the default config
    // and with a 2-entry store buffer, whose full-buffer retry moves
    // swim+gzip. Like the goldens, they move only with a
    // kSimSemanticsVersion bump.
    struct Pin
    {
        const char *t0, *t1;
        unsigned storeBufferEntries;
        Cycle cycles, finished0, finished1;
    };
    static constexpr Pin kPins[] = {
        {"mcf", "mcf", 32, 448630, 448310, 448630},
        {"mcf", "equake", 32, 446912, 446912, 24400},
        {"equake", "equake", 32, 31200, 31200, 30848},
        {"swim", "gzip", 32, 27286, 27286, 20552},
        {"gzip", "gzip", 32, 22106, 22106, 21785},
        {"mesa", "mcf", 32, 446198, 18415, 446198},
        {"mcf", "mcf", 2, 448630, 448310, 448630},
        {"mcf", "equake", 2, 446912, 446912, 24400},
        {"equake", "equake", 2, 31200, 31200, 30848},
        {"swim", "gzip", 2, 27592, 27592, 20442},
        {"gzip", "gzip", 2, 22106, 22106, 21785},
        {"mesa", "mcf", 2, 446198, 18415, 446198},
    };
    std::map<std::string, Trace> traces;
    auto trace = [&](const std::string &bench) -> const Trace & {
        auto it = traces.find(bench);
        if (it == traces.end())
            it = traces.emplace(bench, makeBenchTrace(findBenchmark(bench),
                                                      20000)).first;
        return it->second;
    };
    for (const Pin &pin : kPins) {
        CoreParams core;
        core.storeBufferEntries = pin.storeBufferEntries;
        SmtInOrderCore smt(core, MemParams{});
        const SmtRunResult r = smt.run(trace(pin.t0), trace(pin.t1));
        const std::string what = std::string(pin.t0) + "+" + pin.t1 +
                                 " sb=" +
                                 std::to_string(pin.storeBufferEntries);
        EXPECT_EQ(r.cycles, pin.cycles) << what;
        EXPECT_EQ(r.finishedAt[0], pin.finished0) << what;
        EXPECT_EQ(r.finishedAt[1], pin.finished1) << what;
    }
}

TEST(SmtCore, EmptySiblingIsTheInOrderCore)
{
    // With nothing to share, the SMT pipeline is the in-order baseline:
    // the busy thread finishes at the in-order core's exact cycle count,
    // in either slot, including on the full-store-buffer path.
    const Trace idle = idleTrace();
    for (const char *bench :
         {"mcf", "swim", "art", "gcc", "graph.bfs", "join.probe"}) {
        const Trace t = makeBenchTrace(findBenchmark(bench), 20000);
        for (const SimConfig &cfg : pinConfigs()) {
            const Cycle io = simulate(CoreKind::InOrder, cfg, t).cycles;
            const std::string what =
                std::string(bench) +
                " sb=" + std::to_string(cfg.core.storeBufferEntries);
            SmtInOrderCore first(cfg.core, cfg.mem);
            const SmtRunResult r0 = first.run(t, idle);
            EXPECT_EQ(r0.cycles, io) << what;
            EXPECT_EQ(r0.finishedAt[0], io) << what;
            SmtInOrderCore second(cfg.core, cfg.mem);
            const SmtRunResult r1 = second.run(idle, t);
            EXPECT_EQ(r1.cycles, io) << what;
            EXPECT_EQ(r1.finishedAt[1], io) << what;
        }
    }
}

TEST(SmtCore, OneThreadRunIsTheInOrderRun)
{
    // CoreBase's run(trace) is the one-thread case: beside an idle
    // sibling, every count the in-order core reports comes out the same.
    for (const char *bench : {"mcf", "gcc", "kv.cold"}) {
        const Trace t = makeBenchTrace(findBenchmark(bench), 20000);
        for (const SimConfig &cfg : pinConfigs()) {
            const RunResult io = simulate(CoreKind::InOrder, cfg, t);
            SmtInOrderCore smt(cfg.core, cfg.mem);
            const RunResult r = smt.run(t);
            const std::string what =
                std::string(bench) +
                " sb=" + std::to_string(cfg.core.storeBufferEntries);
            EXPECT_EQ(r.cycles, io.cycles) << what;
            EXPECT_EQ(r.instructions, io.instructions) << what;
            EXPECT_EQ(r.mem.dcacheMisses, io.mem.dcacheMisses) << what;
            EXPECT_EQ(r.mem.l2Misses, io.mem.l2Misses) << what;
            EXPECT_EQ(r.branch.condMispredicts, io.branch.condMispredicts)
                << what;
            EXPECT_EQ(r.branch.btbMisses, io.branch.btbMisses) << what;
        }
    }
}

} // namespace
} // namespace icfp
