/**
 * @file
 * Tests for the 2-thread SMT in-order core (src/smt/): architectural
 * correctness of both threads through the shared pipeline (the model
 * asserts both threads' final memory deltas internally), fairness/round-robin
 * behaviour, cache interference, and the throughput relations that make
 * the Section 6 trade meaningful.
 */

#include <gtest/gtest.h>

#include "smt/smt_core.hh"
#include "sim/simulator.hh"
#include "workloads/kernels.hh"

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

} // namespace
} // namespace icfp
