/**
 * @file
 * Sweep-engine tests: grid expansion order, trace-cache sharing (keyed
 * on the full (bench, insts, seed) tuple), the jobs=1 vs jobs=8
 * determinism contract (identical results and identical CSV/JSON
 * bytes), trace lifetime under run() (no trace kept after it, at most
 * jobs traces at once, trace()'s copies borrowed), a cancel or fault
 * mid-run, no trace store taken from the environment, and the
 * parallelFor primitive. The paper figures built on the engine are
 * pinned in tests/test_golden.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "common/fault_inject.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"

namespace icfp {
namespace {

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.benches = {"mcf", "equake", "gzip"};
    const SimConfig cfg;
    SimConfig slow_l2;
    slow_l2.mem.l2HitLatency = 30;
    spec.variants = {{"base", CoreKind::InOrder, cfg},
                     {"icfp", CoreKind::ICfp, cfg},
                     {"icfp-l2-30", CoreKind::ICfp, slow_l2}};
    spec.insts = 5000;
    return spec;
}

TEST(Sweep, ExpandGridIsBenchMajor)
{
    const SweepSpec spec = smallSpec();
    const std::vector<SweepJob> jobs = expandGrid(spec);
    ASSERT_EQ(jobs.size(), spec.benches.size() * spec.variants.size());
    for (size_t b = 0; b < spec.benches.size(); ++b) {
        for (size_t v = 0; v < spec.variants.size(); ++v) {
            const SweepJob &job = jobs[b * spec.variants.size() + v];
            EXPECT_EQ(job.bench, spec.benches[b]);
            EXPECT_EQ(job.variant, spec.variants[v].label);
            EXPECT_EQ(job.core, spec.variants[v].core);
        }
    }
}

TEST(Sweep, TraceCacheGeneratesOnceAndShares)
{
    SweepEngine engine(1);
    const Trace &first = engine.trace("mcf", 3000);
    const Trace &again = engine.trace("mcf", 3000);
    EXPECT_EQ(&first, &again); // same cached object, not a regeneration
    EXPECT_EQ(first.size(), 3000u);
    const Trace &other_budget = engine.trace("mcf", 1000);
    EXPECT_NE(&first, &other_budget);
    EXPECT_EQ(other_budget.size(), 1000u);
    const Trace &seeded = engine.trace("mcf", 3000, uint64_t{42});
    EXPECT_NE(&first, &seeded);
    // No sentinel aliasing: even UINT64_MAX is a real seed override,
    // distinct from the no-seed default.
    const Trace &max_seed = engine.trace("mcf", 3000, ~uint64_t{0});
    EXPECT_NE(&first, &max_seed);
}

TEST(Sweep, ResultsInGridOrderRegardlessOfJobs)
{
    const SweepSpec spec = smallSpec();
    SweepEngine serial(1);
    SweepEngine parallel(8);
    const std::vector<SweepResult> r1 = serial.run(spec);
    const std::vector<SweepResult> r8 = parallel.run(spec);
    ASSERT_EQ(r1.size(), r8.size());
    for (size_t i = 0; i < r1.size(); ++i) {
        EXPECT_EQ(r1[i].bench, r8[i].bench);
        EXPECT_EQ(r1[i].variant, r8[i].variant);
        EXPECT_EQ(r1[i].core, r8[i].core);
        EXPECT_EQ(r1[i].result.cycles, r8[i].result.cycles) << i;
        EXPECT_EQ(r1[i].result.instructions, r8[i].result.instructions);
        EXPECT_EQ(r1[i].result.mem.dcacheMisses,
                  r8[i].result.mem.dcacheMisses);
        EXPECT_EQ(r1[i].result.rallyInsts, r8[i].result.rallyInsts);
    }
}

TEST(Sweep, CsvAndJsonBytesIdenticalAcrossJobCounts)
{
    const SweepSpec spec = smallSpec();
    SweepEngine serial(1);
    SweepEngine parallel(8);
    const std::vector<SweepResult> r1 = serial.run(spec);
    const std::vector<SweepResult> r8 = parallel.run(spec);
    EXPECT_EQ(sweepCsv(r1), sweepCsv(r8));
    EXPECT_EQ(sweepJson(r1), sweepJson(r8));
}

TEST(Sweep, CsvShapeMatchesSchema)
{
    SweepEngine engine(2);
    SweepSpec spec = smallSpec();
    spec.benches = {"mcf"};
    const std::string csv = sweepCsv(engine.run(spec));

    // Header + one line per result, each with the full column count.
    std::vector<std::string> lines;
    size_t start = 0;
    while (start < csv.size()) {
        const size_t nl = csv.find('\n', start);
        lines.push_back(csv.substr(start, nl - start));
        start = nl + 1;
    }
    ASSERT_EQ(lines.size(), 1 + spec.variants.size());
    const size_t columns = sweepReportColumns().size();
    for (const std::string &line : lines) {
        const size_t commas =
            static_cast<size_t>(std::count(line.begin(), line.end(), ','));
        EXPECT_EQ(commas + 1, columns) << line;
    }
    EXPECT_EQ(lines[0].substr(0, 19), "bench,core,variant,");
}

TEST(Sweep, RunOnTraceMatchesBenchRun)
{
    SweepEngine engine(2);
    SweepSpec spec = smallSpec();
    spec.benches = {"equake"};
    const std::vector<SweepResult> via_bench = engine.run(spec);
    const Trace &trace = engine.trace("equake", spec.insts);
    const std::vector<SweepResult> via_trace =
        engine.runOnTrace(trace, spec.variants, "equake");
    ASSERT_EQ(via_bench.size(), via_trace.size());
    for (size_t i = 0; i < via_bench.size(); ++i)
        EXPECT_EQ(via_bench[i].result.cycles, via_trace[i].result.cycles);
}

/** Six benches, so every job count below is smaller than the grid's
 *  bench count and the trace bound is a real bound; cells long enough
 *  that a cancel lands well before the grid ends. */
SweepSpec
sixBenchSpec()
{
    SweepSpec spec = smallSpec();
    spec.benches = {"mcf", "equake", "gzip", "art", "vpr", "graph.bfs"};
    spec.insts = 20000;
    return spec;
}

TEST(Sweep, RunKeepsNoTraceAfterItReturns)
{
    SweepEngine engine(2);
    const SweepSpec spec = smallSpec();
    engine.run(spec);
    EXPECT_EQ(engine.traceGenerations(), spec.benches.size());
    // The run freed its traces: asking for one generates it again.
    engine.trace(spec.benches.front(), spec.insts);
    EXPECT_EQ(engine.traceGenerations(), spec.benches.size() + 1);
}

TEST(Sweep, EngineIgnoresTraceDirEnvironment)
{
    // Every user path generates its traces: the old ICFP_TRACE_DIR
    // variable attaches no store, so nothing is read from or written to
    // the directory it names.
    namespace fs = std::filesystem;
    std::string dir =
        (fs::temp_directory_path() / "icfp_sweep_env_XXXXXX").string();
    ASSERT_NE(mkdtemp(dir.data()), nullptr);
    ASSERT_EQ(setenv("ICFP_TRACE_DIR", dir.c_str(), 1), 0);
    SweepEngine engine;
    const SweepSpec spec = smallSpec();
    engine.run(spec);
    ASSERT_EQ(unsetenv("ICFP_TRACE_DIR"), 0);
    EXPECT_EQ(engine.traceGenerations(), spec.benches.size());
    EXPECT_TRUE(fs::is_empty(dir));
    fs::remove_all(dir);
}

TEST(Sweep, RunHoldsAtMostJobsTracesAtOnce)
{
    const SweepSpec spec = sixBenchSpec();
    for (const unsigned jobs : {1u, 2u, 4u}) {
        SweepEngine engine(jobs);
        engine.run(spec);
        EXPECT_GE(engine.peakTracesHeld(), 1u) << "jobs=" << jobs;
        EXPECT_LE(engine.peakTracesHeld(), jobs) << "jobs=" << jobs;
        if (jobs == 1) {
            EXPECT_EQ(engine.peakTracesHeld(), 1u);
        }
    }
}

TEST(Sweep, RunBorrowsTracesFetchedBeforeIt)
{
    const SweepSpec spec = smallSpec();
    SweepEngine engine(4);
    const Trace &held = engine.trace("equake", spec.insts);
    EXPECT_EQ(engine.traceGenerations(), 1u);
    const std::string csv = sweepCsv(engine.run(spec));
    // Only the two benches not fetched first were generated.
    EXPECT_EQ(engine.traceGenerations(), spec.benches.size());
    // trace() still holds its copy after the run.
    EXPECT_EQ(&engine.trace("equake", spec.insts), &held);
    EXPECT_EQ(engine.traceGenerations(), spec.benches.size());

    SweepEngine fresh(1);
    EXPECT_EQ(csv, sweepCsv(fresh.run(spec)));
}

TEST(Sweep, CancelMidRunStopsPromptlyAndEngineReruns)
{
    const SweepSpec spec = sixBenchSpec();
    const std::vector<SweepJob> grid = expandGrid(spec);
    SweepEngine reference(1);
    const std::string want = sweepCsv(reference.run(spec));

    SweepEngine engine(4);
    std::atomic<bool> cancel{false};
    uint64_t done_at_cancel = 0;
    std::thread watcher([&] {
        // Cancel once the first cell has finished.
        while (engine.replays() == 0)
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        cancel.store(true);
        done_at_cancel = engine.replays();
    });
    EXPECT_THROW(engine.run(grid, spec.insts, spec.seed, &cancel),
                 SweepCancelled);
    watcher.join();
    // Each worker finishes at most the cell it was in.
    EXPECT_LE(engine.replays(), done_at_cancel + engine.jobs());
    EXPECT_LT(engine.replays(), grid.size());

    EXPECT_EQ(sweepCsv(engine.run(spec)), want);
}

TEST(Sweep, JobFaultMidRunStopsPromptlyAndEngineReruns)
{
    const SweepSpec spec = sixBenchSpec();
    const size_t cells = expandGrid(spec).size();
    SweepEngine reference(1);
    const std::string want = sweepCsv(reference.run(spec));

    SweepEngine engine(4);
    fault::disarmAll();
    ASSERT_TRUE(fault::armSpec("sweep.job:3"));
    EXPECT_THROW(engine.run(spec), std::runtime_error);
    fault::disarmAll();
    // The fault fired on the third cell; at most one more cell per
    // other worker started after it.
    EXPECT_LT(engine.replays(), cells);

    EXPECT_EQ(sweepCsv(engine.run(spec)), want);
}

TEST(Sweep, ParallelForCoversEveryIndexExactlyOnce)
{
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    parallelFor(kN, 8, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Sweep, ParallelForPropagatesExceptions)
{
    EXPECT_THROW(
        parallelFor(100, 4,
                    [&](size_t i) {
                        if (i == 37)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
}

TEST(Sweep, ExpandGridAssignsStableIndices)
{
    const std::vector<SweepJob> jobs = expandGrid(smallSpec());
    for (size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].gridIndex, i);
}

TEST(Sweep, ParseShardSpecAcceptsOneBasedSlices)
{
    const auto one_of_three = parseShardSpec("1/3");
    ASSERT_TRUE(one_of_three);
    EXPECT_EQ(one_of_three->index, 0u);
    EXPECT_EQ(one_of_three->count, 3u);
    const auto whole = parseShardSpec("1/1");
    ASSERT_TRUE(whole);
    EXPECT_FALSE(whole->active());

    for (const char *bad :
         {"0/3", "4/3", "/3", "1/", "1", "", "a/3", "1/b", "-1/3", "1/3x",
          // Overflow/absurd splits must be rejected, not truncated.
          "99999999999999999999/2", "4294967298/4294967298",
          "1/99999999999999999999", "1/200000"})
        EXPECT_FALSE(parseShardSpec(bad)) << bad;
}

TEST(Sweep, NonspecSuiteSweepDeterministicAcrossJobCounts)
{
    // The acceptance contract for the new suite: byte-identical
    // artifacts for any --jobs N (the same contract spec2000 carries).
    SweepSpec spec;
    spec.benches = {"graph.bfs", "join.probe", "kv.get"};
    const SimConfig cfg;
    spec.variants = {{"base", CoreKind::InOrder, cfg},
                     {"icfp", CoreKind::ICfp, cfg}};
    spec.insts = 3000;
    SweepEngine serial(1);
    SweepEngine parallel(8);
    EXPECT_EQ(sweepCsv(serial.run(spec)), sweepCsv(parallel.run(spec)));
}

TEST(Sweep, DefaultJobsHonorsEnv)
{
    // Can't portably mutate the environment mid-test on all platforms,
    // so just pin down the no-env contract: a positive thread count.
    EXPECT_GE(defaultSweepJobs(), 1u);
}

} // namespace
} // namespace icfp
