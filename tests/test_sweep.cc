/**
 * @file
 * Sweep-engine tests: grid expansion order, trace-cache sharing (keyed
 * on the full (bench, insts, seed) tuple), the jobs=1 vs jobs=8
 * determinism contract (identical results and identical CSV/JSON
 * bytes) and the parallelFor primitive. The paper figures built on the
 * engine are pinned in tests/test_golden.cc.
 */

#include <gtest/gtest.h>

#include <atomic>

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
