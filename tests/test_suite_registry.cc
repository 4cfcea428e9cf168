/**
 * @file
 * Workload-suite registry tests (workloads/suite_registry.hh): every
 * expected suite self-registers, lookups are memoized and deterministic,
 * unknown suites are clean errors, spec2000Suite() and the registered
 * "spec2000" suite are the same object, the combined nonspec suite
 * re-exports the family suites verbatim, and every new kernel family is
 * deterministic — same seed → byte-identical trace, with a final-memory
 * delta that matches an independent replay of the trace's stores (the
 * delta replay verification compares every core's MemOverlay with).
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "isa/trace_io.hh"
#include "sim/simulator.hh"
#include "trace_oracle.hh"
#include "workloads/nonspec_suites.hh"
#include "workloads/suite_registry.hh"

namespace icfp {
namespace {

std::string
traceBytes(const Trace &trace)
{
    std::ostringstream os;
    writeTrace(os, trace);
    return os.str();
}

TEST(SuiteRegistry, ExpectedSuitesRegisteredInSortedOrder)
{
    const std::vector<std::string> names = suiteNames();
    const std::vector<std::string> expected = {"graph", "hashjoin", "kv",
                                               "nonspec", "spec2000"};
    EXPECT_EQ(names, expected);
    for (const std::string &name : names)
        EXPECT_TRUE(SuiteRegistry::instance().has(name));
}

TEST(SuiteRegistry, Spec2000IsTheRegisteredDefaultSuite)
{
    // spec2000Suite() must be the registry's memoized object (same
    // address), not a copy — harnesses hold references across calls.
    EXPECT_EQ(&spec2000Suite(), &findSuite(kDefaultSuiteName));
    EXPECT_EQ(spec2000Suite().size(), 24u);
    EXPECT_EQ(std::string(kDefaultSuiteName), "spec2000");
}

TEST(SuiteRegistry, LookupsAreMemoized)
{
    const std::vector<BenchmarkSpec> &first = findSuite("graph");
    const std::vector<BenchmarkSpec> &again = findSuite("graph");
    EXPECT_EQ(&first, &again);
    EXPECT_EQ(SuiteRegistry::instance().maybeSuite("graph"), &first);
}

TEST(SuiteRegistry, UnknownSuiteIsCleanError)
{
    EXPECT_EQ(SuiteRegistry::instance().maybeSuite("bogus"), nullptr);
    EXPECT_FALSE(SuiteRegistry::instance().has("bogus"));
    // The fatal path names the available suites (a usable error).
    EXPECT_EXIT(findSuite("bogus"), ::testing::ExitedWithCode(1),
                "unknown workload suite 'bogus'");
}

TEST(SuiteRegistry, FamilySuitesHaveExpectedShape)
{
    for (const char *family : {"graph", "hashjoin", "kv"}) {
        const std::vector<BenchmarkSpec> &suite = findSuite(family);
        EXPECT_GE(suite.size(), 3u) << family;
        EXPECT_LE(suite.size(), 4u) << family;
        for (const BenchmarkSpec &spec : suite) {
            EXPECT_FALSE(spec.isFp) << spec.name;
            EXPECT_GE(spec.defVersion, 1u) << spec.name;
            // Family-prefixed names ("graph.bfs" → family "graph").
            EXPECT_NE(spec.name.find('.'), std::string::npos) << spec.name;
        }
    }
    EXPECT_EQ(benchFamily("graph.bfs"), "graph");
    EXPECT_EQ(benchFamily("mcf"), "mcf");
}

TEST(SuiteRegistry, NonspecIsTheFamilyUnionVerbatim)
{
    const std::vector<BenchmarkSpec> &nonspec =
        findSuite(kNonspecSuiteName);
    std::vector<BenchmarkSpec> expected = graphSuite();
    const std::vector<BenchmarkSpec> join = hashJoinSuite();
    const std::vector<BenchmarkSpec> kv = kvServiceSuite();
    expected.insert(expected.end(), join.begin(), join.end());
    expected.insert(expected.end(), kv.begin(), kv.end());

    ASSERT_EQ(nonspec.size(), expected.size());
    for (size_t i = 0; i < nonspec.size(); ++i) {
        EXPECT_EQ(nonspec[i].name, expected[i].name);
        EXPECT_EQ(nonspec[i].workload.seed, expected[i].workload.seed);
        EXPECT_EQ(nonspec[i].defVersion, expected[i].defVersion);
    }
}

TEST(SuiteRegistry, BenchNamesFormOneConsistentNamespace)
{
    // Within one suite a name may appear once; across suites a repeated
    // name (nonspec re-exports) must resolve to the identical workload,
    // and findBenchmark() must resolve every name of every suite.
    for (const std::string &suite_name : suiteNames()) {
        std::set<std::string> seen;
        for (const BenchmarkSpec &spec : findSuite(suite_name)) {
            EXPECT_TRUE(seen.insert(spec.name).second)
                << spec.name << " duplicated within " << suite_name;
            const BenchmarkSpec &resolved = findBenchmark(spec.name);
            EXPECT_EQ(resolved.workload.seed, spec.workload.seed)
                << spec.name;
            EXPECT_EQ(resolved.workload.name, spec.workload.name);
            EXPECT_EQ(resolved.defVersion, spec.defVersion);
        }
    }
    EXPECT_EQ(SuiteRegistry::instance().findBenchmark("no-such-bench"),
              nullptr);
}

TEST(SuiteRegistry, GlobalFindBenchmarkStillResolvesSpecNames)
{
    // The pre-registry contract: spec2000 names resolve exactly as
    // before (same spec object the suite holds).
    EXPECT_EQ(&findBenchmark("mcf"), &findBenchmark("mcf"));
    EXPECT_EQ(findBenchmark("mcf").name, "mcf");
    EXPECT_TRUE(findBenchmark("swim").isFp);
    EXPECT_FALSE(findBenchmark("graph.bfs").isFp);
}

// ---- new-family determinism --------------------------------------------

class NonspecFamilyTest : public ::testing::TestWithParam<const char *>
{
  protected:
    const BenchmarkSpec &spec() const { return findBenchmark(GetParam()); }
};

TEST_P(NonspecFamilyTest, SameSeedSameTraceBytes)
{
    // The determinism sharded sweeps and the result cache rest on: two
    // independent generations serialize to the same bytes.
    const Trace a = makeBenchTrace(spec(), 20000);
    const Trace b = makeBenchTrace(spec(), 20000);
    EXPECT_EQ(traceBytes(a), traceBytes(b));
    EXPECT_EQ(a.size(), 20000u);
    EXPECT_FALSE(a.halted);
}

TEST_P(NonspecFamilyTest, FinalDeltaMatchesStoreReplayOracle)
{
    // Replay verification compares each core's overlay delta with this
    // one; it must be exactly the set of words the run changed, as an
    // independent replay of the trace's stores onto the image finds.
    const Trace trace = makeBenchTrace(spec(), 20000);
    EXPECT_EQ(trace.finalDelta, storeReplayDelta(trace));
    EXPECT_FALSE(trace.finalDelta.empty()); // every family stores something
}

TEST_P(NonspecFamilyTest, EveryCoreModelReplaysAndAgrees)
{
    // Each timing model self-checks its architectural values against
    // the golden trace (a divergence panics), so replaying is itself
    // the functional test — on the workloads' new access patterns too.
    const Trace trace = makeBenchTrace(spec(), 10000);
    const SimConfig cfg;
    for (const CoreKind kind : CoreRegistry::instance().kinds()) {
        const RunResult r = simulate(kind, cfg, trace);
        EXPECT_EQ(r.instructions, trace.size()) << coreKindName(kind);
        EXPECT_GT(r.cycles, 0u) << coreKindName(kind);
    }
}

TEST_P(NonspecFamilyTest, SeedOverrideChangesTheTrace)
{
    BenchmarkSpec seeded = spec();
    seeded.workload.seed += 1;
    const Trace a = makeBenchTrace(spec(), 5000);
    const Trace b = makeBenchTrace(seeded, 5000);
    EXPECT_NE(traceBytes(a), traceBytes(b));
}

INSTANTIATE_TEST_SUITE_P(
    Families, NonspecFamilyTest,
    ::testing::Values("graph.chase", "graph.bfs", "graph.l2", "graph.csr",
                      "join.build", "join.probe", "join.l2", "join.skew",
                      "kv.get", "kv.put", "kv.mixed", "kv.cold"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '.')
                c = '_';
        return name;
    });

} // namespace
} // namespace icfp
