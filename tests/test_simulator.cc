/**
 * @file
 * Driver-level tests: the simulate() API, configuration plumbing, the
 * report table formatter, and the area model.
 */

#include <gtest/gtest.h>

#include "area/area_model.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"

namespace icfp {
namespace {

TEST(Simulator, CoreKindNames)
{
    EXPECT_STREQ(coreKindName(CoreKind::InOrder), "in-order");
    EXPECT_STREQ(coreKindName(CoreKind::Runahead), "runahead");
    EXPECT_STREQ(coreKindName(CoreKind::Multipass), "multipass");
    EXPECT_STREQ(coreKindName(CoreKind::Sltp), "sltp");
    EXPECT_STREQ(coreKindName(CoreKind::ICfp), "icfp");
}

TEST(Simulator, MakeBenchTraceHonorsBudget)
{
    const Trace trace = makeBenchTrace(findBenchmark("mesa"), 3000);
    EXPECT_EQ(trace.size(), 3000u);
    EXPECT_NE(trace.program, nullptr);
}

TEST(Simulator, PercentSpeedupMath)
{
    RunResult base, fast;
    base.cycles = 200;
    fast.cycles = 100;
    EXPECT_DOUBLE_EQ(percentSpeedup(base, fast), 100.0);
    EXPECT_DOUBLE_EQ(percentSpeedup(fast, base), -50.0);
    EXPECT_DOUBLE_EQ(percentSpeedup(base, base), 0.0);
}

TEST(Simulator, ConfigPlumbingReachesTheCore)
{
    // A 1-entry slice buffer must force simple-runahead fallbacks; that
    // proves the SimConfig actually reaches the constructed core.
    const Trace trace = makeBenchTrace(findBenchmark("equake"), 20000);
    SimConfig cfg;
    cfg.icfp.sliceEntries = 2;
    const RunResult r = simulate(CoreKind::ICfp, cfg, trace);
    EXPECT_GT(r.simpleRaEntries, 0u);

    SimConfig big;
    const RunResult r2 = simulate(CoreKind::ICfp, big, trace);
    EXPECT_LT(r2.simpleRaEntries, r.simpleRaEntries);
}

TEST(Simulator, RunResultDerivedStats)
{
    RunResult r;
    r.instructions = 2000;
    r.cycles = 1000;
    r.rallyInsts = 500;
    EXPECT_DOUBLE_EQ(r.ipc(), 2.0);
    EXPECT_DOUBLE_EQ(r.rallyPerKi(), 250.0);
    EXPECT_DOUBLE_EQ(r.missPerKi(40), 20.0);
}

// ---- Table ------------------------------------------------------------------

TEST(Report, TableRendersColumnsAndRows)
{
    Table table("demo");
    table.setColumns({"name", "a", "b"});
    table.addRow("row1", {1.25, 2.0}, 2);
    table.addRow("longer-row", {10.0, 20.5}, 1);
    table.addNote("a note");
    const std::string out = table.str();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("row1"), std::string::npos);
    EXPECT_NE(out.find("1.25"), std::string::npos);
    EXPECT_NE(out.find("20.5"), std::string::npos);
    EXPECT_NE(out.find("a note"), std::string::npos);
}

TEST(Report, TableAlignsColumns)
{
    Table table("align");
    table.setColumns({"x", "value"});
    table.addRow("a", {1.0}, 0);
    table.addRow("bb", {22.0}, 0);
    const std::string out = table.str();
    // Every data line should have the same length (fixed-width columns).
    size_t len = 0;
    size_t lines = 0;
    size_t pos = 0;
    while (pos < out.size()) {
        const size_t next = out.find('\n', pos);
        const std::string line = out.substr(pos, next - pos);
        if (line == "a" || line.substr(0, 1) == "a" ||
            line.substr(0, 2) == "bb") {
            if (len == 0)
                len = line.size();
            EXPECT_EQ(line.size(), len);
            ++lines;
        }
        pos = next + 1;
    }
    EXPECT_EQ(lines, 2u);
}

// ---- AreaModel --------------------------------------------------------------

TEST(AreaModel, PaperOrderingHolds)
{
    const AreaModel model;
    const double ra = model.runahead().totalMm2();
    const double mp = model.multipass().totalMm2();
    const double sltp = model.sltp().totalMm2();
    const double icfp = model.icfp().totalMm2();
    // Section 5.3: RA 0.12 < MP 0.22 < iCFP 0.26 < SLTP 0.36.
    EXPECT_LT(ra, mp);
    EXPECT_LT(mp, icfp);
    EXPECT_LT(icfp, sltp);
}

TEST(AreaModel, TotalsNearPaperValues)
{
    const AreaModel model;
    EXPECT_NEAR(model.runahead().totalMm2(), 0.12, 0.05);
    EXPECT_NEAR(model.multipass().totalMm2(), 0.22, 0.06);
    EXPECT_NEAR(model.sltp().totalMm2(), 0.36, 0.10);
    EXPECT_NEAR(model.icfp().totalMm2(), 0.26, 0.07);
}

TEST(AreaModel, ComponentsArePositiveAndNamed)
{
    const AreaModel model;
    for (const AreaBreakdown &b :
         {model.runahead(), model.multipass(), model.sltp(), model.icfp()}) {
        EXPECT_FALSE(b.components.empty());
        for (const AreaComponent &c : b.components) {
            EXPECT_FALSE(c.name.empty());
            EXPECT_GT(c.areaUm2, 0.0);
        }
    }
}

TEST(AreaModel, BiggerStructuresCostMore)
{
    AreaConfig small;
    small.storeBufferEntries = 64;
    AreaConfig big;
    big.storeBufferEntries = 256;
    const AreaModel a(AreaParams{}, small);
    const AreaModel b(AreaParams{}, big);
    EXPECT_LT(a.icfp().totalMm2(), b.icfp().totalMm2());
}

TEST(AreaModel, CamCostsMoreThanSram)
{
    const AreaModel model;
    EXPECT_GT(model.camArrayUm2(128, 38, 10),
              model.sramArrayUm2(128, 48));
}

TEST(AreaModel, PortsMultiplyArea)
{
    const AreaModel model;
    EXPECT_GT(model.sramArrayUm2(128, 64, 2),
              model.sramArrayUm2(128, 64, 1));
}

} // namespace
} // namespace icfp
