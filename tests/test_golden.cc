/**
 * @file
 * Absolute result pins. Every other byte-identity check compares two runs
 * of the same build; these tests compare fresh in-process runs against
 * files committed under tests/golden/: three sweep grids as CSV, where a
 * change that moves any simulated number names each changed (bench,
 * core, column) cell; and every paper figure's tables (sim/figures.hh)
 * as text, where a change names the figure and its first changed line.
 *
 * Simulated results may change only together with kSimSemanticsVersion
 * (sim/simulator.hh). Each golden file starts with the line
 * "# sim_semantics_version=N". After an intentional change, bump the
 * version and regenerate every file from the build directory:
 *
 * @code
 *   V=2   # the new kSimSemanticsVersion
 *   G=../tests/golden
 *   { echo "# sim_semantics_version=$V";
 *     ./icfp-sim sweep --insts 20000 --format csv; } \
 *       > $G/spec2000_all_20k.csv
 *   { echo "# sim_semantics_version=$V";
 *     ./icfp-sim sweep --suite nonspec --insts 20000 --format csv; } \
 *       > $G/nonspec_all_20k.csv
 *   { echo "# sim_semantics_version=$V";
 *     ./icfp-sim sweep --cores ooo,cfp --mem-lat 250 --insts 20000 \
 *       --format csv; } > $G/spec2000_ooo_cfp_memlat250_20k.csv
 *   # `icfp-sim figure` with no name lists every figure (and exits 1).
 *   FIGURES=$(./icfp-sim figure 2>&1 | sed -n 's/^figure: figures are: //p')
 *   for F in $FIGURES; do
 *     { echo "# sim_semantics_version=$V";
 *       ./icfp-sim figure $F --insts 20000; } > $G/figures/${F}_20k.txt
 *   done
 *   { echo "# sim_semantics_version=$V";
 *     ./icfp-sim figure ablation --insts 20000 --format csv; } \
 *       > $G/figures/ablation_grid_20k.csv
 * @endcode
 *
 * A figure added to figures() fails here until its file is committed.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/figures.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "workloads/suite_registry.hh"

namespace icfp {

/** Names a figure in gtest's failure messages. */
void
PrintTo(const Figure &figure, std::ostream *os)
{
    *os << figure.name;
}

namespace {

constexpr uint64_t kGoldenInsts = 20000;
constexpr const char *kVersionPrefix = "# sim_semantics_version=";

/** One pinned grid: a suite × a core set under one configuration. */
struct GoldenGrid
{
    const char *file;
    const char *suite;
    std::vector<CoreKind> cores; ///< empty = every registered core
    SimConfig config{};
};

std::string
readFile(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

std::vector<std::string>
splitOn(const std::string &text, char sep)
{
    std::vector<std::string> parts;
    std::string part;
    std::istringstream is(text);
    while (std::getline(is, part, sep))
        parts.push_back(part);
    return parts;
}

/** A parsed CSV: column names plus rows keyed by "bench/variant". */
struct Csv
{
    std::vector<std::string> columns;
    std::vector<std::string> keys; ///< row order
    std::map<std::string, std::vector<std::string>> rows;
};

Csv
parseCsv(const std::string &text)
{
    Csv csv;
    for (const std::string &line : splitOn(text, '\n')) {
        if (line.empty())
            continue;
        std::vector<std::string> cells = splitOn(line, ',');
        if (csv.columns.empty()) {
            csv.columns = std::move(cells);
            continue;
        }
        const std::string key = cells.at(0) + "/" + cells.at(2);
        csv.keys.push_back(key);
        csv.rows[key] = std::move(cells);
    }
    return csv;
}

/** Every difference between @p golden and @p actual, one per line. */
std::string
describeDiff(const Csv &golden, const Csv &actual)
{
    std::string out;
    if (golden.columns != actual.columns)
        out += "column set differs\n";
    for (const std::string &key : golden.keys) {
        const auto it = actual.rows.find(key);
        if (it == actual.rows.end()) {
            out += key + ": row missing\n";
            continue;
        }
        const std::vector<std::string> &want = golden.rows.at(key);
        const std::vector<std::string> &got = it->second;
        for (size_t c = 0; c < golden.columns.size(); ++c) {
            const std::string w = c < want.size() ? want[c] : "";
            const std::string g = c < got.size() ? got[c] : "";
            if (w != g) {
                out += key + "/" + golden.columns[c] + ": golden " + w +
                       ", now " + g + "\n";
            }
        }
    }
    for (const std::string &key : actual.keys) {
        if (!golden.rows.count(key))
            out += key + ": row not in the golden file\n";
    }
    if (out.empty() && golden.keys != actual.keys)
        out += "row order differs\n";
    return out;
}

/**
 * The golden file @p path after its version header, which may be empty.
 * Fails the test and returns nullopt if the file is missing or has no
 * header; a header from another kSimSemanticsVersion fails it too.
 */
std::optional<std::string>
goldenBody(const std::string &path)
{
    const std::string text = readFile(path);
    const size_t eol = text.find('\n');
    const std::string first = text.substr(0, eol);
    if (text.empty() || first.rfind(kVersionPrefix, 0) != 0) {
        ADD_FAILURE() << path << " is missing or lacks its '"
                      << kVersionPrefix << "N' header";
        return std::nullopt;
    }
    EXPECT_EQ(std::stoul(first.substr(std::string(kVersionPrefix).size())),
              kSimSemanticsVersion)
        << path << " was generated under another kSimSemanticsVersion; "
        << "regenerate it (see tests/test_golden.cc)";
    return text.substr(eol + 1);
}

/** Fails naming each changed cell unless @p actual equals @p golden. */
void
checkCsv(const std::string &path, const std::string &golden,
         const std::string &actual)
{
    if (actual != golden) {
        ADD_FAILURE() << path << " no longer matches:\n"
                      << describeDiff(parseCsv(golden), parseCsv(actual));
    }
}

void
checkGrid(const GoldenGrid &grid)
{
    const std::string path = std::string(ICFP_GOLDEN_DIR) + "/" + grid.file;
    const std::optional<std::string> golden = goldenBody(path);
    if (!golden)
        return;

    SweepSpec spec;
    for (const BenchmarkSpec &bench : findSuite(grid.suite))
        spec.benches.push_back(bench.name);
    const std::vector<CoreKind> cores =
        grid.cores.empty() ? CoreRegistry::instance().kinds() : grid.cores;
    for (const CoreKind kind : cores)
        spec.variants.push_back({coreKindName(kind), kind, grid.config});
    spec.insts = kGoldenInsts;

    SweepEngine engine(4);
    checkCsv(path, *golden, sweepCsv(engine.run(spec)));
}

TEST(Golden, Spec2000AllCores)
{
    checkGrid({"spec2000_all_20k.csv", "spec2000", {}, SimConfig{}});
}

TEST(Golden, NonspecAllCores)
{
    checkGrid({"nonspec_all_20k.csv", "nonspec", {}, SimConfig{}});
}

TEST(Golden, Spec2000OooCfpAtMemLatency250)
{
    SimConfig cfg;
    cfg.mem.memory.accessLatency = 250;
    checkGrid({"spec2000_ooo_cfp_memlat250_20k.csv", "spec2000",
               {CoreKind::Ooo, CoreKind::Cfp}, cfg});
}

/** One engine for every figure, as `icfp-sim figure` runs all the
 *  figures it is given on one. */
SweepEngine &
figureEngine()
{
    static SweepEngine engine(4);
    return engine;
}

class FigureTest : public ::testing::TestWithParam<Figure>
{
};

TEST_P(FigureTest, MatchesPinnedTables)
{
    const Figure &figure = GetParam();
    const std::string path = std::string(ICFP_GOLDEN_DIR) + "/figures/" +
                             figure.name + "_20k.txt";
    const std::optional<std::string> golden = goldenBody(path);
    if (!golden)
        return;
    const std::string actual =
        figureText(figure.run(figureEngine(), kGoldenInsts));
    if (actual == *golden)
        return;
    const std::vector<std::string> want = splitOn(*golden, '\n');
    const std::vector<std::string> got = splitOn(actual, '\n');
    size_t line = 0;
    while (line < want.size() && line < got.size() && want[line] == got[line])
        ++line;
    // +2: lines count from 1, after the version header.
    ADD_FAILURE() << "figure " << figure.name << " no longer matches " << path
                  << " at line " << line + 2 << ":\n  golden: "
                  << (line < want.size() ? want[line] : "<end of file>")
                  << "\n  now:    "
                  << (line < got.size() ? got[line] : "<end of output>");
}

TEST_P(FigureTest, PrintsNoNanInfOrEmptyNameAtTinyBudgets)
{
    // At 50 insts some runs see no external probe and no bench slows
    // down; every cell must still be a number (a zero without a sign)
    // and every note complete.
    const FigureOutput out = GetParam().run(figureEngine(), 50);
    const std::string text = figureText(out);
    std::istringstream words(text);
    for (std::string word; words >> word;) {
        const bool negative_zero =
            word.rfind("-0", 0) == 0 &&
            word.find_first_not_of("0.", 1) == std::string::npos;
        EXPECT_TRUE(word != "nan" && word != "-nan" && word != "inf" &&
                    word != "-inf" && !negative_zero)
            << GetParam().name << " prints '" << word << "':\n" << text;
    }
    EXPECT_EQ(text.find("()"), std::string::npos)
        << GetParam().name << " names an empty bench:\n" << text;
}

TEST_P(FigureTest, GridRowsHaveUniqueLabels)
{
    // `figure --format csv` emits the grid; a row must say which bench
    // and which configuration of its figure it is.
    const FigureOutput out = GetParam().run(figureEngine(), 50);
    std::set<std::string> seen;
    for (const SweepResult &row : out.grid) {
        const std::string key = row.bench + "/" + row.variant;
        EXPECT_FALSE(row.bench.empty() || row.variant.empty())
            << GetParam().name << " has an unlabelled grid row " << key;
        EXPECT_TRUE(seen.insert(key).second)
            << GetParam().name << " has two grid rows labelled " << key;
    }
}

TEST(Golden, AblationGridMatchesPinnedCsv)
{
    // The raw grid behind a figure's tables, as `figure --format csv`
    // emits it: ablation's five studies label their variants by study
    // ("slice=16", "skips/base") over the same five benches.
    const std::string path =
        std::string(ICFP_GOLDEN_DIR) + "/figures/ablation_grid_20k.csv";
    const std::optional<std::string> golden = goldenBody(path);
    if (!golden)
        return;
    checkCsv(path, *golden,
             sweepCsv(findFigure("ablation")->run(figureEngine(),
                                                  kGoldenInsts)
                          .grid));
}

INSTANTIATE_TEST_SUITE_P(
    Golden, FigureTest, ::testing::ValuesIn(figures()),
    [](const ::testing::TestParamInfo<Figure> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace icfp
