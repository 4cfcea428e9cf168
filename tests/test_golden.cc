/**
 * @file
 * Absolute result pins. Every other byte-identity check compares two runs
 * of the same build; these tests compare a fresh in-process sweep against
 * CSV files committed under tests/golden/, so a change that moves any
 * simulated number fails here and names each changed (bench, core,
 * column) cell.
 *
 * Simulated results may change only together with kSimSemanticsVersion
 * (sim/simulator.hh). Each golden file starts with the line
 * "# sim_semantics_version=N". After an intentional change, bump the
 * version and regenerate all three files from the build directory:
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
 * @endcode
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/report.hh"
#include "sim/sweep.hh"
#include "workloads/suite_registry.hh"

namespace icfp {
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

void
checkGrid(const GoldenGrid &grid)
{
    const std::string path = std::string(ICFP_GOLDEN_DIR) + "/" + grid.file;
    const std::string text = readFile(path);
    ASSERT_FALSE(text.empty()) << "cannot read " << path;

    const size_t eol = text.find('\n');
    const std::string first = text.substr(0, eol);
    ASSERT_EQ(first.rfind(kVersionPrefix, 0), 0u)
        << path << " lacks its '" << kVersionPrefix << "N' header";
    EXPECT_EQ(std::stoul(first.substr(std::string(kVersionPrefix).size())),
              kSimSemanticsVersion)
        << path << " was generated under another kSimSemanticsVersion; "
        << "regenerate it (see tests/test_golden.cc)";

    SweepSpec spec;
    for (const BenchmarkSpec &bench : findSuite(grid.suite))
        spec.benches.push_back(bench.name);
    const std::vector<CoreKind> cores =
        grid.cores.empty() ? CoreRegistry::instance().kinds() : grid.cores;
    for (const CoreKind kind : cores)
        spec.variants.push_back({coreKindName(kind), kind, grid.config});
    spec.insts = kGoldenInsts;

    SweepEngine engine(4);
    const std::string actual = sweepCsv(engine.run(spec));
    const std::string golden = text.substr(eol + 1);
    if (actual != golden) {
        ADD_FAILURE() << path << " no longer matches:\n"
                      << describeDiff(parseCsv(golden), parseCsv(actual));
    }
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

} // namespace
} // namespace icfp
