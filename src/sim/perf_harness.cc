#include "sim/perf_harness.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "isa/trace_io.hh" // kTraceGenVersion
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "workloads/nonspec_suites.hh"
#include "workloads/suite_registry.hh"

namespace icfp {

namespace {

using Clock = std::chrono::steady_clock;

/** The schemes timed: every registered core model, in enum order. */
std::vector<std::pair<std::string, CoreKind>>
perfSchemes()
{
    std::vector<std::pair<std::string, CoreKind>> schemes;
    for (const CoreKind kind : CoreRegistry::instance().kinds())
        schemes.emplace_back(coreKindName(kind), kind);
    return schemes;
}

double
elapsedSeconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Median of @p samples (averaged middle pair for even counts). */
double
median(std::vector<double> samples)
{
    ICFP_ASSERT(!samples.empty());
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    if (n % 2 == 1)
        return samples[n / 2];
    return 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/** Time one thunk over warmup + reps runs; returns the median seconds. */
template <typename Fn>
double
timeMedian(unsigned warmup, unsigned reps, Fn &&fn)
{
    for (unsigned i = 0; i < warmup; ++i)
        fn();
    std::vector<double> samples;
    samples.reserve(reps);
    for (unsigned i = 0; i < reps; ++i) {
        const Clock::time_point start = Clock::now();
        fn();
        samples.push_back(elapsedSeconds(start, Clock::now()));
    }
    return median(samples);
}

void
appendKv(std::string *out, const char *key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"%s\": %.1f", key, value);
    *out += buf;
}

void
appendKv(std::string *out, const char *key, uint64_t value)
{
    *out += "\"";
    *out += key;
    *out += "\": " + std::to_string(value);
}

void
appendKv(std::string *out, const char *key, const std::string &value)
{
    *out += "\"";
    *out += key;
    *out += "\": \"" + value + "\"";
}

/** {"insts": N, "seconds": s, "insts_per_sec": x} (no braces). */
void
appendThroughput(std::string *out, uint64_t insts, double seconds,
                 double ips)
{
    appendKv(out, "insts", insts);
    *out += ", ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"seconds\": %.4f", seconds);
    *out += buf;
    *out += ", ";
    appendKv(out, "insts_per_sec", ips);
}

/**
 * Extract the number following `"key": ` after position @p anchor.
 * Returns std::nullopt if absent.
 */
std::optional<double>
scanNumberAfter(const std::string &text, size_t anchor, const char *key)
{
    const std::string needle = std::string("\"") + key + "\":";
    const size_t at = text.find(needle, anchor);
    if (at == std::string::npos)
        return std::nullopt;
    const char *p = text.c_str() + at + needle.size();
    char *end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p)
        return std::nullopt;
    return v;
}

/** Extract the string following `"key": "` after position @p anchor. */
std::optional<std::string>
scanStringAfter(const std::string &text, size_t anchor, const char *key)
{
    const std::string needle = std::string("\"") + key + "\": \"";
    const size_t at = text.find(needle, anchor);
    if (at == std::string::npos)
        return std::nullopt;
    const size_t start = at + needle.size();
    const size_t end = text.find('"', start);
    if (end == std::string::npos)
        return std::nullopt;
    return text.substr(start, end - start);
}

} // namespace

std::vector<std::string>
perfSchemeNames()
{
    std::vector<std::string> names;
    for (const auto &[name, kind] : perfSchemes())
        names.push_back(name);
    return names;
}

std::string
perfGridName(const std::string &suite, bool quick)
{
    // spec2000 keeps its historical grid label (artifacts and baselines
    // grep for "fig5"); other suites label the grid by suite name.
    const std::string base =
        suite == std::string(kDefaultSuiteName) ? "fig5" : suite;
    return quick ? base + "-quick" : base;
}

std::string
perfGridSuitePart(const std::string &grid)
{
    constexpr const char *kQuick = "-quick";
    const size_t n = std::string(kQuick).size();
    if (grid.size() > n && grid.compare(grid.size() - n, n, kQuick) == 0)
        return grid.substr(0, grid.size() - n);
    return grid;
}

PerfReport
runPerfHarness(const PerfOptions &options)
{
    PerfReport report;
    report.instsPerBench = options.insts;
    report.warmup = options.warmup;
    report.reps = options.reps;
    report.suite = options.suite;
    const bool is_spec = options.suite == std::string(kDefaultSuiteName);
    report.grid = perfGridName(options.suite, options.quick);

    std::vector<std::string> benches = options.benches;
    if (benches.empty()) {
        const std::vector<BenchmarkSpec> &suite = findSuite(options.suite);
        if (options.quick && is_spec) {
            benches = {"mcf", "equake", "gzip"};
        } else if (options.quick) {
            // One representative per family: the first benchmark of
            // each name-prefix family, in suite order (a seen-set, so
            // suites with non-contiguous families still get exactly
            // one representative each).
            std::set<std::string> seen;
            for (const BenchmarkSpec &spec : suite) {
                if (seen.insert(benchFamily(spec.name)).second)
                    benches.push_back(spec.name);
            }
        } else {
            for (const BenchmarkSpec &spec : suite)
                benches.push_back(spec.name);
        }
    }
    for (const std::string &bench : benches)
        findBenchmark(bench); // fatal on typos before burning time

    const auto schemes = perfSchemes();
    std::vector<PerfSchemeStat> scheme_stats;
    for (const auto &[name, kind] : schemes) {
        (void)kind;
        scheme_stats.push_back({name, 0, 0.0, 0.0});
    }

    for (const std::string &bench : benches) {
        const BenchmarkSpec spec = findBenchmark(bench);

        // Trace generation throughput (workload build + interpreter).
        Trace trace;
        const double gen_sec =
            timeMedian(options.warmup, options.reps, [&] {
                trace = makeBenchTrace(spec, options.insts);
            });
        report.genInsts += trace.size();
        report.genSeconds += gen_sec;

        // Replay throughput per scheme, on the shared golden trace.
        const SimConfig cfg; // Table 1 defaults (the fig5 configuration)
        for (size_t s = 0; s < schemes.size(); ++s) {
            RunResult result;
            const double sec =
                timeMedian(options.warmup, options.reps, [&] {
                    result = simulate(schemes[s].second, cfg, trace);
                });
            PerfCase pc;
            pc.bench = bench;
            pc.scheme = schemes[s].first;
            pc.insts = result.instructions;
            pc.cycles = result.cycles;
            pc.medianSeconds = sec;
            pc.instsPerSec = sec > 0.0 ? double(result.instructions) / sec
                                       : 0.0;
            report.cases.push_back(pc);

            scheme_stats[s].insts += result.instructions;
            scheme_stats[s].seconds += sec;
            report.replayInsts += result.instructions;
            report.replaySeconds += sec;
        }
    }

    for (PerfSchemeStat &st : scheme_stats) {
        st.instsPerSec =
            st.seconds > 0.0 ? double(st.insts) / st.seconds : 0.0;
    }
    report.schemes = std::move(scheme_stats);
    report.genInstsPerSec = report.genSeconds > 0.0
                                ? double(report.genInsts) / report.genSeconds
                                : 0.0;
    report.replayInstsPerSec =
        report.replaySeconds > 0.0
            ? double(report.replayInsts) / report.replaySeconds
            : 0.0;
    return report;
}

std::string
perfReportJson(const PerfReport &report,
               const std::optional<PerfBaseline> &baseline)
{
    std::string out = "{\n  ";
    appendKv(&out, "schema", std::string("icfp-sim-perf-v1"));
    out += ",\n  ";
    appendKv(&out, "sim_semantics_version",
             uint64_t{kSimSemanticsVersion});
    out += ",\n  ";
    appendKv(&out, "trace_gen_version", uint64_t{kTraceGenVersion});
    out += ",\n  ";
    appendKv(&out, "grid", report.grid);
    out += ",\n  ";
    appendKv(&out, "suite", report.suite);
    out += ",\n  ";
    appendKv(&out, "insts_per_bench", report.instsPerBench);
    out += ",\n  ";
    appendKv(&out, "warmup", uint64_t{report.warmup});
    out += ",\n  ";
    appendKv(&out, "reps", uint64_t{report.reps});
    out += ",\n  \"trace_gen\": {";
    appendThroughput(&out, report.genInsts, report.genSeconds,
                     report.genInstsPerSec);
    out += "},\n  \"replay\": {";
    appendThroughput(&out, report.replayInsts, report.replaySeconds,
                     report.replayInstsPerSec);
    out += "},\n  \"schemes\": [\n";
    for (size_t i = 0; i < report.schemes.size(); ++i) {
        const PerfSchemeStat &st = report.schemes[i];
        out += "    {";
        appendKv(&out, "scheme", st.scheme);
        out += ", ";
        appendThroughput(&out, st.insts, st.seconds, st.instsPerSec);
        out += i + 1 < report.schemes.size() ? "},\n" : "}\n";
    }
    out += "  ],\n  \"cases\": [\n";
    for (size_t i = 0; i < report.cases.size(); ++i) {
        const PerfCase &pc = report.cases[i];
        out += "    {";
        appendKv(&out, "bench", pc.bench);
        out += ", ";
        appendKv(&out, "scheme", pc.scheme);
        out += ", ";
        appendKv(&out, "cycles", pc.cycles);
        out += ", ";
        appendThroughput(&out, pc.insts, pc.medianSeconds, pc.instsPerSec);
        out += i + 1 < report.cases.size() ? "},\n" : "}\n";
    }
    out += "  ]";
    if (baseline) {
        out += ",\n  \"baseline\": {";
        appendKv(&out, "replay_insts_per_sec", baseline->replayInstsPerSec);
        out += ", ";
        appendKv(&out, "gen_insts_per_sec", baseline->genInstsPerSec);
        out += ", ";
        appendKv(&out, "source", baseline->source);
        out += "}";
        if (baseline->replayInstsPerSec > 0.0) {
            out += ",\n  ";
            char buf[80];
            std::snprintf(buf, sizeof(buf),
                          "\"replay_speedup_vs_baseline\": %.2f",
                          report.replayInstsPerSec /
                              baseline->replayInstsPerSec);
            out += buf;
        }
        if (baseline->genInstsPerSec > 0.0) {
            out += ",\n  ";
            char buf[80];
            std::snprintf(buf, sizeof(buf),
                          "\"gen_speedup_vs_baseline\": %.2f",
                          report.genInstsPerSec / baseline->genInstsPerSec);
            out += buf;
        }
    }
    out += "\n}\n";
    return out;
}

std::optional<PerfBaseline>
readPerfBaseline(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        ICFP_WARN("perf: cannot read baseline %s", path.c_str());
        return std::nullopt;
    }
    std::ostringstream os;
    os << is.rdbuf();
    const std::string text = os.str();

    // The headline lives in the "replay" object; trace-gen in "trace_gen".
    PerfBaseline baseline;
    baseline.source = path;
    if (const auto grid = scanStringAfter(text, 0, "grid"))
        baseline.grid = *grid; // absent in pre-suite artifacts: empty
    const size_t replay_at = text.find("\"replay\":");
    const std::optional<double> replay =
        replay_at == std::string::npos
            ? std::nullopt
            : scanNumberAfter(text, replay_at, "insts_per_sec");
    if (!replay) {
        ICFP_WARN("perf: no replay insts_per_sec in %s", path.c_str());
        return std::nullopt;
    }
    baseline.replayInstsPerSec = *replay;
    const size_t schemes_at = text.find("\"schemes\": [");
    if (schemes_at != std::string::npos) {
        const size_t end = text.find(']', schemes_at);
        const std::string needle = "\"scheme\": \"";
        for (size_t at = text.find(needle, schemes_at);
             at != std::string::npos && at < end;
             at = text.find(needle, at + 1)) {
            const size_t start = at + needle.size();
            baseline.schemes.push_back(
                text.substr(start, text.find('"', start) - start));
        }
    }
    const size_t gen_at = text.find("\"trace_gen\":");
    if (gen_at != std::string::npos) {
        if (const auto gen = scanNumberAfter(text, gen_at, "insts_per_sec"))
            baseline.genInstsPerSec = *gen;
    }
    return baseline;
}

} // namespace icfp
