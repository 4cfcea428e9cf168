/**
 * @file
 * Simulator performance harness: measures host-side throughput of trace
 * generation and per-core replay over a suite × every registered core
 * model (the Figure 5 schemes plus the Section 5.3 ooo and cfp cores),
 * the way RZBENCH
 * treats low-level microbenchmarks — repeatable medians over warmed-up
 * repetitions, reported in machine-readable form.
 *
 * This measures the *simulator*, not the simulated machine: the unit is
 * simulated instructions retired per host second. The grid is the one a
 * default `icfp-sim sweep` or `submit` runs, so the numbers are the
 * direct multiplier on every sweep/shard in the repo.
 *
 * `icfp-sim perf` drives this and emits a BENCH_perf.json artifact:
 *
 * @code
 *   icfp-sim perf --quick                       # seconds, trimmed grid
 *   icfp-sim perf --out BENCH_perf.json         # full fig5 grid
 *   icfp-sim perf --baseline OLD.json --out NEW.json   # records speedup
 * @endcode
 *
 * Runs are strictly single-threaded (one case at a time) so the medians
 * are not polluted by host-side contention between jobs.
 */

#ifndef ICFP_SIM_PERF_HARNESS_HH
#define ICFP_SIM_PERF_HARNESS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace icfp {

/** What to measure. */
struct PerfOptions
{
    /** Benchmarks to run; empty = the whole selected suite (or its
     *  trimmed quick subset when quick is set). */
    std::vector<std::string> benches;
    /**
     * Workload suite the grid is drawn from (suite_registry.hh).
     * "spec2000" keeps the historical fig5 grid and its quick subset
     * {mcf, equake, gzip}; for any other suite, quick times one
     *  representative benchmark per family (the first bench of each
     *  name-prefix family), so BENCH_perf.json tracks throughput on
     *  irregular-access workloads too.
     */
    std::string suite = "spec2000";
    uint64_t insts = 100000; ///< dynamic instruction budget per benchmark
    unsigned warmup = 1;     ///< untimed repetitions per case
    unsigned reps = 3;       ///< timed repetitions per case (median-of-N)
    bool quick = false;      ///< trimmed grid for CI smoke runs
};

/** One timed (bench × scheme) replay cell. */
struct PerfCase
{
    std::string bench;
    std::string scheme;
    uint64_t insts = 0;      ///< simulated instructions replayed
    uint64_t cycles = 0;     ///< simulated cycles (sanity/context)
    double medianSeconds = 0.0;
    double instsPerSec = 0.0;
};

/** Replay throughput aggregated over one scheme's column of the grid. */
struct PerfSchemeStat
{
    std::string scheme;
    uint64_t insts = 0;      ///< total instructions across benchmarks
    double seconds = 0.0;    ///< sum of per-bench median seconds
    double instsPerSec = 0.0;
};

/** The full measurement. */
struct PerfReport
{
    uint64_t instsPerBench = 0;
    unsigned warmup = 0;
    unsigned reps = 0;
    /** "fig5"/"fig5-quick" for the spec2000 suite (historical artifact
     *  names), else "<suite>"/"<suite>-quick". */
    std::string grid;
    std::string suite;           ///< the workload suite measured

    // Trace generation (interpreter) throughput over all benchmarks.
    uint64_t genInsts = 0;
    double genSeconds = 0.0;     ///< sum of per-bench median seconds
    double genInstsPerSec = 0.0;

    std::vector<PerfCase> cases;         ///< grid order: bench-major
    std::vector<PerfSchemeStat> schemes; ///< perfSchemeNames() order

    // Replay aggregate over the whole grid (the headline number).
    uint64_t replayInsts = 0;
    double replaySeconds = 0.0;
    double replayInstsPerSec = 0.0;
};

/** A prior report's headline numbers, for before/after comparison. */
struct PerfBaseline
{
    double replayInstsPerSec = 0.0;
    double genInstsPerSec = 0.0;
    /** The baseline's "grid" label ("fig5", "nonspec-quick", …); empty
     *  for artifacts that predate the field. Callers should refuse to
     *  compare across different suites' grids — the ratio would mix
     *  throughput on unrelated workloads. */
    std::string grid;
    /** The baseline's "schemes" names; a headline ratio is meaningful
     *  only over the same set (see perfSchemeNames()). */
    std::vector<std::string> schemes;
    std::string source; ///< where the numbers came from (file path)
};

/** The schemes a measurement times: every registered core model, in
 *  registry (enum) order. */
std::vector<std::string> perfSchemeNames();

/** The grid label a (suite, quick) measurement reports: "fig5"[-quick]
 *  for spec2000 (the historical artifact name), else "<suite>"[-quick]. */
std::string perfGridName(const std::string &suite, bool quick);

/** The suite part of a grid label (strips a trailing "-quick"). */
std::string perfGridSuitePart(const std::string &grid);

/** Run the measurement (single-threaded; wall-clock medians). */
PerfReport runPerfHarness(const PerfOptions &options);

/**
 * Serialize @p report as the BENCH_perf.json artifact. When @p baseline
 * is present, the artifact records both numbers side by side plus the
 * speedup ratio current/baseline.
 */
std::string perfReportJson(const PerfReport &report,
                           const std::optional<PerfBaseline> &baseline);

/**
 * Read the headline numbers back out of a BENCH_perf.json produced by
 * perfReportJson() (the "replay"/"trace_gen" insts_per_sec fields).
 * Returns std::nullopt (with a warning) on unreadable input.
 */
std::optional<PerfBaseline> readPerfBaseline(const std::string &path);

} // namespace icfp

#endif // ICFP_SIM_PERF_HARNESS_HH
