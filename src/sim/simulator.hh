/**
 * @file
 * Top-level simulation driver: builds workloads, runs any registered
 * core model over the same golden trace, and bundles the scheme-specific
 * configurations the experiments sweep.
 *
 * This is the primary entry point of the library for examples and
 * the paper figures (sim/figures.hh):
 *
 * @code
 *   SimConfig cfg;                                  // Table 1 defaults
 *   Trace trace = makeBenchTrace(findBenchmark("mcf"), 200000);
 *   RunResult base = simulate(CoreKind::InOrder, cfg, trace);
 *   RunResult icfp = simulate(CoreKind::ICfp, cfg, trace);
 *   double speedup = percentSpeedup(base, icfp);
 * @endcode
 *
 * simulate() is a thin shim over the core-model registry
 * (sim/core_registry.hh): models self-register from their own
 * translation units, so this header includes no scheme-specific core
 * header and adding a model touches no driver code. Batch (grid)
 * execution lives in sim/sweep.hh.
 */

#ifndef ICFP_SIM_SIMULATOR_HH
#define ICFP_SIM_SIMULATOR_HH

#include <string>

#include "core/params.hh"
#include "isa/interpreter.hh"
#include "sim/core_registry.hh"
#include "workloads/spec_analogs.hh"

namespace icfp {

/**
 * Timing-model semantics version: bump whenever a change to the core
 * models, memory hierarchy, or branch predictors alters simulated
 * results for an unchanged config. Shard artifacts fold it into their
 * grid fingerprint (sim/merge.hh), so shards produced by binaries with
 * different simulator semantics refuse to merge into one report.
 * (Trace *generation* changes are versioned separately by
 * kTraceGenVersion in isa/trace_io.hh.)
 */
constexpr unsigned kSimSemanticsVersion = 1;

/** Build and functionally execute a benchmark analog. */
Trace makeBenchTrace(const BenchmarkSpec &spec,
                     uint64_t insts = kDefaultBenchInsts);

/** Run one core model over @p trace (registry dispatch). */
RunResult simulate(CoreKind kind, const SimConfig &config,
                   const Trace &trace);

/** Percent speedup of @p test over @p baseline (positive = faster). */
double percentSpeedup(const RunResult &baseline, const RunResult &test);

} // namespace icfp

#endif // ICFP_SIM_SIMULATOR_HH
