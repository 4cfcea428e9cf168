/**
 * @file
 * Synthetic analogs of the 24 SPEC2000 benchmarks the paper evaluates
 * (Table 2 lists the originals with their D$ / L2 miss rates).
 *
 * Each analog is a WorkloadParams configuration whose memory behaviour is
 * calibrated *qualitatively* against Table 2: which tier of the hierarchy
 * it stresses, whether its misses are independent (streaming — applu,
 * art, swim) or dependent (pointer-chasing — mcf, vpr, ammp), whether the
 * stream prefetcher helps, and how predictable its branches are. See
 * DESIGN.md's substitution table for why this preserves the paper's
 * comparisons.
 */

#ifndef ICFP_WORKLOADS_SPEC_ANALOGS_HH
#define ICFP_WORKLOADS_SPEC_ANALOGS_HH

#include <string>
#include <vector>

#include "workloads/kernels.hh"

namespace icfp {

/** One benchmark analog (an entry of a registered workload suite). */
struct BenchmarkSpec
{
    std::string name;     ///< the benchmark this stands in for
    bool isFp = false;    ///< SPECfp vs SPECint (for the geo-mean split)
    WorkloadParams workload;

    /**
     * Workload-definition version: BUMP whenever this benchmark's
     * generator parameters (or the kernel features it exercises) change
     * the trace it produces. The registry fingerprint
     * (sim/version_info.hh) and every trace-store key fold it in, so
     * editing a kernel can never silently serve a stale cached result
     * or golden trace. (Changes that affect
     * *every* benchmark — kernels.cc / interpreter semantics — are
     * covered by the global kTraceGenVersion instead.)
     */
    unsigned defVersion = 1;

    /** Paper Table 2 reference values (for EXPERIMENTS.md comparison). */
    double paperDcacheMissKi = 0.0;
    double paperL2MissKi = 0.0;
};

/**
 * The full 24-benchmark SPEC2000 suite in the paper's order (fp then
 * int). Registered as the "spec2000" suite — the default everywhere
 * (workloads/suite_registry.hh).
 */
const std::vector<BenchmarkSpec> &spec2000Suite();

/**
 * Look up one benchmark by name across every registered suite (the
 * global benchmark namespace — see SuiteRegistry::findBenchmark);
 * fatal if no suite defines it.
 */
const BenchmarkSpec &findBenchmark(const std::string &name);

/** Default dynamic instruction budget per benchmark run. */
constexpr uint64_t kDefaultBenchInsts = 200000;

} // namespace icfp

#endif // ICFP_WORKLOADS_SPEC_ANALOGS_HH
