/**
 * @file
 * The workload-suite registry: the second axis of the sweep grid.
 *
 * Mirrors the core-model registry (sim/core_registry.hh) on the workload
 * side: each suite is a named factory returning a vector of
 * BenchmarkSpecs, self-registered from its own translation unit by a
 * file-scope SuiteRegistrar. The CLI (`icfp-sim suites`, `--suite`), the
 * sweep engine's bench-name resolution, and the paper figures all
 * dispatch through this table, so adding a workload family is a
 * one-file plug-in — exactly like adding a core model:
 *
 * @code
 *   namespace {
 *   const SuiteRegistrar registerMySuite(
 *       "mysuite", "one-line description", [] {
 *           std::vector<BenchmarkSpec> suite;
 *           ...
 *           return suite;
 *       });
 *   } // namespace
 * @endcode
 *
 * Benchmark names form one global namespace: findBenchmark()
 * (workloads/spec_analogs.hh) resolves a name across every registered
 * suite, searching suites in sorted-name order. A name may appear in
 * several suites (the combined "nonspec" suite re-exports the family
 * suites' entries) but every occurrence must describe the identical
 * workload — the registry checks full generator identity (every
 * WorkloadParams knob plus the definition version) on lookup, so an
 * aliased name can never silently resolve to a different trace.
 *
 * NOTE for static linking: like the core registry, registration runs
 * from static initializers, so the suite object files must be linked in
 * (the build keeps the library a CMake OBJECT library for this reason).
 * Factories run lazily — first lookup, not static-init time — and the
 * built suite is memoized for the process lifetime.
 */

#ifndef ICFP_WORKLOADS_SUITE_REGISTRY_HH
#define ICFP_WORKLOADS_SUITE_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "workloads/spec_analogs.hh"

namespace icfp {

/** Builds one suite's benchmark list (called once, result memoized). */
using SuiteFactory = std::function<std::vector<BenchmarkSpec>()>;

/**
 * Process-wide table of workload suites, filled at static-init time by
 * the SuiteRegistrar objects in each family's translation unit.
 */
class SuiteRegistry
{
  public:
    static SuiteRegistry &instance();

    /** Register @p name; fatal on double registration. */
    void add(std::string name, std::string description,
             SuiteFactory factory);

    bool has(const std::string &name) const;

    /**
     * The built suite, or nullptr if @p name is unregistered. The
     * returned vector lives for the process lifetime. Thread-safe.
     */
    const std::vector<BenchmarkSpec> *maybeSuite(
        const std::string &name) const;

    /** The built suite; fatal if @p name is unregistered. */
    const std::vector<BenchmarkSpec> &suite(const std::string &name) const;

    /** One-line description; fatal if unregistered. */
    const std::string &description(const std::string &name) const;

    /** Registered suite names, sorted (deterministic listing order). */
    std::vector<std::string> names() const;

    /**
     * Resolve @p bench across every registered suite (sorted suite
     * order), or nullptr if no suite defines it. Duplicate definitions
     * across suites must be the identical generator (every
     * WorkloadParams knob plus defVersion) — a mismatch is a panic,
     * because it would mean one bench name maps to two different
     * golden traces.
     */
    const BenchmarkSpec *findBenchmark(const std::string &bench) const;

  private:
    SuiteRegistry() = default;

    struct Entry
    {
        std::string description;
        SuiteFactory factory;
        /** Built on first use; never replaced (stable addresses). */
        mutable std::unique_ptr<const std::vector<BenchmarkSpec>> built;
    };

    const std::vector<BenchmarkSpec> &buildLocked(const Entry &entry) const;

    /** std::map: sorted iteration gives the deterministic suite order
     *  every lookup and listing relies on. */
    std::map<std::string, Entry> entries_;
    mutable std::mutex mutex_; ///< guards lazy suite construction
};

/** File-scope self-registration hook for one workload suite. */
struct SuiteRegistrar
{
    SuiteRegistrar(std::string name, std::string description,
                   SuiteFactory factory);
};

/** The default suite every CLI command starts from. */
inline constexpr const char *kDefaultSuiteName = "spec2000";

/** Registry lookup; fatal (with the available names) if unknown. */
const std::vector<BenchmarkSpec> &findSuite(const std::string &name);

/** Registered suite names, sorted. */
std::vector<std::string> suiteNames();

} // namespace icfp

#endif // ICFP_WORKLOADS_SUITE_REGISTRY_HH
