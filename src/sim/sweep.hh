/**
 * @file
 * The parallel sweep engine: expands a (benchmark × core × config-
 * variant) grid, generates each golden trace exactly once per run
 * (shared across every model that replays it), executes the independent
 * jobs on a std::thread pool that frees each trace after its last cell,
 * and returns results in deterministic grid order regardless of thread
 * count.
 *
 * Determinism contract: each simulate() call is a pure function of
 * (CoreKind, SimConfig, Trace), trace generation is a pure function of
 * (workload params, instruction budget, seed), and results land in a slot
 * preallocated from the grid index — so a sweep's result vector (and any
 * CSV/JSON serialization of it, see sim/report.hh) is byte-identical for
 * `jobs == 1` and `jobs == N`. The paper figures (sim/figures.hh) and
 * the `icfp-sim sweep` subcommand all ride on this.
 *
 * The same contract extends across processes: every expanded job carries
 * a stable gridIndex, and ShardSpec/shardJobs() partition the grid into
 * `--shard i/N` slices whose emitted artifacts sim/merge.hh stitches back
 * into the byte-identical unsharded report — cluster-scale grids are just
 * N invocations plus one merge. Each process generates the golden traces
 * its slice needs: they are a pure function of (bench, insts, seed).
 *
 * @code
 *   SweepSpec spec;
 *   spec.benches = {"mcf", "equake"};
 *   spec.variants = {{"base", CoreKind::InOrder, SimConfig{}},
 *                    {"icfp", CoreKind::ICfp, SimConfig{}}};
 *   SweepEngine engine(8);                 // 8 worker threads
 *   std::vector<SweepResult> rs = engine.run(spec);
 *   // rs[b * spec.variants.size() + v] is bench b under variant v.
 * @endcode
 */

#ifndef ICFP_SIM_SWEEP_HH
#define ICFP_SIM_SWEEP_HH

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "sim/simulator.hh"

namespace icfp {

/** One configuration series of a sweep (a column of the paper figures). */
struct SweepVariant
{
    std::string label; ///< series name, e.g. "iCFP-all" or "l2=30/ra"
    CoreKind core = CoreKind::InOrder;
    SimConfig config{};
};

/** A full sweep request: the grid is benches × variants. */
struct SweepSpec
{
    std::vector<std::string> benches;  ///< benchmark analog names
    std::vector<SweepVariant> variants;
    uint64_t insts = kDefaultBenchInsts; ///< trace budget per benchmark
    std::optional<uint64_t> seed;        ///< workload RNG seed override
};

/** One expanded grid cell. */
struct SweepJob
{
    std::string bench;
    std::string variant; ///< the SweepVariant label
    CoreKind core = CoreKind::InOrder;
    SimConfig config{};
    /** Stable position in the full unsharded grid. Assigned by
     *  expandGrid() and preserved by shardJobs(), this is the global
     *  index sharding partitions and merging re-interleaves on. */
    size_t gridIndex = 0;
};

/**
 * One slice of a sharded grid: shard @p index of @p count runs exactly
 * the jobs whose gridIndex ≡ index (mod count). Round-robin assignment
 * keeps shards balanced even though the grid is bench-major (all of an
 * expensive benchmark's variants would otherwise land on one shard).
 */
struct ShardSpec
{
    unsigned index = 0; ///< 0-based shard index, < count
    unsigned count = 1; ///< total shards

    bool active() const { return count > 1; }
};

/** Upper bound on a grid split (sanity limit for CLI specs and shard
 *  artifact headers; far beyond any real cluster). */
constexpr unsigned kMaxShards = 100000;

/**
 * Parse a CLI shard spec "i/N" with 1 <= i <= N <= kMaxShards (1-based
 * on the command line, stored 0-based). Returns std::nullopt on
 * malformed or out-of-range input.
 */
std::optional<ShardSpec> parseShardSpec(const std::string &text);

/** "2/3": the 1-based "i/N" text parseShardSpec() reads — the notation
 *  of `--shard`, submit frames, artifact sources and diagnostics. */
std::string shardName(const ShardSpec &shard);

/** Row count shard @p shard owns in a @p grid_size grid. */
size_t shardRowCount(size_t grid_size, const ShardSpec &shard);

/** Filter expanded @p jobs to @p shard's subset (grid order kept). */
std::vector<SweepJob> shardJobs(const std::vector<SweepJob> &jobs,
                                const ShardSpec &shard);

/** One finished cell: the job echoed back plus its statistics. */
struct SweepResult
{
    std::string bench;
    std::string variant;
    CoreKind core = CoreKind::InOrder;
    RunResult result{};
};

/**
 * Expand @p spec into jobs in deterministic grid order: bench-major,
 * variant-minor (`jobs[b * variants.size() + v]`).
 */
std::vector<SweepJob> expandGrid(const SweepSpec &spec);

/** De-duplicate @p names preserving first-use order. */
std::vector<std::string> uniqueFirstUse(const std::vector<std::string> &names);

/**
 * Split a comma-separated list, dropping empty items ("a,,b" → {a, b}).
 * The one splitter behind every comma-list the grid layer accepts —
 * the CLI's --benches/--cores and the service daemon's submit fields
 * must agree on these semantics or identical requests would expand to
 * different grids.
 */
std::vector<std::string> splitCommaList(const std::string &list);

/**
 * Run fn(0..n-1) on up to @p jobs threads (jobs <= 1 runs inline).
 * Iterations are claimed from an atomic counter, so the assignment of
 * iterations to threads is racy — callers must write results only into
 * per-iteration slots. The first exception thrown by any iteration is
 * rethrown in the calling thread after all workers join.
 */
void parallelFor(size_t n, unsigned jobs,
                 const std::function<void(size_t)> &fn);

/**
 * Worker-thread count for harnesses: ICFP_SWEEP_JOBS if set (0 = one),
 * else std::thread::hardware_concurrency().
 */
unsigned defaultSweepJobs();

class TraceStore; // sim/trace_store.hh

namespace metrics {
class SpanLog; // common/metrics.hh
}

/**
 * Thrown by SweepEngine::run() when the caller's cancel flag is
 * observed set. Cancellation is cooperative and checked at row
 * boundaries (before each bench's trace and before each grid cell), so
 * a cancelled sweep stops within one simulate() call or one trace
 * generation and leaves the engine fully reusable. The run's traces are
 * freed with it; a trace it already wrote stays in the trace store,
 * which is never left with a partial file (its writes are atomic).
 * This flag is the groundwork for the federation item's straggler
 * re-dispatch: a re-dispatched row's original owner is cancelled
 * exactly this way.
 */
class SweepCancelled : public std::runtime_error
{
  public:
    SweepCancelled() : std::runtime_error("sweep cancelled") {}
};

/**
 * The batch runner. Reusable, and it holds no trace between run() calls:
 * run() frees each trace when that bench's last cell finishes, so a
 * sweep keeps at most jobs() traces in memory at once. Only trace()
 * caches by name, for callers that want a trace outside the grid; run()
 * borrows a trace trace() already holds but never adds one.
 *
 * Trace lookups go trace()'s cache → the TraceStore set with
 * setTraceStore(), if any → generation. A new engine has no store, and
 * only the benchmark harness attaches one.
 */
class SweepEngine
{
  public:
    /** @param jobs worker threads; 0 = hardware concurrency */
    explicit SweepEngine(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /** Attach (or detach, with nullptr) a persistent trace store,
     *  consulted before generating and written after. */
    void setTraceStore(std::shared_ptr<TraceStore> store);

    /** Golden traces generated (not served from memory or the store)
     *  over this engine's lifetime. */
    uint64_t traceGenerations() const;

    /** simulate() calls executed by run()/runOnTrace() over this
     *  engine's lifetime. Together with traceGenerations() this is the
     *  work ledger the service daemon reports per job: a result served
     *  from its ResultCache advances neither counter. */
    uint64_t replays() const;

    /** The most traces one run() has held at once over this engine's
     *  lifetime, borrowed ones included: at most jobs(). */
    uint64_t peakTracesHeld() const;

    /** Expand @p spec and run the whole grid; results in grid order. */
    std::vector<SweepResult> run(const SweepSpec &spec);

    /**
     * Run pre-expanded jobs; results in input order. One pool of jobs()
     * workers, no barrier: a worker replays a queued cell, or else takes
     * the next bench in first-use order, loads or generates its trace
     * exactly once and queues that bench's cells, which share the trace
     * read-only. A new trace starts only when no cell is queued, and each
     * is freed when its last cell finishes. The first error (a cancel, a
     * fault, a failed generation) stops every worker; all of them join
     * before it is rethrown.
     *
     * @param cancel optional cooperative cancel flag, polled at row
     *        boundaries; when observed set, run() throws SweepCancelled
     *        (see that class for the guarantees)
     * @param spans optional span log: when given, the engine records a
     *        "trace_gen" span, from the start until the last trace is
     *        ready (cells of earlier benches run inside it), and a
     *        "replay" span from there to the end — the service daemon's
     *        per-job Chrome trace rides on this. Purely observational:
     *        results and artifacts are byte-identical with or without it.
     */
    std::vector<SweepResult> run(const std::vector<SweepJob> &jobs,
                                 uint64_t insts,
                                 std::optional<uint64_t> seed = std::nullopt,
                                 const std::atomic<bool> *cancel = nullptr,
                                 metrics::SpanLog *spans = nullptr);

    /**
     * Run every variant over one explicit (e.g. file-loaded) trace,
     * bypassing the bench-name trace cache; results in variant order,
     * labeled with @p bench_label.
     */
    std::vector<SweepResult> runOnTrace(const Trace &trace,
                                        const std::vector<SweepVariant> &variants,
                                        const std::string &bench_label);

    /**
     * The cached golden trace for @p bench (loading or generating it on
     * first use). The reference stays valid for the engine's lifetime,
     * and a later run() over the same bench borrows it instead of
     * generating again: ask for a trace before run() to keep it after.
     */
    const Trace &trace(const std::string &bench, uint64_t insts,
                       std::optional<uint64_t> seed = std::nullopt);

  private:
    /** (bench, insts, has-seed-override, seed value). The explicit
     *  has-seed flag keeps every seed value usable (no sentinel). */
    using TraceKey = std::tuple<std::string, uint64_t, bool, uint64_t>;

    /** trace()'s cached copy of @p key, or null; thread-safe. */
    std::shared_ptr<const Trace> cachedTrace(const TraceKey &key);

    /** The trace for @p key from the store, else generated (and then
     *  written to the store); caches nothing. Thread-safe. */
    std::shared_ptr<const Trace> loadOrGenerate(const TraceKey &key);

    /** Replay one grid cell on @p trace and bump the replay ledgers
     *  (replays(), icfp_replays, the per-cell duration histogram). */
    SweepResult replayCell(const SweepJob &job, const Trace &trace);

    unsigned jobs_;
    mutable std::mutex mutex_; ///< guards traces_ and peakHeld_
    std::map<TraceKey, std::shared_ptr<const Trace>> traces_; ///< trace()'s
    uint64_t peakHeld_ = 0;
    std::shared_ptr<TraceStore> store_;
    std::atomic<uint64_t> generations_{0};
    std::atomic<uint64_t> replays_{0};
};

} // namespace icfp

#endif // ICFP_SIM_SWEEP_HH
