/**
 * @file
 * icfp-sim — command-line driver for the simulation library.
 *
 * Verbs:
 *   list      show one workload suite's benchmarks
 *   suites    show the registered workload suites
 *   cores     show the registered core models
 *   run       run one model on one benchmark, print full statistics
 *   compare   run every model on one benchmark
 *   suite     run one model over a whole suite
 *   sweep     run a (bench × core) grid; reports are byte-identical for
 *             any --jobs, and --shard i/N emits one slice of the grid
 *   merge     stitch `sweep --shard` artifacts back into the
 *             byte-identical unsharded report
 *   perf      measure simulator throughput over one suite's grid;
 *             emits BENCH_perf.json (see sim/perf_harness.hh)
 *   figure    regenerate paper figures and tables by name
 *             (sim/figures.hh); csv/json emit the grid behind them
 *   trace     generate and save a golden trace
 *   disasm    print the first N dynamic instructions of a trace
 *   version   sim + registry identity as JSON (the service handshake /
 *             result-cache blob)
 *   serve     run the simulation service daemon (service/server.hh);
 *             with --peers it coordinates a federation
 *             (service/federation/)
 *   submit    submit a sweep job to a daemon; the fetched artifact is
 *             byte-identical to `icfp-sim sweep` with the same options
 *   status    one job's state, or (without --job) the daemon's own:
 *             queue occupancy and per-peer health
 *   result    fetch one job's artifact
 *   cancel    cancel a queued or running job
 *   ping      handshake + round-trip latency check
 *   metrics   scrape the daemon's metrics registry (Prometheus text, or
 *             flat JSON with --json); a federation coordinator's scrape
 *             is always the fleet rollup, every healthy peer's metrics
 *             merged in with a peer="<spec>" label
 *
 * Which options each verb accepts is the kOptions table below; running
 * icfp-sim with no arguments prints it per verb. An option a verb does
 * not read is refused, never ignored; so is a combination kRules names
 * (e.g. --insts with --load-trace).
 *
 * Exit status: 0 on success, 1 on usage errors.
 */

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/logging.hh"
#include "icfp/poison.hh"
#include "isa/trace_io.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "sim/figures.hh"
#include "sim/merge.hh"
#include "sim/perf_harness.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "sim/trace_store.hh"
#include "sim/version_info.hh"
#include "workloads/nonspec_suites.hh"
#include "workloads/suite_registry.hh"

namespace {

using namespace icfp;

struct Options;
struct VerbSpec;

/** The Options member an option sets. */
using Field = std::variant<bool Options::*, std::string Options::*,
                           uint64_t Options::*>;

/** Parsed command line. Fields hold defaults until their option is given. */
struct Options
{
    const VerbSpec *verb = nullptr;
    uint64_t seen = 0; ///< bit i set: kOptions[i] was given

    /** Whether the option that sets @p field was given. */
    bool given(Field field) const;

    /** @p field's value if its option was given. */
    template <typename T>
    std::optional<T>
    ifGiven(T Options::*field) const
    {
        return given(field) ? std::optional<T>(this->*field) : std::nullopt;
    }

    std::string bench = "mcf";
    std::string core = "icfp";
    std::string suite = kDefaultSuiteName;
    uint64_t insts = kDefaultBenchInsts;
    uint64_t seed = 0;
    uint64_t l2Latency = 0;
    uint64_t memLatency = 0;
    uint64_t poisonBits = 0;
    std::string trigger;
    bool blockingRally = false;
    bool noMtRally = false;
    std::string loadTrace;
    std::string saveTrace;
    uint64_t disasmCount = 32;

    // Sweep-engine options.
    uint64_t jobs = 0; ///< given 0 is read as 1; absent = defaultSweepJobs()
    std::string benches = "all";
    std::string cores = "all";
    std::string format = "table";
    std::string out;
    std::string shard;
    std::string traceDir;

    // Service and federation options.
    std::string socket;
    uint64_t queueDepth = 8;
    std::string cacheDir;
    uint64_t deadlineSec = 0;
    std::string listenTcp; ///< extra TCP listener, "host:port"
    std::string peers;     ///< comma list of peer endpoints
    uint64_t sliceDeadlineSec = 0;
    std::string jobTraceDir;
    bool wait = false;
    bool trace = false;
    uint64_t jobId = 0;
    bool json = false;
    uint64_t timeoutSec = 0;
    uint64_t retries = 0;

    // Perf options.
    bool quick = false;
    uint64_t reps = 3; ///< given 0 is read as 1
    uint64_t warmup = 1;
    std::string baseline;

    std::vector<std::string> inputs; ///< positional operands (merge shards)
};

/** One verb: what runs it and what it cannot run without. */
struct VerbSpec
{
    const char *name;
    uint32_t bit;
    int (*run)(const Options &);
    std::vector<Field> required = {};
    const char *operands = nullptr; ///< positional operands, if it takes any
};

// Verbs as bits, so one option row names every verb that reads it.
constexpr uint32_t kList = 1u << 0, kSuites = 1u << 1, kCores = 1u << 2,
                   kRun = 1u << 3, kCompare = 1u << 4, kSuite = 1u << 5,
                   kSweep = 1u << 6, kMerge = 1u << 7, kPerf = 1u << 8,
                   kTrace = 1u << 9, kDisasm = 1u << 10, kVersion = 1u << 11,
                   kServe = 1u << 12, kSubmit = 1u << 13, kStatus = 1u << 14,
                   kResult = 1u << 15, kCancel = 1u << 16, kPing = 1u << 17,
                   kMetrics = 1u << 18, kFigure = 1u << 19;
/** Verbs that build (or load) one golden trace via makeTrace(). */
constexpr uint32_t kOneTrace = kRun | kCompare | kTrace | kDisasm;
/** Verbs that run on the parallel sweep engine. */
constexpr uint32_t kEngine = kCompare | kSuite | kSweep;
/** Verbs that apply the SimConfig overrides (makeConfig()). */
constexpr uint32_t kConfigured = kRun | kEngine;
constexpr uint32_t kClient =
    kSubmit | kStatus | kResult | kCancel | kPing | kMetrics;
constexpr uint32_t kService = kServe | kClient;

/** How an option's value is checked before it is stored. */
enum class Kind
{
    Flag, ///< takes no value
    Text, ///< any string
    Path, ///< non-empty: an empty one (an unset shell variable) would
          ///< scatter files into the CWD or name no endpoint
    Uint, ///< a whole unsigned integer within [lo, hi]
    Enum, ///< one of the '|'-separated words in meta
};

constexpr uint64_t kU32 = UINT32_MAX; ///< for values read as `unsigned`
constexpr uint64_t kU64 = UINT64_MAX;

/** One command-line option: the only place its verbs are listed. */
struct OptionSpec
{
    const char *name;
    Kind kind;
    Field field;
    uint32_t verbs;        ///< the verbs whose cmd* function reads it
    const char *meta = ""; ///< usage() placeholder; Enum: the accepted words
    uint64_t lo = 0;       ///< Uint range
    uint64_t hi = kU64;
    /** Why a service verb refuses it, beyond which verbs accept it. */
    const char *serviceWhy = nullptr;
};

// The daemon runs every variant at Table 1 defaults; accepting a config
// override and ignoring it would return silently wrong data under the
// submit==sweep byte-identity promise.
constexpr const char *kNoOverrides =
    "config overrides are not supported over the service; use 'sweep'";

const OptionSpec kOptions[] = {
    {"--bench", Kind::Text, &Options::bench, kOneTrace, "B"},
    {"--core", Kind::Text, &Options::core, kRun | kSuite, "C"},
    {"--suite", Kind::Text, &Options::suite,
     kList | kEngine | kPerf | kSubmit, "S"},
    // 0 simulates nothing, and compare and figure divide by cycles.
    {"--insts", Kind::Uint, &Options::insts,
     kOneTrace | kEngine | kPerf | kSubmit | kFigure, "N", 1},
    {"--seed", Kind::Uint, &Options::seed, kOneTrace | kEngine | kSubmit,
     "S"},
    {"--l2-lat", Kind::Uint, &Options::l2Latency, kConfigured, "N", 0, kU64,
     kNoOverrides},
    {"--mem-lat", Kind::Uint, &Options::memLatency, kConfigured, "N", 0,
     kU64, kNoOverrides},
    {"--poison-bits", Kind::Uint, &Options::poisonBits, kConfigured, "N", 1,
     kMaxPoisonBits, kNoOverrides},
    {"--trigger", Kind::Enum, &Options::trigger, kConfigured, "none|l2|any",
     0, 0, kNoOverrides},
    {"--blocking-rally", Kind::Flag, &Options::blockingRally, kConfigured,
     "", 0, 0, kNoOverrides},
    {"--no-mt-rally", Kind::Flag, &Options::noMtRally, kConfigured, "", 0,
     0, kNoOverrides},
    // `trace` with a loaded trace would never write its --save-trace.
    {"--load-trace", Kind::Path, &Options::loadTrace,
     kOneTrace & ~kTrace, "FILE"},
    {"--save-trace", Kind::Path, &Options::saveTrace, kOneTrace, "FILE"},
    {"--n", Kind::Uint, &Options::disasmCount, kDisasm, "N"},

    {"--jobs", Kind::Uint, &Options::jobs, kEngine | kServe | kFigure, "N",
     0, kU32,
     "parallelism is the daemon's ('serve --jobs'), not a client's"},
    {"--benches", Kind::Text, &Options::benches, kSweep | kPerf | kSubmit,
     "A,B"},
    {"--cores", Kind::Text, &Options::cores, kSweep | kSubmit, "X,Y"},
    {"--format", Kind::Enum, &Options::format, kSweep | kSubmit | kFigure,
     "table|csv|json"},
    {"--out", Kind::Path, &Options::out,
     kSweep | kMerge | kPerf | kSubmit | kResult | kFigure, "FILE"},
    {"--shard", Kind::Text, &Options::shard, kSweep, "i/N"},
    {"--trace-dir", Kind::Path, &Options::traceDir,
     kEngine | kServe | kFigure, "DIR"},

    {"--socket", Kind::Path, &Options::socket, kService, "PATH"},
    {"--queue-depth", Kind::Uint, &Options::queueDepth, kServe, "K", 1},
    {"--cache-dir", Kind::Path, &Options::cacheDir, kServe, "DIR"},
    {"--deadline-sec", Kind::Uint, &Options::deadlineSec, kServe | kSubmit,
     "SEC"},
    {"--listen-tcp", Kind::Path, &Options::listenTcp, kServe, "H:P"},
    {"--peers", Kind::Path, &Options::peers, kServe, "A,B"},
    {"--slice-deadline-sec", Kind::Uint, &Options::sliceDeadlineSec, kServe,
     "SEC"},
    {"--job-trace-dir", Kind::Path, &Options::jobTraceDir, kServe, "DIR"},
    {"--wait", Kind::Flag, &Options::wait, kSubmit},
    {"--trace", Kind::Flag, &Options::trace, kSubmit},
    {"--job", Kind::Uint, &Options::jobId, kStatus | kResult | kCancel, "N"},
    {"--json", Kind::Flag, &Options::json, kStatus | kMetrics},
    {"--timeout", Kind::Uint, &Options::timeoutSec, kClient, "SEC", 0, kU32},
    {"--retries", Kind::Uint, &Options::retries, kClient, "N", 0, kU32},

    {"--quick", Kind::Flag, &Options::quick, kPerf},
    {"--reps", Kind::Uint, &Options::reps, kPerf, "N", 0, kU32},
    {"--warmup", Kind::Uint, &Options::warmup, kPerf, "N", 0, kU32},
    {"--baseline", Kind::Path, &Options::baseline, kPerf, "FILE"},
};
static_assert(std::size(kOptions) <= 64, "Options::seen is 64 bits");

/** Two options @p verbs each read, refused in a combination where one
 *  would be silently ignored: @p option needs @p other (needsOther), or
 *  excludes it. */
struct OptionRule
{
    Field option;
    Field other;
    bool needsOther;
    uint32_t verbs;
    const char *why;
};

const OptionRule kRules[] = {
    {&Options::insts, &Options::loadTrace, false, kOneTrace,
     "a loaded trace has its own length"},
    {&Options::seed, &Options::loadTrace, false, kOneTrace,
     "a loaded trace has its own workload seed"},
    {&Options::saveTrace, &Options::loadTrace, false, kOneTrace,
     "a loaded trace is not saved again"},
    {&Options::bench, &Options::loadTrace, false, kRun | kDisasm,
     "a loaded trace is not generated from a benchmark"},
    {&Options::traceDir, &Options::loadTrace, false, kCompare,
     "a loaded trace does not go through the trace store"},
    {&Options::out, &Options::wait, true, kSubmit,
     "without it no artifact is fetched"},
};

const OptionSpec &
optionFor(Field field)
{
    for (const OptionSpec &spec : kOptions) {
        if (spec.field == field)
            return spec;
    }
    ICFP_PANIC("Options field without a kOptions row");
}

bool
Options::given(Field field) const
{
    return (seen >> (&optionFor(field) - kOptions)) & 1;
}

/** Sweep-engine worker threads: --jobs (0 read as 1), else the default. */
unsigned
engineJobs(const Options &opt)
{
    return opt.given(&Options::jobs)
               ? static_cast<unsigned>(std::max<uint64_t>(opt.jobs, 1))
               : 0;
}

/**
 * The config-shaping options as a canonical string for the sweep grid
 * fingerprint: makeConfig() bakes these into every variant without
 * renaming it, so two shards run with different overrides would
 * otherwise look mergeable.
 */
std::string
configIdentity(const Options &opt)
{
    auto number = [&](uint64_t Options::*field) {
        return opt.given(field) ? std::to_string(opt.*field) : "-";
    };
    std::string id = "l2=" + number(&Options::l2Latency);
    id += " mem=" + number(&Options::memLatency);
    id += " pb=" + number(&Options::poisonBits);
    id += " trig=";
    id += opt.given(&Options::trigger) ? opt.trigger : "-";
    id += opt.blockingRally ? " blocking-rally" : "";
    id += opt.noMtRally ? " no-mt-rally" : "";
    return id;
}

/** Apply option overrides onto a default SimConfig. */
SimConfig
makeConfig(const Options &opt)
{
    SimConfig cfg;
    if (opt.given(&Options::l2Latency))
        cfg.mem.l2HitLatency = opt.l2Latency;
    if (opt.given(&Options::memLatency))
        cfg.mem.memory.accessLatency = opt.memLatency;
    if (opt.given(&Options::poisonBits)) {
        cfg.icfp.poisonBits = static_cast<unsigned>(opt.poisonBits);
        cfg.mem.poisonBits = static_cast<unsigned>(opt.poisonBits);
    }
    if (opt.given(&Options::trigger)) {
        AdvanceTrigger t = AdvanceTrigger::AnyDcache; // "any"
        if (opt.trigger == "none")
            t = AdvanceTrigger::None;
        else if (opt.trigger == "l2")
            t = AdvanceTrigger::L2Only;
        cfg.icfp.trigger = t;
        cfg.runahead.trigger = t;
    }
    if (opt.blockingRally)
        cfg.icfp.nonBlockingRally = false;
    if (opt.noMtRally)
        cfg.icfp.multithreadedRally = false;
    return cfg;
}

/** Build (or load) the golden trace per the options. */
Trace
makeTrace(const Options &opt)
{
    if (opt.given(&Options::loadTrace))
        return loadTraceFile(opt.loadTrace);
    BenchmarkSpec spec = findBenchmark(opt.bench);
    if (opt.given(&Options::seed))
        spec.workload.seed = opt.seed;
    Trace trace = makeBenchTrace(spec, opt.insts);
    if (opt.given(&Options::saveTrace))
        saveTraceFile(opt.saveTrace, trace);
    return trace;
}

/** Resolve --benches: "all" means the whole --suite. */
std::vector<std::string>
resolveBenches(const std::string &list, const std::string &suite)
{
    if (list == "all") {
        std::vector<std::string> names;
        for (const BenchmarkSpec &spec : findSuite(suite))
            names.push_back(spec.name);
        return names;
    }
    return splitCommaList(list);
}

/** Resolve --cores: "all" means every registered model. */
std::vector<CoreKind>
resolveCores(const std::string &list)
{
    if (list == "all")
        return CoreRegistry::instance().kinds();
    std::vector<CoreKind> kinds;
    for (const std::string &name : splitCommaList(list)) {
        const auto kind = parseCoreKind(name);
        if (!kind)
            ICFP_FATAL("unknown core '%s'", name.c_str());
        kinds.push_back(*kind);
    }
    return kinds;
}

/** One variant per core kind, all sharing the option-derived config. */
std::vector<SweepVariant>
coreVariants(const std::vector<CoreKind> &kinds, const SimConfig &cfg)
{
    std::vector<SweepVariant> variants;
    for (const CoreKind kind : kinds)
        variants.push_back({coreKindName(kind), kind, cfg});
    return variants;
}

/** Apply --trace-dir (overriding the ICFP_TRACE_DIR directory; the
 *  ICFP_TRACE_DIR_MAX_MB cap still applies). */
void
applyTraceDir(SweepEngine &engine, const Options &opt)
{
    if (opt.given(&Options::traceDir)) {
        engine.setTraceStore(std::make_shared<TraceStore>(
            opt.traceDir, TraceStore::maxBytesFromEnv()));
    }
}

/** One greppable stderr line of trace-store traffic (the observable
 *  hit/miss counter: a warm store shows misses=0 generations=0). */
void
printStoreStats(const SweepEngine &engine)
{
    const TraceStore *store = engine.traceStore();
    if (!store)
        return;
    const TraceStore::Stats s = store->stats();
    std::fprintf(stderr,
                 "icfp-sim: trace store hits=%llu misses=%llu "
                 "writes=%llu corrupt=%llu evictions=%llu "
                 "generations=%llu dir=%s\n",
                 (unsigned long long)s.hits, (unsigned long long)s.misses,
                 (unsigned long long)s.writes,
                 (unsigned long long)s.corrupt,
                 (unsigned long long)s.evictions,
                 (unsigned long long)engine.traceGenerations(),
                 store->dir().c_str());
}

/** Check that --out (if given) is writable before any work is done. The
 *  probe opens in append mode, so it never truncates an existing report;
 *  emitPayload() rewrites the file once there is something to write. */
bool
outWritable(const Options &opt)
{
    if (!opt.given(&Options::out))
        return true;
    std::FILE *f = std::fopen(opt.out.c_str(), "a");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", opt.out.c_str());
        return false;
    }
    std::fclose(f);
    return true;
}

/** Write @p text to --out, or to stdout without it. */
int
emitPayload(const Options &opt, const std::string &text)
{
    if (!opt.given(&Options::out)) {
        std::fputs(text.c_str(), stdout);
        return 0;
    }
    std::FILE *f = std::fopen(opt.out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", opt.out.c_str());
        return 1;
    }
    std::fputs(text.c_str(), f);
    std::fclose(f);
    return 0;
}

/**
 * Emit a sweep report per --format/--out: the human table, or the
 * sweepArtifact() csv/json (a mergeable shard artifact with @p shard).
 */
int
emitSweep(const Options &opt, const std::optional<ShardSpec> &shard,
          const std::vector<SweepResult> &results, uint64_t grid_rows,
          uint64_t grid_fp)
{
    std::string text;
    if (opt.format != "table") {
        text = sweepArtifact(results, opt.format, shard, grid_rows, grid_fp);
    } else {
        Table t("Sweep results (" + std::to_string(results.size()) +
                " runs)");
        t.setColumns({"bench/variant", "IPC", "D$ miss/KI", "L2 miss/KI",
                      "D$ MLP", "L2 MLP", "rally/KI"});
        for (const SweepResult &r : results) {
            t.addRow(r.bench + "/" + r.variant,
                     {r.result.ipc(),
                      r.result.missPerKi(r.result.mem.dcacheMisses),
                      r.result.missPerKi(r.result.mem.l2Misses),
                      r.result.dcacheMlp, r.result.l2Mlp,
                      r.result.rallyPerKi()},
                     2);
        }
        text = t.str();
    }
    if (emitPayload(opt, text) != 0)
        return 1;
    if (opt.given(&Options::out)) {
        std::printf("wrote %zu runs to %s\n", results.size(),
                    opt.out.c_str());
    }
    return 0;
}

void
printResult(const RunResult &r)
{
    Table t("Run statistics: " + r.core);
    t.setColumns({"metric", "value"});
    t.addRow("instructions", {double(r.instructions)}, 0);
    t.addRow("cycles", {double(r.cycles)}, 0);
    t.addRow("IPC", {r.ipc()}, 3);
    t.addRow("D$ misses/KI", {r.missPerKi(r.mem.dcacheMisses)}, 2);
    t.addRow("L2 misses/KI", {r.missPerKi(r.mem.l2Misses)}, 2);
    t.addRow("D$ MLP", {r.dcacheMlp}, 2);
    t.addRow("L2 MLP", {r.l2Mlp}, 2);
    t.addRow("prefetch hits", {double(r.mem.prefetchHits)}, 0);
    t.addRow("cond mispredicts", {double(r.branch.condMispredicts)}, 0);
    t.addRow("advance entries", {double(r.advanceEntries)}, 0);
    t.addRow("advance insts", {double(r.advanceInsts)}, 0);
    t.addRow("sliced insts", {double(r.slicedInsts)}, 0);
    t.addRow("rally passes", {double(r.rallyPasses)}, 0);
    t.addRow("rally insts/KI", {r.rallyPerKi()}, 1);
    t.addRow("squashes", {double(r.squashes)}, 0);
    t.addRow("simple-RA entries", {double(r.simpleRaEntries)}, 0);
    t.addRow("SB excess hops/load",
             {r.sbChainLoads ? double(r.sbExcessHops) / double(r.sbChainLoads)
                             : 0.0},
             3);
    t.print();
}

int
cmdList(const Options &opt)
{
    Table t("Benchmark analogs (paper Table 2 reference miss rates)");
    t.setColumns({"bench", "fp?", "paper D$/KI", "paper L2/KI"});
    for (const BenchmarkSpec &spec : findSuite(opt.suite)) {
        t.addRow(spec.name,
                 {spec.isFp ? 1.0 : 0.0, spec.paperDcacheMissKi,
                  spec.paperL2MissKi},
                 0);
    }
    t.print();
    return 0;
}

int
cmdSuites(const Options &)
{
    std::printf("registered workload suites:\n");
    for (const std::string &name : suiteNames()) {
        const SuiteRegistry &registry = SuiteRegistry::instance();
        std::printf("  %-10s %2zu benches  %s\n", name.c_str(),
                    registry.suite(name).size(),
                    registry.description(name).c_str());
    }
    return 0;
}

int
cmdCores(const Options &)
{
    std::printf("registered core models:\n");
    for (const CoreKind kind : CoreRegistry::instance().kinds())
        std::printf("  %s\n", coreKindName(kind));
    return 0;
}

int
cmdRun(const Options &opt)
{
    const auto kind = parseCoreKind(opt.core);
    if (!kind) {
        std::fprintf(stderr, "unknown core '%s'\n", opt.core.c_str());
        return 1;
    }
    const Trace trace = makeTrace(opt);
    const SimConfig cfg = makeConfig(opt);
    printResult(simulate(*kind, cfg, trace));
    return 0;
}

int
cmdCompare(const Options &original)
{
    Options opt = original;
    // --suite selects the benchmark namespace: without an explicit
    // --bench, compare the models on the suite's first benchmark.
    if (opt.given(&Options::suite) && !opt.given(&Options::bench))
        opt.bench = findSuite(opt.suite).front().name;
    const SimConfig cfg = makeConfig(opt);
    const std::vector<SweepVariant> variants =
        coreVariants(CoreRegistry::instance().kinds(), cfg);

    SweepEngine engine(engineJobs(opt));
    applyTraceDir(engine, opt);
    std::vector<SweepResult> results;
    if (opt.given(&Options::loadTrace)) {
        const Trace trace = makeTrace(opt);
        results = engine.runOnTrace(trace, variants, opt.bench);
    } else {
        SweepSpec spec;
        spec.benches = {opt.bench};
        spec.variants = variants;
        spec.insts = opt.insts;
        spec.seed = opt.ifGiven(&Options::seed);
        results = engine.run(spec);
        if (opt.given(&Options::saveTrace))
            saveTraceFile(opt.saveTrace,
                          engine.trace(opt.bench, opt.insts, spec.seed));
        printStoreStats(engine);
    }

    Table t("All models on " + opt.bench);
    t.setColumns({"core", "IPC", "speedup %", "D$ MLP", "L2 MLP",
                  "rally/KI"});
    const RunResult &base = results.front().result; // in-order is first
    for (const SweepResult &sr : results) {
        const RunResult &r = sr.result;
        t.addRow(sr.variant,
                 {r.ipc(), percentSpeedup(base, r), r.dcacheMlp, r.l2Mlp,
                  r.rallyPerKi()},
                 2);
    }
    t.print();
    return 0;
}

int
cmdSuite(const Options &opt)
{
    const auto kind = parseCoreKind(opt.core);
    if (!kind) {
        std::fprintf(stderr, "unknown core '%s'\n", opt.core.c_str());
        return 1;
    }
    SweepSpec spec;
    spec.benches = resolveBenches("all", opt.suite);
    spec.variants = {{opt.core, *kind, makeConfig(opt)}};
    spec.insts = opt.insts;
    spec.seed = opt.ifGiven(&Options::seed);

    SweepEngine engine(engineJobs(opt));
    applyTraceDir(engine, opt);
    const std::vector<SweepResult> results = engine.run(spec);
    printStoreStats(engine);

    Table t("Suite results: " + opt.core);
    t.setColumns({"bench", "IPC", "D$ miss/KI", "L2 miss/KI", "D$ MLP",
                  "L2 MLP"});
    for (const SweepResult &sr : results) {
        const RunResult &r = sr.result;
        t.addRow(sr.bench,
                 {r.ipc(), r.missPerKi(r.mem.dcacheMisses),
                  r.missPerKi(r.mem.l2Misses), r.dcacheMlp, r.l2Mlp},
                 2);
    }
    t.print();
    return 0;
}

int
cmdSweep(const Options &opt)
{
    std::optional<ShardSpec> shard;
    if (opt.given(&Options::shard)) {
        shard = parseShardSpec(opt.shard);
        if (!shard) {
            std::fprintf(stderr,
                         "bad --shard '%s' (want i/N with 1 <= i <= N)\n",
                         opt.shard.c_str());
            return 1;
        }
    }
    // Validate the output sink before burning grid time.
    if (shard && opt.format == "table") {
        std::fprintf(stderr,
                     "--shard emits a mergeable artifact; use "
                     "--format csv or json\n");
        return 1;
    }
    SweepSpec spec;
    spec.benches = resolveBenches(opt.benches, opt.suite);
    // Validate names before touching the output file (findBenchmark is
    // fatal on a typo, and must not cost the user an existing report).
    for (const std::string &bench : spec.benches)
        findBenchmark(bench);
    spec.variants = coreVariants(resolveCores(opt.cores), makeConfig(opt));
    spec.insts = opt.insts;
    spec.seed = opt.ifGiven(&Options::seed);
    if (!outWritable(opt))
        return 1;

    const std::vector<SweepJob> grid = expandGrid(spec);
    const std::vector<SweepJob> jobs = shard ? shardJobs(grid, *shard) : grid;

    SweepEngine engine(engineJobs(opt));
    applyTraceDir(engine, opt);
    const std::vector<SweepResult> results =
        engine.run(jobs, spec.insts, spec.seed);
    printStoreStats(engine);
    return emitSweep(opt, shard, results, grid.size(),
                     gridFingerprint(grid, spec.insts, spec.seed,
                                     configIdentity(opt)));
}

int
cmdMerge(const Options &opt)
{
    if (opt.inputs.empty()) {
        std::fprintf(stderr,
                     "merge: give the shard artifact files to merge\n");
        return 1;
    }
    std::string text;
    try {
        text = mergeShardFiles(opt.inputs);
    } catch (const MergeError &e) {
        std::fprintf(stderr, "merge: %s\n", e.what());
        return 1;
    }
    return emitPayload(opt, text);
}

/**
 * Run the named figures on one engine and print their tables, or with
 * --format csv|json the sweep artifact of their grids, concatenated.
 * Each figure fixes its own configs, so kConfigured options are not
 * accepted here.
 */
int
cmdFigure(const Options &opt)
{
    std::vector<const Figure *> chosen;
    for (const std::string &name : opt.inputs) {
        chosen.push_back(findFigure(name));
        if (!chosen.back()) {
            std::fprintf(stderr, "figure: unknown figure '%s'\n",
                         name.c_str());
            break;
        }
    }
    if (chosen.empty() || !chosen.back()) {
        std::string names;
        for (const Figure &figure : figures())
            names += std::string(names.empty() ? "" : " ") + figure.name;
        std::fprintf(stderr, "figure: figures are: %s\n", names.c_str());
        return 1;
    }
    if (!outWritable(opt))
        return 1;

    SweepEngine engine(engineJobs(opt));
    applyTraceDir(engine, opt);
    FigureOutput all;
    for (const Figure *figure : chosen) {
        FigureOutput out = figure->run(engine, opt.insts);
        std::move(out.tables.begin(), out.tables.end(),
                  std::back_inserter(all.tables));
        std::move(out.grid.begin(), out.grid.end(),
                  std::back_inserter(all.grid));
    }
    printStoreStats(engine);
    return emitPayload(opt, opt.format == "table"
                                ? figureText(all)
                                : sweepArtifact(all.grid, opt.format,
                                                std::nullopt, 0, 0));
}

int
cmdPerf(const Options &opt)
{
    PerfOptions perf;
    perf.suite = opt.suite;
    perf.quick = opt.quick;
    perf.reps = opt.given(&Options::reps)
                    ? static_cast<unsigned>(std::max<uint64_t>(opt.reps, 1))
                    : (opt.quick ? 1 : 3);
    perf.warmup = opt.given(&Options::warmup)
                      ? static_cast<unsigned>(opt.warmup)
                      : (opt.quick ? 0 : 1);
    perf.insts = opt.given(&Options::insts) ? opt.insts
                                            : (opt.quick ? 20000 : 100000);
    if (opt.benches != "all")
        perf.benches = splitCommaList(opt.benches);

    std::optional<PerfBaseline> baseline;
    if (opt.given(&Options::baseline)) {
        baseline = readPerfBaseline(opt.baseline);
        if (!baseline)
            return 1; // a requested comparison that can't happen is an error
        // Refuse a cross-suite comparison: a "speedup" of nonspec
        // pointer-chasing over the fig5 SPEC grid is meaningless, and
        // would be baked into the emitted artifact as if measured.
        // (quick vs full of the SAME suite is allowed — that is a
        // budget difference, the classic before/after workflow.)
        const std::string current =
            perfGridSuitePart(perfGridName(opt.suite, opt.quick));
        if (!baseline->grid.empty() &&
            perfGridSuitePart(baseline->grid) != current) {
            std::fprintf(stderr,
                         "perf: baseline %s measured grid '%s' but this "
                         "run is '%s'; rerun with a matching --suite\n",
                         opt.baseline.c_str(), baseline->grid.c_str(),
                         current.c_str());
            return 1;
        }
        // Refuse a different core set too: the headline replay ratio
        // sums over every scheme, so it would mix different models.
        const std::vector<std::string> schemes = perfSchemeNames();
        if (std::set<std::string>(baseline->schemes.begin(),
                                  baseline->schemes.end()) !=
            std::set<std::string>(schemes.begin(), schemes.end())) {
            const auto join = [](const std::vector<std::string> &names) {
                std::string text;
                for (const std::string &name : names)
                    text += (text.empty() ? "" : ",") + name;
                return "{" + text + "}";
            };
            std::fprintf(stderr,
                         "perf: baseline %s measured schemes %s but this "
                         "run measures %s; remeasure the baseline with "
                         "this scheme set\n",
                         opt.baseline.c_str(),
                         join(baseline->schemes).c_str(),
                         join(schemes).c_str());
            return 1;
        }
    }

    const PerfReport report = runPerfHarness(perf);
    const std::string json = perfReportJson(report, baseline);

    const std::string out_path =
        opt.ifGiven(&Options::out).value_or("BENCH_perf.json");
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);

    // Human-readable summary on stdout; the artifact holds the details.
    Table t("Simulator throughput (" + report.grid + ", " +
            std::to_string(report.instsPerBench) + " insts/bench, median of " +
            std::to_string(report.reps) + ")");
    t.setColumns({"stage", "Minsts/s"});
    t.addRow("trace gen", {report.genInstsPerSec / 1e6}, 2);
    for (const PerfSchemeStat &st : report.schemes)
        t.addRow("replay " + st.scheme, {st.instsPerSec / 1e6}, 2);
    t.addRow("replay overall", {report.replayInstsPerSec / 1e6}, 2);
    t.print();
    if (baseline && baseline->replayInstsPerSec > 0.0) {
        std::printf("replay speedup vs baseline: %.2fx\n",
                    report.replayInstsPerSec / baseline->replayInstsPerSec);
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}

int
cmdTrace(const Options &opt)
{
    const Trace trace = makeTrace(opt);
    std::printf("saved %zu dynamic instructions to %s\n", trace.size(),
                opt.saveTrace.c_str());
    return 0;
}

int
cmdVersion(const Options &)
{
    std::fputs(versionJson().c_str(), stdout);
    return 0;
}

/** SIGTERM/SIGINT land here; the serve loop polls the flag. */
std::atomic<bool> g_drainRequested{false};

void
onDrainSignal(int)
{
    g_drainRequested.store(true);
}

int
cmdServe(const Options &opt)
{
    service::ServerOptions sopt;
    sopt.socketPath = opt.socket;
    sopt.jobs = engineJobs(opt);
    sopt.queueDepth = opt.queueDepth;
    sopt.traceDir = opt.ifGiven(&Options::traceDir);
    sopt.cacheDir = opt.ifGiven(&Options::cacheDir);
    sopt.deadlineSec = opt.deadlineSec;
    sopt.listenTcp = opt.listenTcp;
    sopt.peers = splitCommaList(opt.peers);
    sopt.sliceDeadlineSec = opt.sliceDeadlineSec;
    sopt.jobTraceDir = opt.ifGiven(&Options::jobTraceDir);
    service::Server server(std::move(sopt));

    // Handlers first: a supervisor's SIGTERM racing startup must drain,
    // not kill the process with the socket file left behind.
    struct sigaction sa{};
    sa.sa_handler = onDrainSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    try {
        server.start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "serve: %s\n", e.what());
        return 1;
    }

    while (!g_drainRequested.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.requestDrain();
    server.join();
    return 0;
}

/**
 * The daemon verbs' one request path. Connect with --timeout/--retries
 * and run @p body (`int(ServiceClient &)`) for the verb's exit status. A
 * ProtocolError anywhere, including one expectFrame() throws, prints
 * `VERB: REASON` and the verb exits 1.
 */
template <typename Body>
int
clientVerb(const Options &opt, Body &&body)
{
    try {
        service::ClientOptions copt;
        copt.timeoutSec = static_cast<unsigned>(opt.timeoutSec);
        copt.retries = static_cast<unsigned>(opt.retries);
        service::ServiceClient client(opt.socket, copt);
        return body(client);
    } catch (const service::ProtocolError &e) {
        std::fprintf(stderr, "%s: %s\n", opt.verb->name, e.what());
        return 1;
    }
}

/**
 * @p response, if its type is @p expect. Otherwise throw the error
 * frame's message, or "unexpected 'TYPE' response", for clientVerb to
 * print.
 */
service::Frame
expectFrame(service::Frame response, const std::string &expect)
{
    if (response.type() != expect)
        throw service::ProtocolError(response.stringField(
            "message", "unexpected '" + response.type() + "' response"));
    return response;
}

int
cmdSubmit(const Options &opt)
{
    // The service only deals in artifact formats.
    const std::string format =
        opt.ifGiven(&Options::format).value_or("csv");
    if (format == "table") {
        std::fprintf(stderr, "submit: --format must be csv or json\n");
        return 1;
    }
    // The daemon must not burn grid time for an artifact with nowhere
    // to land.
    if (!outWritable(opt))
        return 1;
    return clientVerb(opt, [&](service::ServiceClient &client) {
        service::Frame request("submit");
        if (opt.given(&Options::suite))
            request.addString("suite", opt.suite);
        request.addString("benches", opt.benches);
        request.addString("cores", opt.cores);
        request.addUint("insts", opt.insts);
        if (opt.given(&Options::seed))
            request.addUint("seed", opt.seed);
        request.addString("format", format);
        if (opt.given(&Options::deadlineSec))
            request.addUint("deadline_sec", opt.deadlineSec);
        if (opt.trace)
            request.addUint("trace", 1);
        if (opt.wait)
            request.addUint("wait", 1);

        const service::Frame response = client.request(request);
        if (response.type() == "busy") {
            std::fprintf(stderr,
                         "submit: server busy (queue depth %llu); "
                         "retry later\n",
                         (unsigned long long)response.uintField("depth",
                                                                0));
            return 1;
        }
        expectFrame(response, "submitted");
        const uint64_t job = response.uintField("job", 0);
        const std::string trace_file = response.stringField("trace_file");
        std::fprintf(stderr, "submit: job %llu (fp=%s, %llu rows)%s%s\n",
                     (unsigned long long)job,
                     response.stringField("fp").c_str(),
                     (unsigned long long)response.uintField("rows", 0),
                     trace_file.empty() ? "" : " trace=",
                     trace_file.c_str());
        if (!opt.wait)
            return 0;
        return emitPayload(opt, expectFrame(client.readFrame(), "result")
                                    .stringField("payload"));
    });
}

/** `status` without --job: the daemon's own status frame — queue
 *  occupancy, identity, per-peer federation health. --json dumps the
 *  frame verbatim (machine-readable, stable field names). */
int
cmdDaemonStatus(const Options &opt, const service::Frame &response)
{
    if (opt.json) {
        std::printf("%s\n", response.serialize().c_str());
        return 0;
    }
    std::printf("daemon: proto=%llu fp=%s active=%llu/%llu "
                "queued=%llu completed=%llu failed=%llu%s\n",
                (unsigned long long)response.uintField("proto", 0),
                response.stringField("fp").c_str(),
                (unsigned long long)response.uintField("active", 0),
                (unsigned long long)response.uintField("queue_depth", 0),
                (unsigned long long)response.uintField("queued", 0),
                (unsigned long long)response.uintField("completed", 0),
                (unsigned long long)response.uintField("failed", 0),
                response.uintField("draining", 0) ? " draining" : "");
    if (response.has("running_job")) {
        std::printf("running: job %llu\n",
                    (unsigned long long)response.uintField("running_job",
                                                           0));
    }
    const uint64_t peers = response.uintField("peers", 0);
    for (uint64_t i = 0; i < peers; ++i) {
        const std::string p = "peer" + std::to_string(i);
        const std::string error = response.stringField(p + "_error");
        std::printf("peer %s: %s rtt=%lluus inflight=%llu "
                    "active=%llu/%llu%s%s\n",
                    response.stringField(p).c_str(),
                    response.stringField(p + "_state").c_str(),
                    (unsigned long long)response.uintField(p + "_rtt_us",
                                                           0),
                    (unsigned long long)response.uintField(p + "_inflight",
                                                           0),
                    (unsigned long long)response.uintField(p + "_active",
                                                           0),
                    (unsigned long long)response.uintField(p + "_depth",
                                                           0),
                    error.empty() ? "" : " — ", error.c_str());
    }
    return 0;
}

int
cmdStatusOrResult(const Options &opt)
{
    const std::string verb = opt.verb->name; // "status" or "result"
    return clientVerb(opt, [&](service::ServiceClient &client) {
        service::Frame request(verb);
        // Only status goes without --job: result requires it.
        if (!opt.given(&Options::jobId))
            return cmdDaemonStatus(
                opt, expectFrame(client.request(request), "status"));
        request.addUint("job", opt.jobId);
        const service::Frame response =
            expectFrame(client.request(request), verb);
        if (verb == "result")
            return emitPayload(opt, response.stringField("payload"));
        if (opt.json) {
            std::printf("%s\n", response.serialize().c_str());
            return 0;
        }
        std::printf("job %llu: %s%s (fp=%s)\n",
                    (unsigned long long)response.uintField("job", 0),
                    response.stringField("state").c_str(),
                    response.uintField("cached", 0) ? " (cached)" : "",
                    response.stringField("fp").c_str());
        return 0;
    });
}

int
cmdCancel(const Options &opt)
{
    return clientVerb(opt, [&](service::ServiceClient &client) {
        service::Frame request("cancel");
        request.addUint("job", opt.jobId);
        const service::Frame response =
            expectFrame(client.request(request), "cancelled");
        const std::string was = response.stringField("was");
        std::printf("job %llu cancelled (%s%s)\n",
                    (unsigned long long)response.uintField("job", 0),
                    was.c_str(),
                    was == "running" ? "; stops at the next row boundary"
                                     : "");
        return 0;
    });
}

int
cmdPing(const Options &opt)
{
    return clientVerb(opt, [&](service::ServiceClient &client) {
        const auto sent = std::chrono::steady_clock::now();
        const service::Frame pong =
            expectFrame(client.request(service::Frame("ping")), "pong");
        const auto rtt_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - sent)
                .count();
        std::printf("pong: proto=%llu sim=%llu fp=%s rtt_us=%lld\n",
                    (unsigned long long)pong.uintField("proto", 0),
                    (unsigned long long)client.hello().uintField("sim", 0),
                    pong.stringField("fp").c_str(), (long long)rtt_us);
        // A client built from different simulator semantics or workload
        // definitions would compute different result fingerprints; make
        // the divergence visible at ping time, not after a stale fetch.
        const std::string mine = fingerprintHex(registryFingerprint());
        if (pong.stringField("fp") != mine) {
            std::fprintf(stderr,
                         "ping: registry fingerprint mismatch (daemon %s,"
                         " this binary %s) — results will differ\n",
                         pong.stringField("fp").c_str(), mine.c_str());
        }
        return 0;
    });
}

int
cmdMetrics(const Options &opt)
{
    return clientVerb(opt, [&](service::ServiceClient &client) {
        service::Frame request("metrics");
        request.addString("format", opt.json ? "json" : "text");
        std::fputs(expectFrame(client.request(request), "metrics")
                       .stringField("payload")
                       .c_str(),
                   stdout);
        return 0;
    });
}

int
cmdDisasm(const Options &opt)
{
    const Trace trace = makeTrace(opt);
    const size_t n =
        std::min<size_t>(opt.disasmCount, trace.size());
    for (size_t i = 0; i < n; ++i) {
        const DynInst &di = trace[i];
        std::printf("%6zu  pc=%-5u %-28s", i, di.pc,
                    disassemble(trace.program->code[di.pc]).c_str());
        if (di.isMem())
            std::printf("  ea=0x%llx", (unsigned long long)di.addr);
        if (di.hasDst())
            std::printf("  -> %llu", (unsigned long long)di.result());
        if (di.isControl())
            std::printf("  %s", di.taken() ? "taken" : "not-taken");
        std::printf("\n");
    }
    return 0;
}

const VerbSpec kVerbs[] = {
    {"list", kList, cmdList},
    {"suites", kSuites, cmdSuites},
    {"cores", kCores, cmdCores},
    {"run", kRun, cmdRun},
    {"compare", kCompare, cmdCompare},
    {"suite", kSuite, cmdSuite},
    {"sweep", kSweep, cmdSweep},
    {"merge", kMerge, cmdMerge, {}, "SHARD..."},
    {"perf", kPerf, cmdPerf},
    {"figure", kFigure, cmdFigure, {}, "NAME..."},
    {"trace", kTrace, cmdTrace, {&Options::saveTrace}},
    {"disasm", kDisasm, cmdDisasm},
    {"version", kVersion, cmdVersion},
    {"serve", kServe, cmdServe, {&Options::socket}},
    {"submit", kSubmit, cmdSubmit, {&Options::socket}},
    {"status", kStatus, cmdStatusOrResult, {&Options::socket}},
    {"result", kResult, cmdStatusOrResult,
     {&Options::socket, &Options::jobId}},
    {"cancel", kCancel, cmdCancel, {&Options::socket, &Options::jobId}},
    {"ping", kPing, cmdPing, {&Options::socket}},
    {"metrics", kMetrics, cmdMetrics, {&Options::socket}},
};

/** "--name META", or just the name for a flag. */
std::string
optionUsage(const OptionSpec &spec)
{
    return spec.kind == Kind::Flag ? spec.name
                                   : std::string(spec.name) + " " + spec.meta;
}

/** Every verb with the options it accepts; required ones unbracketed. */
void
usage()
{
    std::fprintf(stderr, "usage: icfp-sim VERB [options]\n");
    for (const VerbSpec &verb : kVerbs) {
        std::string line = std::string("  ") + verb.name;
        auto add = [&](const std::string &word) {
            if (line.size() + 1 + word.size() > 79) {
                std::fprintf(stderr, "%s\n", line.c_str());
                line = std::string(11, ' ');
            } else {
                line.resize(std::max<size_t>(line.size(), 10), ' ');
            }
            line += " " + word;
        };
        for (const OptionSpec &spec : kOptions) {
            if (!(spec.verbs & verb.bit))
                continue;
            const bool required =
                std::find(verb.required.begin(), verb.required.end(),
                          spec.field) != verb.required.end();
            add(required ? optionUsage(spec)
                         : "[" + optionUsage(spec) + "]");
        }
        if (verb.operands)
            add(verb.operands);
        std::fprintf(stderr, "%s\n", line.c_str());
    }
}

/** The verbs in @p verbs, comma-separated. */
std::string
verbNames(uint32_t verbs)
{
    std::string names;
    for (const VerbSpec &verb : kVerbs) {
        if (verbs & verb.bit)
            names += (names.empty() ? "" : ", ") + std::string(verb.name);
    }
    return names;
}

/** A whole unsigned integer (decimal, 0x hex, or 0 octal) in [lo, hi]. */
std::optional<uint64_t>
parseUint(const char *text, uint64_t lo, uint64_t hi)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt; // strtoull would take "-1", " 1" and "+1"
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 0);
    if (*end != '\0' || errno == ERANGE || value < lo || value > hi)
        return std::nullopt;
    return value;
}

/** Whether @p text is one of the '|'-separated words in @p words. */
bool
oneOf(const std::string &words, const std::string &text)
{
    return text.find('|') == std::string::npos &&
           ("|" + words + "|").find("|" + text + "|") != std::string::npos;
}

/** Check @p text against @p spec's kind and store it; false if bad. */
bool
setValue(const OptionSpec &spec, const char *text, Options *opt)
{
    if (spec.kind == Kind::Uint) {
        const std::optional<uint64_t> value =
            parseUint(text, spec.lo, spec.hi);
        if (value)
            opt->*std::get<uint64_t Options::*>(spec.field) = *value;
        return value.has_value();
    }
    if ((spec.kind == Kind::Path && !*text) ||
        (spec.kind == Kind::Enum && !oneOf(spec.meta, text)))
        return false;
    opt->*std::get<std::string Options::*>(spec.field) = text;
    return true;
}

/** What setValue() accepts for @p spec, for the error message. */
std::string
expected(const OptionSpec &spec)
{
    if (spec.kind == Kind::Uint) {
        return "an integer in " + std::to_string(spec.lo) + ".." +
               std::to_string(spec.hi);
    }
    if (spec.kind == Kind::Enum)
        return std::string("one of ") + spec.meta;
    return "a non-empty value";
}

/**
 * Parse argv[2..] for @p opt->verb: look each option up, refuse it if
 * the verb does not read it, check and store its value, and record it
 * as seen; then check required options and kRules. False after printing
 * why.
 */
bool
parseArgs(int argc, char **argv, Options *opt)
{
    const VerbSpec &verb = *opt->verb;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            if (!verb.operands) {
                std::fprintf(stderr, "%s: unexpected argument '%s'\n",
                             verb.name, arg.c_str());
                return false;
            }
            opt->inputs.push_back(arg);
            continue;
        }
        const OptionSpec *spec = std::find_if(
            std::begin(kOptions), std::end(kOptions),
            [&](const OptionSpec &s) { return arg == s.name; });
        if (spec == std::end(kOptions)) {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return false;
        }
        if (!(spec->verbs & verb.bit)) {
            std::fprintf(stderr, "%s: %s is not accepted (accepted by: %s)\n",
                         verb.name, spec->name,
                         verbNames(spec->verbs).c_str());
            if (spec->serviceWhy && (verb.bit & kService))
                std::fprintf(stderr, "%s: %s\n", verb.name, spec->serviceWhy);
            return false;
        }
        opt->seen |= uint64_t(1) << (spec - kOptions);
        if (spec->kind == Kind::Flag) {
            opt->*std::get<bool Options::*>(spec->field) = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", spec->name);
            return false;
        }
        const char *text = argv[++i];
        if (!setValue(*spec, text, opt)) {
            std::fprintf(stderr, "%s: bad %s '%s' (want %s)\n", verb.name,
                         spec->name, text, expected(*spec).c_str());
            return false;
        }
    }
    for (const Field &field : verb.required) {
        if (!opt->given(field)) {
            std::fprintf(stderr, "%s: requires %s\n", verb.name,
                         optionUsage(optionFor(field)).c_str());
            return false;
        }
    }
    for (const OptionRule &rule : kRules) {
        if ((rule.verbs & verb.bit) && opt->given(rule.option) &&
            opt->given(rule.other) != rule.needsOther) {
            std::fprintf(stderr, "%s: %s %s %s (%s)\n", verb.name,
                         optionFor(rule.option).name,
                         rule.needsOther ? "needs" : "cannot be used with",
                         optionFor(rule.other).name, rule.why);
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (const VerbSpec &verb : kVerbs) {
        if (argc >= 2 && verb.name == std::string(argv[1]))
            opt.verb = &verb;
    }
    if (!opt.verb) {
        usage();
        return 1;
    }
    if (!parseArgs(argc, argv, &opt))
        return 1;
    if (opt.given(&Options::suite) &&
        !SuiteRegistry::instance().has(opt.suite)) {
        std::fprintf(stderr, "unknown suite '%s' (see 'icfp-sim suites')\n",
                     opt.suite.c_str());
        return 1;
    }
    return opt.verb->run(opt);
}
