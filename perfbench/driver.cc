/**
 * @file
 * Outside-in benchmark driver for the iCFP simulator.
 *
 * Times what a user of the simulator waits for — cold Figure 5 sweeps,
 * trace-store fills and warm-store sweeps, daemon and federated submits
 * — through the library's public headers only, checks every artifact it
 * produces, and prints one JSON result line.
 *
 *   perfbench --workload fig5_cold --seed 7 --seconds 10 --trace 0 \
 *             --work-dir .bench_build/work --pins perfbench/pins.txt
 *
 * Plain mode (--trace 0) times the public entry points users call
 * (SweepEngine::run, ServiceClient against in-process Servers) and
 * reports the end-to-end metrics. Traced mode (--trace 1) drives the
 * same work as explicit calls into each layer (makeBenchTrace,
 * writeTrace/readTrace, TraceStore::store/load, simulate, sweepCsv,
 * parseShardArtifact/mergeShards, ...), records one span per call,
 * writes a Chrome trace and a per-layer self-time table, and reports the
 * per-layer metrics. See perfbench/README.md.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/metrics.hh"
#include "common/stats.hh"
#include "isa/trace_io.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "sim/merge.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "sim/trace_store.hh"
#include "sim/version_info.hh"
#include "workloads/suite_registry.hh"

namespace fs = std::filesystem;
using namespace icfp;
using service::Frame;
using service::Server;
using service::ServerOptions;
using service::ServiceClient;

namespace {

// ------------------------------------------------------------ options

/** Figure 5 reports iCFP's overall geomean speedup over in-order as
 *  16% (Section 5.1); fig5_icfp_err_pp is the distance from it. */
constexpr double kPaperIcfpSpeedupPct = 16.0;

/** Concurrency ceiling of every workload (closed loop, one process). */
constexpr unsigned kJobs = 4;

/** Warm submits per service_mix iteration and closed-loop clients. */
constexpr unsigned kWarmSubmits = 1000;
constexpr unsigned kWarmClients = 4;

/** Set-up probes (fresh processes) per run; setup_s is their median.
 *  A probe takes about a millisecond and a quarter of them land in a
 *  slow tail on a shared host, so many are cheap and steady the median. */
constexpr unsigned kSetupReps = 51;

/** Instruction budget and seed of the pinned digest grids. */
constexpr uint64_t kPinInsts = 2000;
constexpr uint64_t kPinSeed = 1;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    uint64_t insts = kDefaultBenchInsts; ///< the `sweep`/`submit` default
    unsigned minIters = 3;
    std::string workDir = ".bench_build/work";
    std::string pinsFile = "perfbench/pins.txt";
    bool tamper = false;
    bool setupProbe = false;
    bool printPins = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload fig5_cold|store_nonspec|"
                 "service_mix --seed N --seconds S --trace 0|1\n"
                 "                 [--insts N] [--min-iters N] "
                 "[--work-dir D] [--pins F] [--tamper]\n"
                 "       perfbench --setup-probe --workload fig5_cold|"
                 "store_nonspec [--insts N] [--seed N] [--work-dir D]\n"
                 "       perfbench --print-pins\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::stoull(value());
        else if (arg == "--seconds")
            opt.seconds = std::stod(value());
        else if (arg == "--trace")
            opt.trace = value() != "0";
        else if (arg == "--insts")
            opt.insts = std::stoull(value());
        else if (arg == "--min-iters")
            opt.minIters = static_cast<unsigned>(std::stoul(value()));
        else if (arg == "--work-dir")
            opt.workDir = value();
        else if (arg == "--pins")
            opt.pinsFile = value();
        else if (arg == "--tamper")
            opt.tamper = true;
        else if (arg == "--setup-probe")
            opt.setupProbe = true;
        else if (arg == "--print-pins")
            opt.printPins = true;
        else
            usage("unknown argument " + arg);
    }
    if (opt.insts == 0 || opt.minIters == 0)
        usage("--insts and --min-iters must be positive");
    return opt;
}

// ------------------------------------------------------------ helpers

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q * double(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

std::string
digestHex(const std::string &bytes)
{
    return fingerprintHex(fnv1a64(bytes.data(), bytes.size()));
}

/** A /proc/self/status memory field ("VmRSS", "VmHWM"), in MB. */
double
statusMb(const std::string &field)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(field + ":", 0) == 0)
            return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
    return 0.0;
}

std::vector<CoreKind>
fig5Cores()
{
    return {CoreKind::InOrder, CoreKind::Runahead, CoreKind::Multipass,
            CoreKind::Sltp, CoreKind::ICfp};
}

std::vector<CoreKind>
nonspecCores()
{
    return {CoreKind::InOrder, CoreKind::ICfp};
}

SweepSpec
makeSpec(const std::string &suite, const std::vector<CoreKind> &kinds,
         uint64_t insts, std::optional<uint64_t> seed)
{
    SweepSpec spec;
    for (const BenchmarkSpec &bench : findSuite(suite))
        spec.benches.push_back(bench.name);
    // Variant labels are the registry names, exactly as `icfp-sim
    // sweep --cores` and the daemon label them, so every path renders
    // the same artifact bytes.
    const SimConfig cfg;
    for (const CoreKind kind : kinds)
        spec.variants.push_back({coreKindName(kind), kind, cfg});
    spec.insts = insts;
    spec.seed = seed;
    return spec;
}

/** |iCFP geomean % speedup over in-order − the paper's 16%| over a
 *  grid that holds both cores (simulated time, not host time). */
double
icfpErrPp(const std::vector<SweepResult> &results)
{
    std::map<std::string, const RunResult *> base, icfp;
    for (const SweepResult &r : results) {
        if (r.core == CoreKind::InOrder)
            base[r.bench] = &r.result;
        else if (r.core == CoreKind::ICfp)
            icfp[r.bench] = &r.result;
    }
    std::vector<double> ratios;
    for (const auto &[bench, b] : base) {
        const auto it = icfp.find(bench);
        if (it != icfp.end() && it->second->cycles)
            ratios.push_back(double(b->cycles) / double(it->second->cycles));
    }
    if (ratios.empty())
        return 0.0;
    return std::fabs(100.0 * (geomean(ratios) - 1.0) - kPaperIcfpSpeedupPct);
}

// ------------------------------------------------------------ tracing

/** One closed span: a call into one layer. */
struct SpanRec
{
    std::string name;
    std::string layer; ///< "op" marks operation and iteration roots
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 for an iteration root
    uint64_t op = 0;     ///< the operation this call serves
    uint64_t startUs = 0;
    uint64_t endUs = 0;
    uint64_t insts = 0; ///< simulated instructions the call handled
    uint64_t bytes = 0; ///< bytes the call produced or consumed
};

/** Collects spans from any thread; records nothing when off. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    uint64_t nextId() { return next_.fetch_add(1); }

    void add(const SpanRec &rec)
    {
        if (!on_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        recs_.push_back(rec);
    }

    std::vector<SpanRec> records() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return recs_;
    }

  private:
    bool on_;
    std::atomic<uint64_t> next_{1};
    mutable std::mutex mutex_;
    std::vector<SpanRec> recs_;
};

/**
 * RAII span around one layer call. It always times the call (callers
 * read end()/seconds()); it is recorded only when the tracer is on. A
 * span opened with @p new_op starts a new operation id; the others
 * inherit their parent's.
 */
class Span
{
  public:
    Span(Tracer &tracer, const std::string &name, const std::string &layer,
         const Span *parent, bool new_op = false)
        : tracer_(tracer)
    {
        rec_.name = name;
        rec_.layer = layer;
        rec_.id = tracer.nextId();
        rec_.parent = parent ? parent->rec_.id : 0;
        rec_.op = (new_op || !parent) ? rec_.id : parent->rec_.op;
        rec_.startUs = metrics::nowMicros();
    }

    ~Span() { end(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void work(uint64_t insts, uint64_t bytes = 0)
    {
        rec_.insts = insts;
        rec_.bytes = bytes;
    }

    /** Close the span (idempotent); returns its wall-clock seconds. */
    double end()
    {
        if (!ended_) {
            ended_ = true;
            rec_.endUs = std::max(metrics::nowMicros(), rec_.startUs);
            tracer_.add(rec_);
        }
        return seconds();
    }

    double seconds() const
    {
        const uint64_t until =
            ended_ ? rec_.endUs
                   : std::max(metrics::nowMicros(), rec_.startUs);
        return 1e-6 * double(until - rec_.startUs);
    }

  private:
    Tracer &tracer_;
    SpanRec rec_;
    bool ended_ = false;
};

struct LayerRow
{
    uint64_t spans = 0;
    double selfS = 0.0; ///< duration minus the time children cover
    double wallS = 0.0; ///< share of wall-clock (concurrent leaves split)
};

struct Analysis
{
    std::map<std::string, LayerRow> layers;
    double wallS = 0.0;         ///< summed iteration-root durations
    double unattributedS = 0.0; ///< wall-clock no layer accounts for
};

/**
 * Per-layer self time. selfS is a span's duration minus the union of
 * its children's intervals (thread time: concurrent layers can sum past
 * wall-clock). wallS splits every instant of wall-clock equally between
 * the innermost spans open at that instant; instants whose innermost
 * span is an operation root count as unattributed. Summed over layers,
 * wallS plus unattributedS is exactly the traced wall-clock.
 */
Analysis
analyze(const std::vector<SpanRec> &recs)
{
    Analysis a;
    std::map<uint64_t, size_t> index;
    for (size_t i = 0; i < recs.size(); ++i)
        index[recs[i].id] = i;
    std::vector<std::vector<size_t>> children(recs.size());
    std::vector<long> parentOf(recs.size(), -1);
    for (size_t i = 0; i < recs.size(); ++i) {
        const auto it = index.find(recs[i].parent);
        if (recs[i].parent && it != index.end()) {
            children[it->second].push_back(i);
            parentOf[i] = static_cast<long>(it->second);
        } else {
            a.wallS += 1e-6 * double(recs[i].endUs - recs[i].startUs);
        }
    }

    for (size_t i = 0; i < recs.size(); ++i) {
        const SpanRec &s = recs[i];
        std::vector<std::pair<uint64_t, uint64_t>> iv;
        for (const size_t c : children[i]) {
            iv.emplace_back(std::max(recs[c].startUs, s.startUs),
                            std::min(recs[c].endUs, s.endUs));
        }
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, reach = s.startUs;
        for (const auto &[lo, hi] : iv) {
            const uint64_t from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        LayerRow &row = a.layers[s.layer];
        ++row.spans;
        row.selfS += 1e-6 * double(s.endUs - s.startUs - covered);
    }

    // Sweep line over span boundaries; ends sort before starts at the
    // same instant, so back-to-back spans never overlap.
    struct Event
    {
        uint64_t t;
        int kind; ///< 0 = end, 1 = start
        size_t span;
    };
    std::vector<Event> events;
    for (size_t i = 0; i < recs.size(); ++i) {
        if (recs[i].endUs == recs[i].startUs)
            continue; // holds no wall-clock; its children are empty too
        events.push_back({recs[i].startUs, 1, i});
        events.push_back({recs[i].endUs, 0, i});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &x, const Event &y) {
                  return x.t != y.t ? x.t < y.t : x.kind < y.kind;
              });
    std::vector<unsigned> openChildren(recs.size(), 0);
    std::vector<bool> open(recs.size(), false);
    std::set<size_t> leaves;
    uint64_t prev = events.empty() ? 0 : events.front().t;
    for (const Event &e : events) {
        if (e.t > prev && !leaves.empty()) {
            const double share =
                1e-6 * double(e.t - prev) / double(leaves.size());
            for (const size_t leaf : leaves) {
                if (recs[leaf].layer == "op")
                    a.unattributedS += share;
                else
                    a.layers[recs[leaf].layer].wallS += share;
            }
        }
        prev = e.t;
        const long p = parentOf[e.span];
        if (e.kind == 1) {
            open[e.span] = true;
            if (p >= 0 && open[p] && openChildren[p]++ == 0)
                leaves.erase(static_cast<size_t>(p));
            if (openChildren[e.span] == 0)
                leaves.insert(e.span);
        } else {
            open[e.span] = false;
            leaves.erase(e.span);
            if (p >= 0 && open[p] && --openChildren[p] == 0)
                leaves.insert(static_cast<size_t>(p));
        }
    }
    return a;
}

// ------------------------------------------------------------ ledger

/** Operation ledger plus every metric sample of the run. */
class Ledger
{
  public:
    explicit Ledger(bool tamper) : tamper_(tamper) {}

    /** Record one operation (a sweep, a submit, or an output check). */
    void op(bool ok, const std::string &what)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++attempted_;
        if (!ok) {
            ++failed_;
            std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
        }
    }

    /** Run @p fn as one operation; an exception fails the operation,
     *  never the run. Returns whether it succeeded. */
    bool guard(const std::string &what, const std::function<bool()> &fn)
    {
        try {
            const bool ok = fn();
            op(ok, what);
            return ok;
        } catch (const std::exception &e) {
            op(false, what + ": " + e.what());
            return false;
        }
    }

    /**
     * Artifact comparison. With --tamper the first comparison of the
     * run sees a corrupted copy of @p got, so the smoke test can prove
     * a bad artifact is counted as a failed operation.
     */
    bool same(const std::string &got, const std::string &want)
    {
        if (tamper_ && !tampered_.exchange(true)) {
            std::string bad = got.empty() ? std::string("x") : got;
            bad[bad.size() / 2] ^= 0x20;
            return bad == want;
        }
        return got == want;
    }

    void sample(const std::string &name, double v)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        samples_[name].push_back(v);
    }

    /** Every sample series, one line each (for the run log). */
    void dump(std::FILE *out) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[name, vals] : samples_) {
            if (vals.size() > 64)
                continue; // per-submit latencies: summarized instead
            std::fprintf(out, "perfbench: samples %s:", name.c_str());
            for (const double v : vals)
                std::fprintf(out, " %.6g", v);
            std::fprintf(out, "\n");
        }
    }

    std::vector<double> samples(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = samples_.find(name);
        return it == samples_.end() ? std::vector<double>{} : it->second;
    }

    void set(const std::string &name, double v)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        values_[name] = v;
    }

    double value(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = values_.find(name);
        return it == values_.end() ? 0.0 : it->second;
    }

    uint64_t attempted() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return attempted_;
    }

    uint64_t failed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return failed_;
    }

  private:
    const bool tamper_;
    std::atomic<bool> tampered_{false};
    mutable std::mutex mutex_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, double> values_;
};

/** Simulated counts summed over a grid (they must repeat exactly). */
void
recordSimCounts(Ledger &L, const std::vector<SweepResult> &results)
{
    double cycles = 0, passes = 0, rally = 0, sliced = 0;
    for (const SweepResult &r : results) {
        cycles += double(r.result.cycles);
        if (r.core == CoreKind::ICfp) {
            passes += double(r.result.rallyPasses);
            rally += double(r.result.rallyInsts);
            sliced += double(r.result.slicedInsts);
        }
    }
    L.set("sim.cycles", cycles);
    L.set("icfp.rally_passes", passes);
    L.set("icfp.rally_insts", rally);
    L.set("icfp.sliced_insts", sliced);
}

// ------------------------------------------------------------ pins

/** The pinned digest grid of each workload: tiny budget, fixed seed. */
SweepSpec
pinSpec(const std::string &workload)
{
    if (workload == "store_nonspec")
        return makeSpec("nonspec", nonspecCores(), kPinInsts, kPinSeed);
    if (workload == "service_mix")
        return makeSpec(kDefaultSuiteName, CoreRegistry::instance().kinds(),
                        kPinInsts, kPinSeed);
    return makeSpec(kDefaultSuiteName, fig5Cores(), kPinInsts, kPinSeed);
}

std::string
pinArtifact(const std::string &workload)
{
    SweepEngine engine(kJobs);
    engine.setTraceStore(nullptr);
    return sweepCsv(engine.run(pinSpec(workload)));
}

/** The digest @p file records for (kSimSemanticsVersion, workload). */
std::optional<std::string>
recordedPin(const std::string &file, const std::string &workload)
{
    std::ifstream in(file);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        unsigned version = 0;
        std::string name, digest;
        uint64_t insts = 0, seed = 0;
        if (fields >> version >> name >> insts >> seed >> digest &&
            version == kSimSemanticsVersion && name == workload &&
            insts == kPinInsts && seed == kPinSeed)
            return digest;
    }
    return std::nullopt;
}

// ------------------------------------------------------------ layer calls

using TraceMap = std::map<std::string, std::shared_ptr<Trace>>;

/** Explicit per-bench trace generation (the engine's phase 1). */
TraceMap
genPhase(Tracer &tr, const Span &parent, const SweepSpec &spec,
         unsigned jobs)
{
    Span phase(tr, "sweep.gen_phase", "sweep", &parent);
    std::vector<std::shared_ptr<Trace>> traces(spec.benches.size());
    parallelFor(spec.benches.size(), jobs, [&](size_t i) {
        BenchmarkSpec bench = findBenchmark(spec.benches[i]);
        if (spec.seed)
            bench.workload.seed = *spec.seed;
        Span gen(tr, "gen", "gen", &phase);
        traces[i] =
            std::make_shared<Trace>(makeBenchTrace(bench, spec.insts));
        gen.work(traces[i]->insts.size());
    });
    TraceMap out;
    for (size_t i = 0; i < traces.size(); ++i)
        out[spec.benches[i]] = traces[i];
    return out;
}

/** Release traces; freeing their memory images is real work, charged
 *  to the layer that built them. */
void
freeTraces(Tracer &tr, const Span &parent, TraceMap &traces)
{
    Span span(tr, "trace.free", "gen", &parent);
    traces.clear();
}

/** Explicit replay of every grid cell (the engine's phase 2). */
std::vector<SweepResult>
replayPhase(Tracer &tr, const Span &parent, const SweepSpec &spec,
            const TraceMap &traces, unsigned jobs, Ledger &L)
{
    Span phase(tr, "sweep.replay_phase", "sweep", &parent);
    const std::vector<SweepJob> grid = expandGrid(spec);
    std::vector<SweepResult> results(grid.size());
    std::vector<double> cell_s(grid.size(), 0.0);
    parallelFor(grid.size(), jobs, [&](size_t i) {
        const SweepJob &job = grid[i];
        const Trace &trace = *traces.at(job.bench);
        Span cell(tr, std::string("replay.") + coreKindName(job.core),
                  "core", &phase);
        results[i].bench = job.bench;
        results[i].variant = job.variant;
        results[i].core = job.core;
        results[i].result = simulate(job.core, job.config, trace);
        cell.work(trace.insts.size());
        cell_s[i] = cell.end();
    });
    double sum = 0.0, icfp_max = 0.0;
    for (size_t i = 0; i < grid.size(); ++i) {
        sum += cell_s[i];
        if (grid[i].core == CoreKind::ICfp)
            icfp_max = std::max(icfp_max, cell_s[i]);
    }
    L.sample("replay.icfp.max_cell_s", icfp_max);
    const double phase_s = phase.end();
    if (jobs > 1 && phase_s > 0)
        L.sample("sweep.parallel_eff", sum / (double(jobs) * phase_s));
    return results;
}

std::string
reportCsv(Tracer &tr, const Span &parent,
          const std::vector<SweepResult> &results)
{
    Span span(tr, "report.csv", "report", &parent);
    std::string csv = sweepCsv(results);
    span.work(0, csv.size());
    return csv;
}

void
reportJson(Tracer &tr, const Span &parent,
           const std::vector<SweepResult> &results)
{
    Span span(tr, "report.json", "report", &parent);
    span.work(0, sweepJson(results).size());
}

bool
checked(Tracer &tr, const Span &parent, Ledger &L, const std::string &got,
        const std::string &want)
{
    Span span(tr, "check", "check", &parent);
    return L.same(got, want);
}

// ------------------------------------------------------------ service

/** The default `icfp-sim submit` grid (spec2000 × every registered
 *  core) at the run's budget and seed; @p shard frames one slice. */
Frame
submitFrame(const Options &opt, const std::string &shard = "")
{
    Frame f("submit");
    f.addString("suite", kDefaultSuiteName);
    f.addString("benches", "all");
    f.addString("cores", "all");
    f.addUint("insts", opt.insts);
    f.addUint("seed", opt.seed);
    f.addString("format", "csv");
    f.addUint("wait", 1);
    if (!shard.empty())
        f.addString("shard", shard);
    return f;
}

/** Send a wait-submit and return the artifact; any answer other than
 *  submitted + result (an error or busy frame) throws. */
std::string
submitWait(Tracer &tr, const Span &parent, ServiceClient &client,
           const Frame &request, const char *wait_layer,
           double *ack_s = nullptr)
{
    Frame ack;
    {
        Span span(tr, "submit.ack", "service", &parent);
        ack = client.request(request);
        const double s = span.end();
        if (ack_s)
            *ack_s = s;
    }
    if (ack.type() != "submitted")
        throw std::runtime_error("submit answered " + ack.serialize());
    Span wait(tr, "submit.wait", wait_layer, &parent);
    const Frame result = client.readFrame();
    if (result.type() != "result")
        throw std::runtime_error("wait answered " + result.serialize());
    std::string payload = result.stringField("payload");
    wait.work(0, payload.size());
    return payload;
}

std::unique_ptr<ServiceClient>
connect(Tracer &tr, const Span &parent, const std::string &endpoint,
        double *connect_s = nullptr)
{
    Span span(tr, "client.connect", "service", &parent);
    service::ClientOptions copts;
    copts.timeoutSec = 150;
    auto client = std::make_unique<ServiceClient>(endpoint, copts);
    const double s = span.end();
    if (connect_s)
        *connect_s = s;
    return client;
}

void
drain(std::unique_ptr<Server> &server)
{
    if (server) {
        server->requestDrain();
        server->join();
        server.reset();
    }
}

std::unique_ptr<Server>
startServer(const std::string &sock, unsigned jobs, bool tcp,
            std::vector<std::string> peers = {})
{
    ServerOptions o;
    o.socketPath = sock;
    o.jobs = jobs;
    o.queueDepth = 8; // > kWarmClients, so `busy` never fires
    if (tcp)
        o.listenTcp = "127.0.0.1:0";
    o.peers = std::move(peers);
    auto server = std::make_unique<Server>(o);
    server->start();
    return server;
}

/** The in-process fleet of one service_mix iteration: a jobs=4 local
 *  daemon and a coordinator over two jobs=2 loopback-TCP peers. */
struct Fleet
{
    std::unique_ptr<Server> local;
    std::unique_ptr<Server> peer1;
    std::unique_ptr<Server> peer2;
    std::unique_ptr<Server> coord;
    std::string localSock;
    std::string coordSock;
    double daemonsS = 0; ///< time to the last daemon start, no health wait

    ~Fleet() { stop(); }

    /** Daemon start plus the coordinator seeing both peers healthy. The
     *  peer pool's first probe comes after its 100 ms poll interval, so
     *  that interval bounds this set-up from below. */
    void start(const std::string &dir, const std::string &tag)
    {
        const double t0 = nowSec();
        const std::string stem = dir + "/" + tag;
        localSock = stem + "-local.sock";
        coordSock = stem + "-coord.sock";
        local = startServer(localSock, kJobs, false);
        peer1 = startServer(stem + "-p1.sock", 2, true);
        peer2 = startServer(stem + "-p2.sock", 2, true);
        coord = startServer(coordSock, kJobs, false,
                            {peer1->tcpEndpoint(), peer2->tcpEndpoint()});
        daemonsS = nowSec() - t0;
        if (!coord->peerPool()->waitHealthy(2, std::chrono::seconds(20)))
            throw std::runtime_error("coordinator never saw both peers");
    }

    void stop()
    {
        drain(coord);
        drain(peer1);
        drain(peer2);
        drain(local);
    }
};

uint64_t
counterValue(const char *name)
{
    return metrics::counter(name).value();
}

// ------------------------------------------------------------ set-up

/** What fig5_cold builds before its first timed call. */
struct Fig5Rig
{
    SweepSpec spec;
    std::unique_ptr<SweepEngine> e4 = std::make_unique<SweepEngine>(kJobs);
    std::unique_ptr<SweepEngine> e1 = std::make_unique<SweepEngine>(1);

    explicit Fig5Rig(const Options &opt)
        : spec(makeSpec(kDefaultSuiteName, fig5Cores(), opt.insts, opt.seed))
    {
        e4->setTraceStore(nullptr);
        e1->setTraceStore(nullptr);
    }
};

/** What store_nonspec builds before its first timed call: a fresh empty
 *  store directory and an engine that fills it. */
struct StoreRig
{
    SweepSpec spec;
    std::shared_ptr<TraceStore> store;
    SweepEngine filler{kJobs};

    StoreRig(const Options &opt, const std::string &dir)
        : spec(makeSpec("nonspec", nonspecCores(), opt.insts, opt.seed))
    {
        fs::remove_all(dir);
        fs::create_directories(dir);
        store = std::make_shared<TraceStore>(dir);
        filler.setTraceStore(store);
    }
};

/** The child side of probeSetupS(): build the workload's rig, exit. */
int
setupProbe(const Options &opt)
{
    if (opt.workload == "fig5_cold") {
        const Fig5Rig rig(opt);
    } else if (opt.workload == "store_nonspec") {
        const std::string dir = opt.workDir + "/probe-store";
        { const StoreRig rig(opt, dir); }
        fs::remove_all(dir);
    } else {
        usage("--setup-probe takes fig5_cold or store_nonspec");
    }
    return 0;
}

/**
 * setup_s of fig5_cold and store_nonspec: the median wall-clock of
 * kSetupReps fresh processes that build the workload's rig and exit.
 * In one long-lived process that set-up costs microseconds, below what
 * the clock resolves steadily; a fresh process also pays what a user's
 * first sweep pays before any work: exec, the statically registered
 * core and suite registries, and the lazy suite build.
 */
double
probeSetupS(const Options &opt)
{
    std::vector<std::string> args = {
        "perfbench",   "--setup-probe", "--workload",
        opt.workload,  "--work-dir",    opt.workDir,
        "--insts",     std::to_string(opt.insts),
        "--seed",      std::to_string(opt.seed)};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    std::vector<double> samples;
    for (unsigned r = 0; r < kSetupReps; ++r) {
        const double t0 = nowSec();
        pid_t pid = 0;
        if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                        argv.data(), environ) != 0)
            throw std::runtime_error("cannot start a set-up probe");
        int status = 0;
        while (waitpid(pid, &status, 0) < 0) {
            if (errno != EINTR)
                throw std::runtime_error("lost a set-up probe");
        }
        samples.push_back(nowSec() - t0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("a set-up probe failed");
    }
    return median(samples);
}

// ------------------------------------------------------------ workloads

class Workload
{
  public:
    Workload(const Options &opt, Ledger &L) : opt_(opt), L_(L) {}
    virtual ~Workload() = default;

    /** One plain iteration: public entry points, tracing off. */
    virtual void plain(unsigned iter) = 0;
    /** One iteration of explicit layer calls under @p root. */
    virtual void layered(Tracer &tr, const Span &root,
                         const std::string &tag) = 0;

  protected:
    const Options &opt_;
    Ledger &L_;
    std::string artifact_; ///< the last plain-path artifact
};

/** spec2000 × the five Figure 5 cores, fresh engine, jobs=4 then 1. */
class Fig5Cold : public Workload
{
  public:
    using Workload::Workload;

    void plain(unsigned iter) override
    {
        if (iter == 0)
            L_.sample("setup_s", probeSetupS(opt_));
        Fig5Rig rig(opt_);

        std::string csv4;
        std::vector<SweepResult> res4;
        double s4 = 0, s1 = 0;
        L_.guard("fig5 sweep jobs=4", [&] {
            const double t0 = nowSec();
            res4 = rig.e4->run(rig.spec);
            csv4 = sweepCsv(res4);
            s4 = nowSec() - t0;
            L_.sample("rss_mb", statusMb("VmRSS"));
            return true;
        });
        rig.e4.reset(); // its traces are dead weight for the jobs=1 run
        L_.guard("fig5 sweep jobs=1 == jobs=4", [&] {
            const double t0 = nowSec();
            const std::string csv1 = sweepCsv(rig.e1->run(rig.spec));
            s1 = nowSec() - t0;
            return L_.same(csv1, csv4);
        });
        L_.sample("cold_s", s4);
        L_.sample("alt_s", s1);
        L_.sample("iter_s", s4 + s1);
        L_.sample("sweep_s", s4);
        L_.sample("sweep_j1_s", s1);
        if (!res4.empty()) {
            recordSimCounts(L_, res4);
            artifact_ = csv4;
        }
    }

    void layered(Tracer &tr, const Span &root, const std::string &) override
    {
        const SweepSpec spec =
            makeSpec(kDefaultSuiteName, fig5Cores(), opt_.insts, opt_.seed);
        for (const unsigned jobs : {kJobs, 1u}) {
            Span op(tr, jobs > 1 ? "op.sweep_j4" : "op.sweep_j1", "op",
                    &root, true);
            L_.guard("fig5 layered sweep == plain sweep", [&] {
                TraceMap traces = genPhase(tr, op, spec, jobs);
                const auto results =
                    replayPhase(tr, op, spec, traces, jobs, L_);
                freeTraces(tr, op, traces);
                const std::string csv = reportCsv(tr, op, results);
                reportJson(tr, op, results);
                return checked(tr, op, L_, csv, artifact_);
            });
        }
    }
};

/** nonspec × {in-order, icfp}: fill a fresh store, then sweep warm. */
class StoreNonspec : public Workload
{
  public:
    using Workload::Workload;

    void plain(unsigned iter) override
    {
        if (iter == 0)
            L_.sample("setup_s", probeSetupS(opt_));
        const std::string dir =
            opt_.workDir + "/store" + std::to_string(iter);
        auto rig = std::make_unique<StoreRig>(opt_, dir);
        const SweepSpec spec = rig->spec;

        // Fill: generation plus TraceStore::store, one trace per bench.
        double fill_s = 0;
        L_.guard("store fill", [&] {
            const double t0 = nowSec();
            parallelFor(spec.benches.size(), kJobs, [&](size_t i) {
                rig->filler.trace(spec.benches[i], spec.insts, spec.seed);
            });
            fill_s = nowSec() - t0;
            L_.sample("rss_mb", statusMb("VmRSS"));
            return rig->filler.traceGenerations() == spec.benches.size() &&
                   rig->store->stats().writes == spec.benches.size();
        });
        rig.reset(); // frees the filler's traces before the warm sweep
        uint64_t bytes = 0;
        for (const auto &entry : fs::directory_iterator(dir))
            if (entry.is_regular_file())
                bytes += entry.file_size();
        L_.sample("store_bytes_mb", double(bytes) / (1024.0 * 1024.0));

        // Warm: a fresh engine on a fresh handle to the same directory,
        // as a second process would see it.
        double warm_s = 0;
        std::string warm_csv;
        std::vector<SweepResult> warm_res;
        L_.guard("store warm sweep: generations=0, corrupt=0", [&] {
            auto warm_store = std::make_shared<TraceStore>(dir);
            SweepEngine warm(kJobs);
            warm.setTraceStore(warm_store);
            const double t0 = nowSec();
            warm_res = warm.run(spec);
            warm_csv = sweepCsv(warm_res);
            warm_s = nowSec() - t0;
            const TraceStore::Stats st = warm_store->stats();
            L_.set("store.hits", double(st.hits));
            L_.set("store.misses", double(st.misses));
            L_.set("store.corrupt", double(st.corrupt));
            return warm.traceGenerations() == 0 && st.corrupt == 0 &&
                   st.hits == spec.benches.size();
        });

        double nostore_s = 0;
        L_.guard("store warm == no-store sweep", [&] {
            SweepEngine cold(kJobs);
            cold.setTraceStore(nullptr);
            const double t0 = nowSec();
            const std::string csv = sweepCsv(cold.run(spec));
            nostore_s = nowSec() - t0;
            return L_.same(warm_csv, csv);
        });
        fs::remove_all(dir);

        L_.sample("cold_s", fill_s);
        L_.sample("alt_s", warm_s);
        L_.sample("iter_s", fill_s + warm_s + nostore_s);
        L_.sample("store_fill_s", fill_s);
        L_.sample("store_warm_s", warm_s);
        L_.sample("store_nostore_s", nostore_s);
        if (!warm_res.empty()) {
            recordSimCounts(L_, warm_res);
            artifact_ = warm_csv;
        }
    }

    void layered(Tracer &tr, const Span &root,
                 const std::string &tag) override
    {
        const std::string dir = opt_.workDir + "/" + tag;
        const SweepSpec spec =
            makeSpec("nonspec", nonspecCores(), opt_.insts, opt_.seed);
        std::shared_ptr<TraceStore> store;
        {
            Span setup(tr, "setup", "setup", &root);
            fs::remove_all(dir);
            fs::create_directories(dir);
            store = std::make_shared<TraceStore>(dir);
        }
        const auto traceId = [&](const std::string &bench) {
            TraceId id;
            id.bench = bench;
            id.insts = spec.insts;
            id.seed = spec.seed;
            id.defVersion = findBenchmark(bench).defVersion;
            return id;
        };

        TraceMap traces;
        {
            Span op(tr, "op.store_fill", "op", &root, true);
            L_.guard("layered store fill: trace_io round trip", [&] {
                traces = genPhase(tr, op, spec, kJobs);
                std::atomic<bool> ok{true};
                parallelFor(spec.benches.size(), kJobs, [&](size_t i) {
                    const Trace &trace = *traces.at(spec.benches[i]);
                    std::string bytes;
                    {
                        Span enc(tr, "trace_io.encode", "trace_io", &op);
                        std::ostringstream os;
                        writeTrace(os, trace);
                        bytes = os.str();
                        enc.work(trace.insts.size(), bytes.size());
                    }
                    {
                        Span dec(tr, "trace_io.decode", "trace_io", &op);
                        std::istringstream is(bytes);
                        const Trace back = readTrace(is);
                        dec.work(back.insts.size(), bytes.size());
                        if (back.insts.size() != trace.insts.size())
                            ok = false;
                    }
                    Span write(tr, "store.write", "trace_store", &op);
                    store->store(traceId(spec.benches[i]), trace);
                    write.work(trace.insts.size());
                });
                return ok.load() &&
                       store->stats().writes == spec.benches.size();
            });
        }

        std::string warm_csv;
        {
            Span op(tr, "op.store_warm", "op", &root, true);
            L_.guard("layered store warm sweep == plain", [&] {
                auto warm_store = std::make_shared<TraceStore>(dir);
                std::vector<std::shared_ptr<Trace>> slots(
                    spec.benches.size());
                parallelFor(spec.benches.size(), kJobs, [&](size_t i) {
                    Span load(tr, "store.load", "trace_store", &op);
                    std::optional<Trace> t =
                        warm_store->load(traceId(spec.benches[i]));
                    if (t) {
                        load.work(t->insts.size());
                        slots[i] = std::make_shared<Trace>(std::move(*t));
                    }
                });
                TraceMap loaded;
                for (size_t i = 0; i < slots.size(); ++i) {
                    if (!slots[i])
                        return false;
                    loaded[spec.benches[i]] = slots[i];
                }
                slots.clear();
                const auto results =
                    replayPhase(tr, op, spec, loaded, kJobs, L_);
                freeTraces(tr, op, loaded);
                warm_csv = reportCsv(tr, op, results);
                reportJson(tr, op, results);
                return warm_store->stats().corrupt == 0 &&
                       checked(tr, op, L_, warm_csv, artifact_);
            });
        }

        {
            Span op(tr, "op.nostore_sweep", "op", &root, true);
            L_.guard("layered no-store sweep == warm", [&] {
                const auto results =
                    replayPhase(tr, op, spec, traces, kJobs, L_);
                return checked(tr, op, L_, reportCsv(tr, op, results),
                               warm_csv);
            });
        }
        freeTraces(tr, root, traces);
        Span cleanup(tr, "cleanup", "setup", &root);
        fs::remove_all(dir);
    }
};

/** Daemon cold submit, warm repeats, federated submit. */
class ServiceMix : public Workload
{
  public:
    ServiceMix(const Options &opt, Ledger &L) : Workload(opt, L)
    {
        // The reference every service artifact must equal: a direct
        // in-process sweep of the default submit grid (untimed).
        SweepEngine engine(kJobs);
        engine.setTraceStore(nullptr);
        const auto results = engine.run(
            makeSpec(kDefaultSuiteName, CoreRegistry::instance().kinds(),
                     opt.insts, opt.seed));
        artifact_ = sweepCsv(results);
        recordSimCounts(L, results);
    }

    void plain(unsigned iter) override
    {
        Tracer off(false);
        const Span none(off, "plain", "op", nullptr);
        Fleet fleet;
        const double t0 = nowSec();
        const bool up = L_.guard("service fleet start", [&] {
            fleet.start(opt_.workDir, "svc" + std::to_string(iter));
            return true;
        });
        L_.sample("setup_s", nowSec() - t0);
        if (!up)
            return;
        L_.sample("service.daemon_start_s", fleet.daemonsS);

        // Phase 1: one cold submit to the local daemon.
        double cold_s = 0;
        uint64_t gen_cold = 0, rep_cold = 0;
        L_.guard("daemon cold submit == direct sweep", [&] {
            const double s0 = nowSec();
            auto client = connect(off, none, fleet.localSock);
            const std::string got =
                submitWait(off, none, *client, submitFrame(opt_), "server");
            cold_s = nowSec() - s0;
            L_.sample("rss_mb", statusMb("VmRSS"));
            gen_cold = fleet.local->engine().traceGenerations();
            rep_cold = fleet.local->engine().replays();
            return L_.same(got, artifact_);
        });

        // Phase 2: closed-loop warm repeats.
        const double w0 = nowSec();
        warmPhase(off, none, fleet.localSock, false);
        const double warm_s = nowSec() - w0;
        L_.guard("warm phase: generations=0 replays=0", [&] {
            auto client = connect(off, none, fleet.localSock);
            const Frame st = client->request(Frame("stats"));
            L_.set("result_cache.hits",
                   double(st.uintField("cache_hits", 0)));
            L_.set("result_cache.misses",
                   double(st.uintField("cache_misses", 0)));
            L_.set("server.generations",
                   double(st.uintField("generations", 0)));
            L_.set("server.replays", double(st.uintField("replays", 0)));
            return st.uintField("generations", 0) == gen_cold &&
                   st.uintField("replays", 0) == rep_cold &&
                   st.uintField("busy", 1) == 0;
        });
        drain(fleet.local); // frees its traces before the fleet runs

        // Phase 3: one cold submit to the coordinator.
        double fed_s = 0;
        const uint64_t disp0 = counterValue("icfp_federation_dispatches");
        const uint64_t redisp0 =
            counterValue("icfp_federation_redispatches");
        L_.guard("federated submit == direct sweep", [&] {
            const double s0 = nowSec();
            auto client = connect(off, none, fleet.coordSock);
            const std::string got = submitWait(
                off, none, *client, submitFrame(opt_), "federation");
            fed_s = nowSec() - s0;
            return L_.same(got, artifact_) &&
                   fleet.coord->engine().replays() == 0;
        });
        L_.set("fed.dispatches",
               double(counterValue("icfp_federation_dispatches") - disp0));
        L_.set("fed.redispatches",
               double(counterValue("icfp_federation_redispatches") -
                      redisp0));

        L_.sample("cold_s", cold_s);
        L_.sample("alt_s", fed_s);
        L_.sample("iter_s", cold_s + warm_s + fed_s);
        L_.sample("submit_cold_s", cold_s);
        L_.sample("fed_submit_s", fed_s);
    }

    void layered(Tracer &tr, const Span &root,
                 const std::string &tag) override
    {
        Fleet fleet;
        std::unique_ptr<Server> p3, p4;
        {
            Span setup(tr, "setup", "setup", &root);
            fleet.start(opt_.workDir, tag);
            // Two more fresh peers for the shard-framed slices sent
            // straight to a daemon: their caches must be cold.
            p3 = startServer(opt_.workDir + "/" + tag + "-p3.sock", 2, true);
            p4 = startServer(opt_.workDir + "/" + tag + "-p4.sock", 2, true);
        }
        const SweepSpec spec =
            makeSpec(kDefaultSuiteName, CoreRegistry::instance().kinds(),
                     opt_.insts, opt_.seed);

        // The cold submit's work as explicit calls, then the submit.
        {
            Span op(tr, "op.direct_sweep", "op", &root, true);
            L_.guard("layered direct sweep == reference", [&] {
                TraceMap traces = genPhase(tr, op, spec, kJobs);
                const auto results =
                    replayPhase(tr, op, spec, traces, kJobs, L_);
                freeTraces(tr, op, traces);
                const std::string csv = reportCsv(tr, op, results);
                reportJson(tr, op, results);
                return checked(tr, op, L_, csv, artifact_);
            });
        }
        {
            Span op(tr, "op.submit_cold", "op", &root, true);
            L_.guard("layered cold submit == direct", [&] {
                auto client = connect(tr, op, fleet.localSock);
                {
                    Span ping(tr, "client.ping", "service", &op);
                    if (client->request(Frame("ping")).type() != "pong")
                        return false;
                    L_.sample("client.ping_ms", 1e3 * ping.end());
                }
                const std::string got = submitWait(
                    tr, op, *client, submitFrame(opt_), "server");
                return checked(tr, op, L_, got, artifact_);
            });
        }
        warmPhase(tr, root, fleet.localSock, true);
        {
            Span stop(tr, "drain", "setup", &root);
            drain(fleet.local);
        }

        double fed_s = 0;
        {
            Span op(tr, "op.fed_submit", "op", &root, true);
            L_.guard("layered federated submit == direct", [&] {
                auto client = connect(tr, op, fleet.coordSock);
                const std::string got = submitWait(
                    tr, op, *client, submitFrame(opt_), "federation");
                fed_s = op.seconds();
                return checked(tr, op, L_, got, artifact_);
            });
        }
        {
            Span stop(tr, "drain", "setup", &root);
            fleet.stop(); // frees the fleet's traces before the slices
        }

        // The same grid as two shard-framed slices sent straight to the
        // fresh peers, then parsed and merged here.
        {
            Span op(tr, "op.fed_slices", "op", &root, true);
            L_.guard("layered slice merge == direct", [&] {
                const std::string peers[2] = {p3->tcpEndpoint(),
                                              p4->tcpEndpoint()};
                std::string payload[2];
                double slice_s[2] = {0, 0};
                std::exception_ptr err[2];
                std::vector<std::thread> threads;
                for (int i = 0; i < 2; ++i) {
                    threads.emplace_back([&, i] {
                        try {
                            Span slice(tr, "fed.slice", "federation", &op);
                            auto client = connect(tr, slice, peers[i]);
                            payload[i] = submitWait(
                                tr, slice, *client,
                                submitFrame(opt_,
                                            std::to_string(i + 1) + "/2"),
                                "server");
                            slice_s[i] = slice.end();
                        } catch (...) {
                            err[i] = std::current_exception();
                        }
                    });
                }
                for (std::thread &t : threads)
                    t.join();
                for (const std::exception_ptr &e : err)
                    if (e)
                        std::rethrow_exception(e);
                std::vector<ShardArtifact> shards;
                {
                    Span parse(tr, "merge.parse", "merge", &op);
                    for (int i = 0; i < 2; ++i)
                        shards.push_back(parseShardArtifact(
                            payload[i], "peer " + peers[i]));
                    L_.sample("merge.parse_s", parse.end());
                }
                std::string merged;
                double merge_s = 0;
                {
                    Span merge(tr, "merge.merge", "merge", &op);
                    merged = mergeShards(shards);
                    merge_s = merge.end();
                    L_.sample("merge.merge_s", merge_s);
                }
                const double slowest = std::max(slice_s[0], slice_s[1]);
                L_.sample("fed.slice_s_max", slowest);
                L_.sample("fed.overhead_s", fed_s - slowest - merge_s);
                return checked(tr, op, L_, merged, artifact_);
            });
        }
        Span stop(tr, "drain", "setup", &root);
        drain(p3);
        drain(p4);
    }

  private:
    /** kWarmSubmits warm repeats from kWarmClients closed-loop clients,
     *  each on its own connection. With @p layer_samples the connect
     *  and ack times are sampled; without, the submit latencies. */
    void warmPhase(Tracer &tr, const Span &parent, const std::string &sock,
                   bool layer_samples)
    {
        std::atomic<unsigned> next{0};
        std::vector<std::thread> clients;
        for (unsigned c = 0; c < kWarmClients; ++c) {
            clients.emplace_back([&] {
                std::unique_ptr<ServiceClient> client;
                try {
                    double connect_s = 0;
                    client = connect(tr, parent, sock, &connect_s);
                    if (layer_samples)
                        L_.sample("client.connect_ms", 1e3 * connect_s);
                } catch (const std::exception &e) {
                    L_.op(false, std::string("warm connect: ") + e.what());
                    return;
                }
                while (next.fetch_add(1) < kWarmSubmits) {
                    Span op(tr, "op.submit_warm", "op", &parent, true);
                    L_.guard("warm submit == direct", [&] {
                        double ack_s = 0;
                        const std::string got =
                            submitWait(tr, op, *client, submitFrame(opt_),
                                       "server", &ack_s);
                        const bool ok = checked(tr, op, L_, got, artifact_);
                        if (layer_samples)
                            L_.sample("submit.ack_ms", 1e3 * ack_s);
                        else
                            L_.sample("submit_warm_ms", 1e3 * op.end());
                        return ok;
                    });
                }
            });
        }
        for (std::thread &t : clients)
            t.join();
    }
};

// ------------------------------------------------------------ metrics

struct MetricDef
{
    std::string name;
    std::string unit;
};

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},     {"cold_s", "s"},       {"alt_s", "s"},
        {"iter_s", "s"},      {"rss_mb", "MB"},      {"ok_frac", "ratio"},
        {"fig5_icfp_err_pp", "pp"},
    };
    return defs;
}

const std::vector<std::string> &
layerNames()
{
    static const std::vector<std::string> names = {
        "setup", "gen",   "trace_io", "trace_store", "core",       "sweep",
        "report", "merge", "service", "server",      "federation", "check"};
    return names;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            // The workloads' own user waits (0 where they do not apply).
            {"sweep_s", "s"},
            {"sweep_j1_s", "s"},
            {"store_fill_s", "s"},
            {"store_warm_s", "s"},
            {"store_nostore_s", "s"},
            {"store_bytes_mb", "MB"},
            {"submit_cold_s", "s"},
            {"service.daemon_start_s", "s"},
            {"submit_warm_p50_ms", "ms"},
            {"submit_warm_p99_ms", "ms"},
            {"submit_warm_n", "count"},
            {"fed_submit_s", "s"},
            {"failed_frac", "ratio"},
            {"peak_rss_mb", "MB"},
            // workloads + isa interpreter
            {"gen.s", "s"},
            {"gen.minsts_per_s", "Minst/s"},
            {"gen.count", "count"},
            // isa/trace_io, in memory
            {"trace_io.encode_s", "s"},
            {"trace_io.decode_s", "s"},
            {"trace_io.bytes_per_inst", "B/inst"},
            // sim/trace_store
            {"store.write_s", "s"},
            {"store.load_s", "s"},
            {"store.hits", "count"},
            {"store.misses", "count"},
            {"store.corrupt", "count"},
            // core models
            {"replay.s", "s"},
            {"replay.count", "count"},
            {"replay.minsts_per_s", "Minst/s"},
        };
        for (const CoreKind kind : allCoreKinds()) {
            d.push_back({std::string("replay.") + coreKindName(kind) +
                             ".minsts_per_s",
                         "Minst/s"});
        }
        const std::vector<MetricDef> rest = {
            {"replay.icfp.max_cell_s", "s"},
            // simulated counts: identical on a simulator-only change
            {"sim.cycles", "count"},
            {"icfp.rally_passes", "count"},
            {"icfp.rally_insts", "count"},
            {"icfp.sliced_insts", "count"},
            // sim/sweep, sim/report, sim/merge
            {"sweep.gen_phase_s", "s"},
            {"sweep.replay_phase_s", "s"},
            {"sweep.parallel_eff", "ratio"},
            {"report.csv_s", "s"},
            {"report.json_s", "s"},
            {"merge.parse_s", "s"},
            {"merge.merge_s", "s"},
            // service
            {"client.connect_ms", "ms"},
            {"client.ping_ms", "ms"},
            {"submit.ack_ms", "ms"},
            {"result_cache.hits", "count"},
            {"result_cache.misses", "count"},
            {"server.generations", "count"},
            {"server.replays", "count"},
            // service/federation
            {"fed.slice_s_max", "s"},
            {"fed.overhead_s", "s"},
            {"fed.dispatches", "count"},
            {"fed.redispatches", "count"},
            // tracing
            {"trace.wall_s", "s"},
            {"trace.unattributed_pct", "%"},
            {"trace.overhead_pct", "%"},
        };
        d.insert(d.end(), rest.begin(), rest.end());
        for (const std::string &layer : layerNames())
            d.push_back({"self." + layer + "_s", "s"});
        return d;
    }();
    return defs;
}

/** Per-layer values derived from the traced spans; times and counts
 *  are per traced iteration (@p iterations of them), so they do not
 *  depend on how many iterations fit in the run. */
void
spanMetrics(Ledger &L, const std::vector<SpanRec> &recs, double iterations)
{
    std::map<std::string, double> secs, insts, bytes, count;
    for (const SpanRec &s : recs) {
        secs[s.name] += 1e-6 * double(s.endUs - s.startUs) / iterations;
        insts[s.name] += double(s.insts) / iterations;
        bytes[s.name] += double(s.bytes) / iterations;
        count[s.name] += 1.0 / iterations;
    }
    const auto rate = [](double n, double s) {
        return s > 0 ? n / s / 1e6 : 0.0;
    };
    L.set("gen.s", secs["gen"]);
    L.set("gen.count", count["gen"]);
    L.set("gen.minsts_per_s", rate(insts["gen"], secs["gen"]));
    L.set("trace_io.encode_s", secs["trace_io.encode"]);
    L.set("trace_io.decode_s", secs["trace_io.decode"]);
    L.set("trace_io.bytes_per_inst",
          insts["trace_io.encode"] > 0
              ? bytes["trace_io.encode"] / insts["trace_io.encode"]
              : 0.0);
    L.set("store.write_s", secs["store.write"]);
    L.set("store.load_s", secs["store.load"]);
    double rs = 0, ri = 0, rc = 0;
    for (const CoreKind kind : allCoreKinds()) {
        const std::string n = std::string("replay.") + coreKindName(kind);
        rs += secs[n];
        ri += insts[n];
        rc += count[n];
        L.set(n + ".minsts_per_s", rate(insts[n], secs[n]));
    }
    L.set("replay.s", rs);
    L.set("replay.count", rc);
    L.set("replay.minsts_per_s", rate(ri, rs));
    L.set("sweep.gen_phase_s", secs["sweep.gen_phase"]);
    L.set("sweep.replay_phase_s", secs["sweep.replay_phase"]);
    L.set("report.csv_s", secs["report.csv"]);
    L.set("report.json_s", secs["report.json"]);
}

void
writeLayerTable(const std::string &path, const Analysis &a)
{
    std::ostringstream t;
    char line[160];
    std::snprintf(line, sizeof line, "%-12s %8s %12s %12s %8s\n", "layer",
                  "spans", "self_s", "wall_s", "wall_%");
    t << line;
    const double wall = a.wallS > 0 ? a.wallS : 1.0;
    for (const auto &[layer, row] : a.layers) {
        std::snprintf(line, sizeof line,
                      "%-12s %8llu %12.6f %12.6f %8.2f\n", layer.c_str(),
                      (unsigned long long)row.spans, row.selfS, row.wallS,
                      100.0 * row.wallS / wall);
        t << line;
    }
    std::snprintf(line, sizeof line, "%-12s %8s %12s %12.6f %8.2f\n",
                  "unattributed", "", "", a.unattributedS,
                  100.0 * a.unattributedS / wall);
    t << line;
    std::snprintf(line, sizeof line, "%-12s %8s %12s %12.6f %8.2f\n",
                  "wall", "", "", a.wallS, 100.0);
    t << line;
    std::ofstream(path) << t.str();
    std::fputs(t.str().c_str(), stderr);
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printResult(const Ledger &L, const std::vector<MetricDef> &defs,
            const std::map<std::string, double> &values)
{
    std::string out = "{\"correct\": ";
    out += L.failed() == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(L.attempted());
    out += ", \"failed\": " + std::to_string(L.failed());
    out += ", \"metrics\": {";
    for (size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        out += i ? ", " : "";
        out += "\"" + defs[i].name + "\": {\"value\": " +
               jsonNumber(it == values.end() ? 0.0 : it->second) +
               ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

std::unique_ptr<Workload>
makeWorkload(const Options &opt, Ledger &L)
{
    if (opt.workload == "fig5_cold")
        return std::make_unique<Fig5Cold>(opt, L);
    if (opt.workload == "store_nonspec")
        return std::make_unique<StoreNonspec>(opt, L);
    if (opt.workload == "service_mix")
        return std::make_unique<ServiceMix>(opt, L);
    usage("unknown workload '" + opt.workload + "'");
}

/** Traced mode: explicit layer calls, alternating untraced and traced
 *  iterations (and which of the two runs first) so the tracing overhead
 *  is a like-for-like ratio. */
void
tracedRun(const Options &opt, Workload &w, Ledger &L, double seconds,
          std::map<std::string, double> *values)
{
    Tracer off(false), on(true);
    std::vector<double> untraced_wall, traced_wall;
    const double start = nowSec();
    unsigned pair = 0;
    do {
        Tracer *order[2] = {&off, &on};
        if (pair % 2)
            std::swap(order[0], order[1]);
        for (Tracer *tr : order) {
            const bool traced = tr == &on;
            const std::string tag = std::string(traced ? "t" : "u") +
                                    std::to_string(pair);
            Span root(*tr, "iteration", "op", nullptr, true);
            w.layered(*tr, root, tag);
            (traced ? traced_wall : untraced_wall).push_back(root.end());
        }
        ++pair;
    } while (nowSec() - start < seconds);

    const std::vector<SpanRec> recs = on.records();
    const Analysis a = analyze(recs);
    std::vector<metrics::Span> chrome;
    for (const SpanRec &s : recs) {
        metrics::Span c;
        c.name = s.name;
        c.startUs = s.startUs;
        c.durUs = s.endUs - s.startUs;
        c.args = {{"layer", s.layer},
                  {"id", std::to_string(s.id)},
                  {"parent", std::to_string(s.parent)},
                  {"op", std::to_string(s.op)}};
        if (s.insts)
            c.args.emplace_back("insts", std::to_string(s.insts));
        if (s.bytes)
            c.args.emplace_back("bytes", std::to_string(s.bytes));
        chrome.push_back(std::move(c));
    }
    const std::string stem = opt.workDir + "/" + opt.workload;
    std::ofstream(stem + ".trace.json")
        << metrics::chromeTraceJson(chrome, 1, opt.workload);
    writeLayerTable(stem + ".layers.txt", a);

    const double iterations = double(traced_wall.size());
    spanMetrics(L, recs, iterations);
    for (const std::string &layer : layerNames()) {
        const auto it = a.layers.find(layer);
        L.set("self." + layer + "_s",
              it == a.layers.end() ? 0.0 : it->second.selfS / iterations);
    }
    L.set("trace.wall_s", a.wallS / iterations);
    L.set("trace.unattributed_pct",
          a.wallS > 0 ? 100.0 * a.unattributedS / a.wallS : 0.0);
    L.set("trace.overhead_pct",
          100.0 * (median(traced_wall) / median(untraced_wall) - 1.0));

    for (const MetricDef &m : perLayerMetrics())
        (*values)[m.name] = L.value(m.name);
    // Sampled per iteration: report the median.
    for (const char *name :
         {"sweep_s", "sweep_j1_s", "store_fill_s", "store_warm_s",
          "store_nostore_s", "store_bytes_mb", "submit_cold_s",
          "service.daemon_start_s", "fed_submit_s", "client.connect_ms",
          "client.ping_ms",
          "submit.ack_ms", "fed.slice_s_max", "fed.overhead_s",
          "merge.parse_s", "merge.merge_s", "sweep.parallel_eff",
          "replay.icfp.max_cell_s"}) {
        const std::vector<double> s = L.samples(name);
        if (!s.empty())
            (*values)[name] = median(s);
    }
    // Warm-submit percentiles pool the plain iterations' samples only:
    // the layered ones include span recording.
    const std::vector<double> warm = L.samples("submit_warm_ms");
    (*values)["submit_warm_p50_ms"] = percentile(warm, 0.50);
    (*values)["submit_warm_p99_ms"] = percentile(warm, 0.99);
    (*values)["submit_warm_n"] = double(warm.size());
    (*values)["failed_frac"] = double(L.failed()) / double(L.attempted());
    (*values)["peak_rss_mb"] = statusMb("VmHWM");
}

int
run(const Options &opt)
{
    // A stray environment store would turn cold sweeps warm.
    ::unsetenv("ICFP_TRACE_DIR");
    fs::create_directories(opt.workDir);
    Ledger L(opt.tamper);

    L.guard("artifact digest pinned for kSimSemanticsVersion " +
                std::to_string(kSimSemanticsVersion),
            [&] {
                const std::optional<std::string> want =
                    recordedPin(opt.pinsFile, opt.workload);
                return want && *want == digestHex(pinArtifact(opt.workload));
            });

    // Accuracy against the paper on the canonical Figure 5 grid (the
    // suite's own workload seeds, the default budget): a property of the
    // simulator build, so it moves with neither --seed nor --insts.
    L.guard("canonical Figure 5 grid", [&] {
        SweepEngine engine(kJobs);
        engine.setTraceStore(nullptr);
        L.set("fig5_icfp_err_pp",
              icfpErrPp(engine.run(makeSpec(kDefaultSuiteName,
                                            {CoreKind::InOrder,
                                             CoreKind::ICfp},
                                            kDefaultBenchInsts,
                                            std::nullopt))));
        return true;
    });

    std::unique_ptr<Workload> w = makeWorkload(opt, L);
    // Plain iterations give the end-to-end metrics; in traced mode they
    // take half the budget and give the workload's own user waits.
    const double plain_budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const double start = nowSec();
    unsigned iter = 0;
    do {
        // Hand the previous iteration's freed memory back to the kernel,
        // so every iteration starts from the same heap state, as a fresh
        // process would: timings then include the first-touch page
        // faults a user's cold run pays, and rss_mb counts live data.
        malloc_trim(0);
        w->plain(iter++);
    } while (iter < opt.minIters || nowSec() - start < plain_budget);

    L.dump(stderr);
    std::map<std::string, double> values;
    if (opt.trace) {
        tracedRun(opt, *w, L, opt.seconds - plain_budget, &values);
        printResult(L, perLayerMetrics(), values);
        return 0;
    }
    for (const char *name : {"setup_s", "cold_s", "alt_s", "iter_s"})
        values[name] = median(L.samples(name));
    values["rss_mb"] = median(L.samples("rss_mb"));
    values["ok_frac"] =
        double(L.attempted() - L.failed()) / double(L.attempted());
    values["fig5_icfp_err_pp"] = L.value("fig5_icfp_err_pp");
    printResult(L, endToEndMetrics(), values);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    if (opt.printPins) {
        for (const char *w : {"fig5_cold", "store_nonspec", "service_mix"}) {
            std::printf("%u %s %llu %llu %s\n", kSimSemanticsVersion, w,
                        (unsigned long long)kPinInsts,
                        (unsigned long long)kPinSeed,
                        digestHex(pinArtifact(w)).c_str());
        }
        return 0;
    }
    if (opt.workload.empty())
        usage("--workload is required");
    try {
        return opt.setupProbe ? setupProbe(opt) : run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
