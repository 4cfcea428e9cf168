#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <thread>

#include "common/fault_inject.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "sim/trace_store.hh"

namespace icfp {

namespace {

/** Per-(bench, scheme) replay-duration series — the ROADMAP's replay
 *  tail (art/mcf outliers) becomes directly scrapeable. Lookup cost is
 *  one small string build + map find per multi-millisecond replay. */
void
observeReplay(const std::string &bench, CoreKind core, uint64_t micros)
{
    metrics::histogram("icfp_replay_duration_us{bench=\"" +
                           metrics::escapeLabelValue(bench) +
                           "\",core=\"" + coreKindName(core) + "\"}",
                       metrics::latencyBucketsUs())
        .observe(micros);
}

} // namespace

std::vector<SweepJob>
expandGrid(const SweepSpec &spec)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(spec.benches.size() * spec.variants.size());
    for (const std::string &bench : spec.benches) {
        for (const SweepVariant &variant : spec.variants) {
            SweepJob job;
            job.bench = bench;
            job.variant = variant.label;
            job.core = variant.core;
            job.config = variant.config;
            job.gridIndex = jobs.size();
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::optional<ShardSpec>
parseShardSpec(const std::string &text)
{
    const size_t slash = text.find('/');
    if (slash == 0 || slash == std::string::npos ||
        slash + 1 >= text.size()) {
        return std::nullopt;
    }
    const std::string index_text = text.substr(0, slash);
    const std::string count_text = text.substr(slash + 1);
    const auto all_digits = [](const std::string &s) {
        return !s.empty() &&
               std::all_of(s.begin(), s.end(),
                           [](char c) { return c >= '0' && c <= '9'; });
    };
    if (!all_digits(index_text) || !all_digits(count_text))
        return std::nullopt;
    // kMaxShards also bounds the digit count, so strtoull cannot
    // overflow (and absurd splits are rejected rather than truncated).
    if (index_text.size() > 9 || count_text.size() > 9)
        return std::nullopt;
    const unsigned long long index = std::strtoull(index_text.c_str(),
                                                   nullptr, 10);
    const unsigned long long count = std::strtoull(count_text.c_str(),
                                                   nullptr, 10);
    if (index < 1 || count < 1 || index > count || count > kMaxShards)
        return std::nullopt;
    ShardSpec shard;
    shard.index = static_cast<unsigned>(index - 1);
    shard.count = static_cast<unsigned>(count);
    return shard;
}

std::string
shardName(const ShardSpec &shard)
{
    return std::to_string(shard.index + 1) + "/" +
           std::to_string(shard.count);
}

size_t
shardRowCount(size_t grid_size, const ShardSpec &shard)
{
    ICFP_ASSERT(shard.count >= 1 && shard.index < shard.count);
    if (shard.index >= grid_size)
        return 0;
    // Indices {shard.index, shard.index + count, ...} below grid_size.
    return (grid_size - shard.index - 1) / shard.count + 1;
}

std::vector<SweepJob>
shardJobs(const std::vector<SweepJob> &jobs, const ShardSpec &shard)
{
    if (!shard.active())
        return jobs;
    std::vector<SweepJob> mine;
    mine.reserve(shardRowCount(jobs.size(), shard));
    for (const SweepJob &job : jobs)
        if (job.gridIndex % shard.count == shard.index)
            mine.push_back(job);
    return mine;
}

std::vector<std::string>
splitCommaList(const std::string &list)
{
    std::vector<std::string> items;
    size_t start = 0;
    while (start <= list.size()) {
        const size_t comma = list.find(',', start);
        const size_t end = comma == std::string::npos ? list.size() : comma;
        if (end > start)
            items.push_back(list.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return items;
}

std::vector<std::string>
uniqueFirstUse(const std::vector<std::string> &names)
{
    std::vector<std::string> unique;
    for (const std::string &name : names)
        if (std::find(unique.begin(), unique.end(), name) == unique.end())
            unique.push_back(name);
    return unique;
}

void
parallelFor(size_t n, unsigned jobs, const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (jobs <= 1 || n == 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;

    auto worker = [&]() {
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                return;
            }
        }
    };

    const size_t thread_count = std::min<size_t>(jobs, n);
    std::vector<std::thread> threads;
    threads.reserve(thread_count);
    for (size_t t = 0; t < thread_count; ++t)
        threads.emplace_back(worker);
    for (std::thread &thread : threads)
        thread.join();
    if (error)
        std::rethrow_exception(error);
}

unsigned
defaultSweepJobs()
{
    if (const char *env = std::getenv("ICFP_SWEEP_JOBS")) {
        const long v = std::atol(env);
        if (v >= 1)
            return static_cast<unsigned>(v);
        return 1;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

SweepEngine::SweepEngine(unsigned jobs)
    : jobs_(jobs ? jobs : defaultSweepJobs())
{
}

void
SweepEngine::setTraceStore(std::shared_ptr<TraceStore> store)
{
    store_ = std::move(store);
}

uint64_t
SweepEngine::traceGenerations() const
{
    return generations_.load();
}

uint64_t
SweepEngine::replays() const
{
    return replays_.load();
}

uint64_t
SweepEngine::peakTracesHeld() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return peakHeld_;
}

std::shared_ptr<const Trace>
SweepEngine::cachedTrace(const TraceKey &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = traces_.find(key);
    if (it == traces_.end())
        return nullptr;
    static metrics::Counter &memory_hits =
        metrics::counter("icfp_trace_memory_hits");
    memory_hits.inc();
    return it->second;
}

std::shared_ptr<const Trace>
SweepEngine::loadOrGenerate(const TraceKey &key)
{
    // Resolving the spec up front also stamps the benchmark's
    // workload-definition version into the store key, so a stored trace
    // generated by an older definition of this one benchmark can never
    // serve (it reads as corrupt and is regenerated).
    BenchmarkSpec spec = findBenchmark(std::get<0>(key));
    TraceId id;
    id.bench = std::get<0>(key);
    id.insts = std::get<1>(key);
    if (std::get<2>(key))
        id.seed = std::get<3>(key);
    id.defVersion = spec.defVersion;

    if (store_) {
        if (std::optional<Trace> cached = store_->load(id))
            return std::make_shared<const Trace>(std::move(*cached));
    }
    if (id.seed)
        spec.workload.seed = *id.seed;
    const uint64_t t0 = metrics::nowMicros();
    auto trace = std::make_shared<const Trace>(makeBenchTrace(spec, id.insts));
    // Both ledgers advance together: the per-engine atomic stays
    // authoritative for this engine's accessors (several engines can
    // coexist in one process), the registry series aggregates
    // process-wide for the metrics scrape.
    generations_.fetch_add(1);
    static metrics::Counter &generations_total =
        metrics::counter("icfp_trace_generations");
    generations_total.inc();
    metrics::histogram("icfp_trace_gen_duration_us{bench=\"" +
                           metrics::escapeLabelValue(id.bench) + "\"}",
                       metrics::latencyBucketsUs())
        .observe(metrics::nowMicros() - t0);
    if (store_)
        store_->store(id, *trace);
    return trace;
}

const Trace &
SweepEngine::trace(const std::string &bench, uint64_t insts,
                   std::optional<uint64_t> seed)
{
    const TraceKey key{bench, insts, seed.has_value(), seed.value_or(0)};
    if (std::shared_ptr<const Trace> held = cachedTrace(key))
        return *held;
    // Load or generate outside the lock; on a key race the first insert
    // wins and the duplicate is dropped (generation is deterministic, so
    // both are identical anyway).
    std::shared_ptr<const Trace> trace = loadOrGenerate(key);
    std::lock_guard<std::mutex> lock(mutex_);
    return *traces_.emplace(key, std::move(trace)).first->second;
}

std::vector<SweepResult>
SweepEngine::run(const SweepSpec &spec)
{
    return run(expandGrid(spec), spec.insts, spec.seed);
}

SweepResult
SweepEngine::replayCell(const SweepJob &job, const Trace &trace)
{
    SweepResult out;
    out.bench = job.bench;
    out.variant = job.variant;
    out.core = job.core;
    const uint64_t t0 = metrics::nowMicros();
    out.result = simulate(job.core, job.config, trace);
    replays_.fetch_add(1);
    static metrics::Counter &replays_total = metrics::counter("icfp_replays");
    replays_total.inc();
    observeReplay(job.bench, job.core, metrics::nowMicros() - t0);
    return out;
}

std::vector<SweepResult>
SweepEngine::runOnTrace(const Trace &trace,
                        const std::vector<SweepVariant> &variants,
                        const std::string &bench_label)
{
    std::vector<SweepResult> results(variants.size());
    parallelFor(variants.size(), jobs_, [&](size_t i) {
        const SweepVariant &variant = variants[i];
        results[i] = replayCell(
            {bench_label, variant.label, variant.core, variant.config}, trace);
    });
    return results;
}

std::vector<SweepResult>
SweepEngine::run(const std::vector<SweepJob> &jobs, uint64_t insts,
                 std::optional<uint64_t> seed,
                 const std::atomic<bool> *cancel,
                 metrics::SpanLog *spans)
{
    // Validate every bench name on the calling thread first:
    // findBenchmark is fatal on an unknown name, and exit(1) must not
    // fire from a worker while sibling threads are mid-generation.
    std::vector<std::string> bench_names;
    bench_names.reserve(jobs.size());
    for (const SweepJob &job : jobs)
        bench_names.push_back(job.bench);
    const std::vector<std::string> benches = uniqueFirstUse(bench_names);
    for (const std::string &bench : benches)
        findBenchmark(bench);

    // Each bench's cells in grid order, and how many are unfinished.
    std::vector<std::vector<size_t>> bench_cells(benches.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const auto b =
            std::find(benches.begin(), benches.end(), jobs[i].bench);
        bench_cells[size_t(b - benches.begin())].push_back(i);
    }
    std::vector<size_t> unfinished(benches.size());
    for (size_t b = 0; b < benches.size(); ++b)
        unfinished[b] = bench_cells[b].size();

    // Cooperative cancellation: polled once per row (before a bench's
    // trace and before each grid cell). A worker that observes the flag
    // throws SweepCancelled, which ends the pool like any other error.
    const auto checkCancel = [cancel]() {
        if (cancel && cancel->load(std::memory_order_relaxed))
            throw SweepCancelled();
    };

    // One pool, no barrier. A worker replays a queued cell if there is
    // one; otherwise it claims the next bench in first-use order, gets
    // its trace and queues that bench's cells, each holding the trace.
    // A bench is claimed only while the queue is empty, when every live
    // trace is held by a busy worker, so at most jobs_ traces are alive
    // at once, and each is freed when its last cell finishes. A waiting
    // worker needs a trace to become ready or a worker to fail: both
    // notify every waiter, and no worker waits once an error is set.
    struct Cell
    {
        size_t index;
        size_t bench;
        std::shared_ptr<const Trace> trace;
    };
    std::mutex mutex;
    std::condition_variable wake;
    std::deque<Cell> queue;
    size_t next_bench = 0; ///< benches claimed
    size_t ready = 0;      ///< claimed benches whose cells are queued
    size_t held = 0;       ///< claimed benches with unfinished cells
    size_t peak = 0;
    std::exception_ptr error;
    // Each cell writes only its own preallocated slot, so completion
    // order is free to vary while result order stays fixed.
    std::vector<SweepResult> results(jobs.size());
    const uint64_t gen_start = metrics::nowMicros();
    uint64_t gen_end = gen_start;

    const auto worker = [&]() {
        std::unique_lock<std::mutex> lock(mutex);
        try {
            while (!error) {
                if (!queue.empty()) {
                    Cell cell = std::move(queue.front());
                    queue.pop_front();
                    lock.unlock();
                    checkCancel();
                    if (ICFP_FAULT_POINT("sweep.job"))
                        throw std::runtime_error(
                            "injected fault: sweep job execution failed");
                    results[cell.index] =
                        replayCell(jobs[cell.index], *cell.trace);
                    cell.trace.reset(); // freed before it is counted gone
                    lock.lock();
                    if (--unfinished[cell.bench] == 0)
                        --held;
                } else if (next_bench < benches.size()) {
                    const size_t b = next_bench++;
                    peak = std::max(peak, ++held);
                    lock.unlock();
                    checkCancel();
                    const TraceKey key{benches[b], insts, seed.has_value(),
                                       seed.value_or(0)};
                    std::shared_ptr<const Trace> trace = cachedTrace(key);
                    if (!trace)
                        trace = loadOrGenerate(key);
                    lock.lock();
                    for (const size_t i : bench_cells[b])
                        queue.push_back({i, b, trace});
                    if (++ready == benches.size())
                        gen_end = metrics::nowMicros();
                    wake.notify_all();
                } else if (ready < next_bench) {
                    wake.wait(lock);
                } else {
                    return;
                }
            }
        } catch (...) {
            if (!lock.owns_lock())
                lock.lock();
            if (!error)
                error = std::current_exception();
            wake.notify_all();
        }
    };

    // worker() catches its own exceptions, and a second call on the same
    // thread returns at once; parallelFor joins every thread.
    parallelFor(std::min<size_t>(jobs_, jobs.size()), jobs_,
                [&](size_t) { worker(); });
    {
        std::lock_guard<std::mutex> lock(mutex_);
        peakHeld_ = std::max<uint64_t>(peakHeld_, peak);
    }

    if (spans && ready == benches.size()) {
        spans->add("trace_gen", gen_start, gen_end,
                   {{"benches", std::to_string(benches.size())}});
    }
    if (error)
        std::rethrow_exception(error);
    if (spans) {
        spans->add("replay", gen_end, metrics::nowMicros(),
                   {{"rows", std::to_string(jobs.size())}});
    }
    return results;
}

} // namespace icfp
