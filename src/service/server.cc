#include "service/server.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <filesystem>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "common/durable_file.hh"
#include "common/logging.hh"
#include "service/client.hh"
#include "service/ledger.hh"
#include "sim/merge.hh"
#include "sim/version_info.hh"
#include "workloads/suite_registry.hh"

namespace icfp {
namespace service {

namespace {

/** Inverse of splitCommaList for the normalized request fields a
 *  coordinator forwards to peers. */
std::string
joinComma(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &item : items) {
        if (!out.empty())
            out += ',';
        out += item;
    }
    return out;
}

/** Rows this daemon runs for @p request: its slice, or the whole grid. */
size_t
localRows(const GridRequest &request)
{
    return request.shard ? shardRowCount(request.grid.size(), *request.shard)
                         : request.grid.size();
}

/** A deadline failure's error prefix; finishJobLocked() counts on it. */
constexpr const char *kDeadlineExceeded = "deadline_exceeded";

/** Registry mirror of stats_ job outcomes (the scrape surface; stats_
 *  stays the per-server accessor — several servers can share one
 *  process in tests, so the registry aggregates across them). */
void
countJobEvent(const char *name)
{
    metrics::counter(std::string("icfp_jobs_") + name).inc();
}

} // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), engine_(options_.jobs),
      cache_(options_.resultCacheMaxBytes,
             options_.cacheDir.value_or(""))
{
    if (options_.queueDepth == 0)
        options_.queueDepth = 1;
    if (options_.jobTraceDir) {
        std::error_code ec;
        std::filesystem::create_directories(*options_.jobTraceDir, ec);
        if (ec) {
            // Tracing is observability, never availability: a bad dir
            // downgrades to "tracing unavailable" (submit --trace gets
            // a loud error), the daemon itself stays up.
            ICFP_WARN("job trace: cannot create %s: %s — tracing off",
                      options_.jobTraceDir->c_str(),
                      ec.message().c_str());
            options_.jobTraceDir.reset();
        }
    }
}

Server::~Server()
{
    if (acceptThread_.joinable() || dispatchThread_.joinable()) {
        requestDrain();
        join();
    } else if (pool_) {
        pool_->stop();
    }
}

void
Server::start()
{
    // The Unix listener carries the daemon's safety guards (refuse a
    // non-socket file, refuse a live daemon, reclaim a stale socket);
    // the optional TCP listener is what lets this daemon be a
    // federation peer for coordinators on other hosts.
    unixListener_ = Listener::listenUnix(options_.socketPath);
    if (!options_.listenTcp.empty())
        tcpListener_ = Listener::listenTcp(options_.listenTcp);

    if (!options_.peers.empty()) {
        pool_ = std::make_unique<PeerPool>(
            options_.peers, fingerprintHex(registryFingerprint()));
        CoordinatorOptions copts;
        copts.sliceDeadlineSec = options_.sliceDeadlineSec;
        coordinator_ =
            std::make_unique<Coordinator>(*pool_, engine_, copts);
        pool_->start();
    }

    startUs_ = metrics::nowMicros();
    ledgerLine("listening on %s (jobs=%u queue-depth=%zu fp=%s)",
               options_.socketPath.c_str(), engine_.jobs(),
               options_.queueDepth,
               fingerprintHex(registryFingerprint()).c_str());
    if (tcpListener_.valid())
        ledgerLine("listening on tcp %s", tcpListener_.boundSpec().c_str());
    if (pool_) {
        ledgerLine("federation coordinator over %zu peer(s)",
                   pool_->size());
    }
    if (options_.jobTraceDir)
        ledgerLine("job traces publish to %s", options_.jobTraceDir->c_str());
    acceptThread_ = std::thread(&Server::acceptLoop, this);
    dispatchThread_ = std::thread(&Server::dispatchLoop, this);
    watchdogThread_ = std::thread(&Server::watchdogLoop, this);
}

void
Server::requestDrain()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        draining_.store(true);
    }
    queueCv_.notify_all();
}

void
Server::join()
{
    if (acceptThread_.joinable())
        acceptThread_.join(); // exits on the drain flag, closes listener
    if (dispatchThread_.joinable())
        dispatchThread_.join(); // exits once every accepted job finished
    // Stop the watchdog only after the dispatcher: deadlines must keep
    // bounding jobs that execute during the drain.
    watchdogStop_.store(true);
    if (watchdogThread_.joinable())
        watchdogThread_.join();
    // The pool outlives the dispatcher (federated jobs executing during
    // the drain still dispatch and collect slices); with the dispatcher
    // gone, nothing uses it anymore.
    if (pool_)
        pool_->stop();

    // Every job is now Done/Failed and every waiting submitter has been
    // notified; unblock handler threads parked in read() so they see
    // EOF and exit. SHUT_RD only: a handler mid-response keeps writing
    // (its sends are already bounded by the per-socket send timeout).
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (const int fd : connFds_)
            ::shutdown(fd, SHUT_RD);
    }
    std::map<uint64_t, std::thread> handlers;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        handlers.swap(connThreads_);
        finishedConns_.clear();
    }
    for (auto &[id, thread] : handlers)
        thread.join();

    ::unlink(options_.socketPath.c_str());
    const ServerStats s = stats();
    ledgerLine("drained cleanly (%llu jobs completed, %llu failed)",
               (unsigned long long)s.completed,
               (unsigned long long)s.failed);
}

uint64_t
Server::uptimeSec() const
{
    return (metrics::nowMicros() - startUs_) / 1000000;
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServerStats s = stats_;
    s.generations = engine_.traceGenerations();
    s.replays = engine_.replays();
    return s;
}

void
Server::reapFinishedConnections()
{
    std::vector<std::thread> done;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (const uint64_t id : finishedConns_) {
            const auto it = connThreads_.find(id);
            if (it != connThreads_.end()) {
                done.push_back(std::move(it->second));
                connThreads_.erase(it);
            }
        }
        finishedConns_.clear();
    }
    // Join outside the lock: the handler signals "finished" as its last
    // statement, so these joins return as soon as its epilogue runs.
    for (std::thread &thread : done)
        thread.join();
}

void
Server::acceptLoop()
{
    while (!draining_.load()) {
        reapFinishedConnections();
        pollfd pfds[2];
        nfds_t nfds = 0;
        pfds[nfds++] = {unixListener_.fd(), POLLIN, 0};
        if (tcpListener_.valid())
            pfds[nfds++] = {tcpListener_.fd(), POLLIN, 0};
        const int ready = ::poll(pfds, nfds, 100);
        if (ready <= 0)
            continue; // timeout or EINTR: recheck the drain flag
        for (nfds_t i = 0; i < nfds; ++i) {
            if (!(pfds[i].revents & POLLIN))
                continue;
            const int fd = ::accept(pfds[i].fd, nullptr, nullptr);
            if (fd < 0)
                continue;
            // Bound sends so a client that stops reading its (possibly
            // multi-megabyte) result cannot park a handler thread
            // forever — with the write stuck past the timeout,
            // writeFrame fails and the session ends, which is also what
            // lets drain terminate.
            const timeval send_timeout{30, 0};
            ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                         sizeof send_timeout);
            // Connection-count backpressure, mirroring the queue's
            // `busy` discipline: past the cap, refuse explicitly
            // instead of spawning an unbounded number of handler
            // threads.
            constexpr size_t kMaxConnections = 256;
            std::lock_guard<std::mutex> lock(connMutex_);
            if (connFds_.size() >= kMaxConnections) {
                try {
                    writeFrame(fd, errorFrame("too many connections"));
                } catch (...) {
                }
                ::close(fd);
                continue;
            }
            const uint64_t conn_id = nextConnId_++;
            connFds_.push_back(fd);
            connThreads_.emplace(
                conn_id,
                std::thread(&Server::handleConnection, this, fd,
                            conn_id));
        }
    }
    unixListener_.close();
    tcpListener_.close();
}

void
Server::dispatchLoop()
{
    while (true) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            queueCv_.wait(lock, [&] {
                return !queue_.empty() || draining_.load();
            });
            if (queue_.empty())
                break; // draining and nothing left in flight
            job = queue_.front();
            queue_.pop_front();
            job->state = JobState::Running;
        }
        executeJob(job);
    }
}

void
Server::finishJobLocked(const std::shared_ptr<Job> &job, JobState state,
                        std::string error)
{
    job->state = state;
    job->error = std::move(error);
    if (state == JobState::Done) {
        ++stats_.completed;
        ++(job->cached ? stats_.cacheHits : stats_.cacheMisses);
        countJobEvent("completed");
    } else if (state == JobState::Cancelled) {
        ++stats_.cancelled;
        countJobEvent("cancelled");
    } else {
        ++stats_.failed;
        countJobEvent("failed");
        if (job->error.rfind(kDeadlineExceeded, 0) == 0) {
            ++stats_.deadlineExpired;
            countJobEvent(kDeadlineExceeded);
        }
    }
    --activeJobs_;
    metrics::gauge("icfp_queue_jobs").sub(1);
    // Bound the finished-job history: waiters hold their own
    // shared_ptr, so expiring the oldest record only ends its
    // status/result addressability, never a pending delivery.
    finishedJobs_.push_back(job->id);
    while (finishedJobs_.size() > kMaxRetainedJobs) {
        jobs_.erase(finishedJobs_.front());
        finishedJobs_.pop_front();
    }
}

void
Server::watchdogLoop()
{
    while (!watchdogStop_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        const auto now = std::chrono::steady_clock::now();
        std::vector<std::shared_ptr<Job>> expired_queued;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            // Expired queued jobs are finished right here: the
            // dispatcher never sees them, their queue slot frees
            // immediately, and their waiters get the error now instead
            // of after everything ahead of them in the queue.
            for (auto it = queue_.begin(); it != queue_.end();) {
                const Job &job = **it;
                if (job.hasDeadline && now >= job.deadlineAt) {
                    finishJobLocked(*it, JobState::Failed,
                                    std::string(kDeadlineExceeded) +
                                        ": queued longer than " +
                                        std::to_string(job.deadlineSec) +
                                        "s limit");
                    expired_queued.push_back(*it);
                    it = queue_.erase(it);
                } else {
                    ++it;
                }
            }
            // A running job is the engine's to stop: flag it and let
            // executeJob's SweepCancelled path do the bookkeeping at
            // the next row boundary.
            for (const auto &[id, job] : jobs_) {
                if (job->state == JobState::Running && job->hasDeadline &&
                    now >= job->deadlineAt && !job->deadlineHit) {
                    job->deadlineHit = true;
                    job->cancelRequested.store(true);
                }
            }
        }
        if (!expired_queued.empty()) {
            completeCv_.notify_all();
            for (const auto &job : expired_queued) {
                ledgerLine(job->id,
                           "fp=%s DEADLINE_EXCEEDED limit=%llus (queued)",
                           fingerprintHex(job->fingerprint).c_str(),
                           (unsigned long long)job->deadlineSec);
            }
        }
    }
}

void
Server::executeJob(const std::shared_ptr<Job> &job)
{
    const GridRequest &request = job->request;
    // The work ledger: a ResultCache hit must advance neither counter —
    // that is the "zero generations and zero replays" service contract.
    const uint64_t gen_before = engine_.traceGenerations();
    const uint64_t rep_before = engine_.replays();

    // Every observation below is out-of-band: spans and histograms are
    // written, never read back into the job, so the artifact bytes are
    // independent of whether tracing is on.
    const uint64_t exec_start = metrics::nowMicros();
    if (job->spanLog)
        job->spanLog->add("queue_wait", job->submitUs, exec_start);
    metrics::histogram("icfp_job_queue_wait_us",
                       metrics::latencyBucketsUs())
        .observe(exec_start - job->submitUs);

    bool cached = false;
    bool was_cancelled = false;
    std::string artifact;
    std::string error;
    FederatedOutcome fed;
    bool federated = false;
    CacheTier tier = CacheTier::None;
    std::optional<std::string> hit = cache_.lookup(job->fingerprint, &tier);
    if (job->spanLog) {
        job->spanLog->add("cache_probe", exec_start, metrics::nowMicros(),
                          {{"tier", cacheTierName(tier)}});
    }
    if (hit) {
        artifact = std::move(*hit);
        cached = true;
    } else {
        try {
            if (coordinator_ && !request.shard) {
                // A whole-grid submit on a coordinator: slice it across
                // the healthy peers and merge the answers. A shard submit
                // is already some coordinator's slice and runs here.
                const uint64_t fed_start = metrics::nowMicros();
                fed = coordinator_->run(request, &job->cancelRequested);
                artifact = std::move(fed.artifact);
                federated = true;
                if (job->spanLog) {
                    job->spanLog->add(
                        "federation", fed_start, metrics::nowMicros(),
                        {{"peers", std::to_string(fed.peers)},
                         {"dispatched", std::to_string(fed.dispatched)},
                         {"redispatched",
                          std::to_string(fed.redispatched)},
                         {"local_slices",
                          std::to_string(fed.localSlices)}});
                }
            } else {
                artifact = runGridLocally(engine_, request, request.shard,
                                          &job->cancelRequested,
                                          job->spanLog.get());
            }
            cache_.insert(job->fingerprint, artifact);
        } catch (const SweepCancelled &) {
            was_cancelled = true;
        } catch (const std::exception &e) {
            error = e.what();
        }
    }

    const uint64_t generations = engine_.traceGenerations() - gen_before;
    const uint64_t replays = engine_.replays() - rep_before;

    metrics::histogram("icfp_job_duration_us", metrics::latencyBucketsUs())
        .observe(metrics::nowMicros() - job->submitUs);
    // The watchdog set the flag: this is a timeout, not a client cancel,
    // and answers as an explicit failure.
    const bool timed_out = was_cancelled && job->deadlineHit.load();
    if (timed_out) {
        error = std::string(kDeadlineExceeded) + ": exceeded " +
                std::to_string(job->deadlineSec) + "s limit";
    }
    const JobState state = !error.empty()  ? JobState::Failed
                           : was_cancelled ? JobState::Cancelled
                                           : JobState::Done;
    // Publish the trace BEFORE the state transition below makes the
    // job's completion observable: a waiting client that just got its
    // result can open the trace file immediately.
    publishJobTrace(*job, timed_out ? kDeadlineExceeded
                          : cached  ? "done (cache hit)"
                                    : stateName(state));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (state == JobState::Done) {
            job->cached = cached;
            job->artifact = std::move(artifact);
        }
        finishJobLocked(job, state, error);
    }
    completeCv_.notify_all();

    if (timed_out) {
        ledgerLine(job->id, "fp=%s DEADLINE_EXCEEDED limit=%llus",
                   fingerprintHex(job->fingerprint).c_str(),
                   (unsigned long long)job->deadlineSec);
    } else if (was_cancelled) {
        ledgerLine(job->id, "fp=%s CANCELLED at row boundary",
                   fingerprintHex(job->fingerprint).c_str());
    } else if (error.empty()) {
        // Federated jobs extend the ledger with the partial-failure
        // counters ("… federation peers=3 dispatched=3 redispatched=1
        // local=0"): CI greps redispatched= to prove a peer death was
        // recovered from while the artifact stayed byte-identical.
        char fed_suffix[128] = "";
        if (federated) {
            std::snprintf(fed_suffix, sizeof fed_suffix,
                          " federation peers=%u dispatched=%u "
                          "redispatched=%u local=%u%s",
                          fed.peers, fed.dispatched, fed.redispatched,
                          fed.localSlices,
                          fed.degradedLocal ? " degraded" : "");
        }
        ledgerLine(job->id,
                   "fp=%s cache=%s generations=%llu replays=%llu "
                   "rows=%zu bytes=%zu%s",
                   fingerprintHex(job->fingerprint).c_str(),
                   cached ? "hit" : "miss",
                   (unsigned long long)generations,
                   (unsigned long long)replays, localRows(request),
                   job->artifact.size(), fed_suffix);
    } else {
        ledgerLine(job->id, "fp=%s FAILED: %s",
                   fingerprintHex(job->fingerprint).c_str(),
                   error.c_str());
    }
}

void
Server::publishJobTrace(const Job &job, const char *outcome)
{
    if (!job.spanLog || job.traceFile.empty())
        return;
    const std::string json =
        metrics::chromeTraceJson(job.spanLog->snapshot(), job.id, outcome);
    std::string err;
    if (!writeFileDurable(job.traceFile, json, "job_trace", &err)) {
        // Same degradation as the result cache's disk tier: a trace is
        // an observability artifact, so a failed write is a warning and
        // a counter, never a failed job.
        metrics::counter("icfp_job_trace_write_failures").inc();
        ICFP_WARN("job trace: %s — trace dropped, job unaffected",
                  err.c_str());
        return;
    }
    ledgerLine(job.id, "trace=%s spans=%zu", job.traceFile.c_str(),
               job.spanLog->snapshot().size());
}

const char *
Server::stateName(JobState state)
{
    switch (state) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Failed: return "failed";
      case JobState::Cancelled: return "cancelled";
    }
    return "?";
}

Frame
Server::jobStatusFrame(const Job &job) const
{
    Frame frame("status");
    frame.addUint("job", job.id);
    frame.addString("state", stateName(job.state));
    frame.addUint("cached", job.cached ? 1 : 0);
    frame.addString("fp", fingerprintHex(job.fingerprint));
    if (job.state == JobState::Failed)
        frame.addString("error", job.error);
    return frame;
}

Frame
Server::jobResultFrame(const Job &job) const
{
    const std::string name = "job " + std::to_string(job.id);
    switch (job.state) {
      case JobState::Done: {
        Frame frame("result");
        frame.addUint("job", job.id);
        frame.addUint("cached", job.cached ? 1 : 0);
        frame.addString("payload", job.artifact);
        return frame;
      }
      case JobState::Failed:
        return errorFrame(name + " failed: " + job.error);
      case JobState::Cancelled:
        return errorFrame(name + " cancelled");
      default:
        return errorFrame(name + " not finished (state=" +
                          stateName(job.state) + ")");
    }
}

Frame
Server::daemonStatusFrame()
{
    Frame frame("status");
    frame.addUint("proto", kProtocolVersion);
    frame.addString("fp", fingerprintHex(registryFingerprint()));
    frame.addUint("uptime_sec", uptimeSec());
    {
        std::lock_guard<std::mutex> lock(mutex_);
        frame.addUint("queue_depth", options_.queueDepth);
        frame.addUint("active", activeJobs_);
        frame.addUint("queued", queue_.size());
        frame.addUint("draining", draining_.load() ? 1 : 0);
        frame.addUint("completed", stats_.completed);
        frame.addUint("failed", stats_.failed);
        frame.addUint("cancelled", stats_.cancelled);
        // At most one job runs at a time (serial dispatcher); name it
        // when present. Additive field — absent on an idle daemon.
        for (const auto &[id, job] : jobs_) {
            if (job->state == JobState::Running) {
                frame.addUint("running_job", id);
                break;
            }
        }
    }
    if (pool_) {
        // Flat per-peer field groups (the protocol has no nesting):
        // peer0=…, peer0_state=…, peer0_rtt_us=…, …
        const std::vector<PeerStatus> peers = pool_->statuses();
        frame.addUint("peers", peers.size());
        for (size_t i = 0; i < peers.size(); ++i) {
            const std::string p = "peer" + std::to_string(i);
            frame.addString(p, peers[i].spec);
            frame.addString(p + "_state", peerStateName(peers[i].state));
            if (!peers[i].fp.empty())
                frame.addString(p + "_fp", peers[i].fp);
            frame.addUint(p + "_rtt_us", peers[i].rttMicros);
            frame.addUint(p + "_inflight", peers[i].inflight);
            frame.addUint(p + "_active", peers[i].active);
            frame.addUint(p + "_depth", peers[i].queueDepth);
            if (!peers[i].error.empty())
                frame.addString(p + "_error", peers[i].error);
        }
    }
    return frame;
}

Frame
Server::handleSubmit(const Frame &request, std::shared_ptr<Job> *out)
{
    const std::string suite =
        request.stringField("suite", kDefaultSuiteName);
    const SuiteRegistry &registry = SuiteRegistry::instance();
    if (!registry.has(suite))
        return errorFrame("unknown suite '" + suite + "'");
    const std::string format = request.stringField("format", "csv");
    if (format != "csv" && format != "json") {
        // Only the machine-readable artifact formats: a service result
        // must be byte-comparable to `icfp-sim sweep --format csv/json`.
        return errorFrame("format must be csv or json");
    }
    const uint64_t insts = request.uintField("insts", kDefaultBenchInsts);
    if (insts == 0)
        return errorFrame("insts must be positive");
    const std::optional<uint64_t> seed = request.uintField("seed");

    SweepSpec spec;
    const std::string benches = request.stringField("benches", "all");
    if (benches == "all") {
        for (const BenchmarkSpec &bench : registry.suite(suite))
            spec.benches.push_back(bench.name);
    } else {
        spec.benches = splitCommaList(benches);
    }
    if (spec.benches.empty())
        return errorFrame("no benchmarks selected");
    for (const std::string &bench : spec.benches) {
        // Non-fatal lookup: an unknown name is the client's error, and
        // a daemon must answer it, not exit.
        if (!registry.findBenchmark(bench))
            return errorFrame("unknown benchmark '" + bench + "'");
    }

    std::vector<CoreKind> kinds;
    const std::string cores = request.stringField("cores", "all");
    if (cores == "all") {
        kinds = CoreRegistry::instance().kinds();
    } else {
        for (const std::string &name : splitCommaList(cores)) {
            const std::optional<CoreKind> kind = parseCoreKind(name);
            if (!kind)
                return errorFrame("unknown core '" + name + "'");
            kinds.push_back(*kind);
        }
    }
    if (kinds.empty())
        return errorFrame("no cores selected");
    const SimConfig cfg; // Table 1 defaults, exactly like `sweep`
    for (const CoreKind kind : kinds)
        spec.variants.push_back({coreKindName(kind), kind, cfg});
    spec.insts = insts;
    spec.seed = seed;

    // Bound the expanded grid: a hostile or confused client could list
    // one valid bench name millions of times and ask the serial
    // dispatcher (or expandGrid's allocation) to absorb it. The cap is
    // also reconciled with kMaxFrameBytes: at ~500 artifact bytes per
    // grid row, 20000 cells stays safely under the 16MB frame bound, so
    // an accepted job's result is always deliverable.
    constexpr size_t kMaxGridCells = 20000;
    if (spec.benches.size() * spec.variants.size() > kMaxGridCells) {
        return errorFrame("grid of " +
                          std::to_string(spec.benches.size() *
                                         spec.variants.size()) +
                          " cells exceeds the per-request limit of " +
                          std::to_string(kMaxGridCells));
    }

    // Shard field (additive, protocol stays v1): the submit names one
    // slice of the grid — this daemon is being used as a federation
    // peer (or a manual distributed run). The shard's artifact is
    // sim/merge.hh-framed, not the plain report.
    std::optional<ShardSpec> shard;
    if (request.has("shard")) {
        const std::string text = request.stringField("shard");
        shard = parseShardSpec(text);
        if (!shard) {
            return errorFrame("bad shard '" + text +
                              "' (use i/N with 1 <= i <= N <= " +
                              std::to_string(kMaxShards) + ")");
        }
    }

    // Opt-in per-job tracing: refused loudly when the daemon has no
    // trace directory — a client asking for a trace it will never get
    // is a misconfiguration, not something to silently ignore.
    const bool trace = request.uintField("trace", 0) != 0;
    if (trace && !options_.jobTraceDir) {
        return errorFrame(
            "tracing unavailable: daemon started without --job-trace-dir");
    }

    auto job = std::make_shared<Job>();
    GridRequest &req = job->request;
    req.suite = suite;
    req.format = format;
    req.insts = insts;
    req.seed = seed;
    // Normalized lists: what a coordinator forwards so a peer's
    // expandGrid reproduces this grid exactly.
    req.benches = joinComma(spec.benches);
    std::vector<std::string> core_names;
    for (const CoreKind kind : kinds)
        core_names.push_back(coreKindName(kind));
    req.cores = joinComma(core_names);
    req.grid = expandGrid(spec);
    req.gridFp = gridFingerprint(req.grid, insts, seed);
    req.shard = shard;
    // The cache key is always over the FULL grid plus the shard
    // identity: a shard 1/2 of {a,b} and a whole-grid submit of {a}
    // expand to the same job list but frame different bytes.
    job->fingerprint = resultCacheKey(
        req.grid, insts, seed, suite, format, registryFingerprint(),
        shard ? "shard=" + shardName(*shard) : std::string());
    // Per-job deadline: frame field overrides the daemon default; 0
    // (either way) means unbounded. The clock starts at submission —
    // queue wait counts against the limit, matching what a client's own
    // wall-clock budget would measure.
    job->deadlineSec =
        request.uintField("deadline_sec", options_.deadlineSec);
    if (job->deadlineSec > 0) {
        job->hasDeadline = true;
        job->deadlineAt = std::chrono::steady_clock::now() +
                          std::chrono::seconds(job->deadlineSec);
    }

    job->submitUs = metrics::nowMicros();
    if (trace)
        job->spanLog = std::make_shared<metrics::SpanLog>();

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (draining_.load())
            return errorFrame("draining: not accepting new jobs");
        if (activeJobs_ >= options_.queueDepth) {
            ++stats_.busy;
            metrics::counter("icfp_busy_refusals").inc();
            Frame busy("busy");
            busy.addUint("depth", options_.queueDepth);
            return busy;
        }
        job->id = nextJobId_++;
        if (trace) {
            job->traceFile = *options_.jobTraceDir + "/job-" +
                             std::to_string(job->id) + ".trace.json";
        }
        jobs_[job->id] = job;
        queue_.push_back(job);
        ++activeJobs_;
        metrics::gauge("icfp_queue_jobs").add(1);
        ++stats_.submitted;
        countJobEvent("submitted");
    }
    queueCv_.notify_one();

    *out = job;
    Frame frame("submitted");
    frame.addUint("job", job->id);
    frame.addString("fp", fingerprintHex(job->fingerprint));
    frame.addUint("rows", localRows(req));
    frame.addUint("grid_rows", req.grid.size());
    if (shard)
        frame.addString("shard", shardName(*shard));
    if (!job->traceFile.empty())
        frame.addString("trace_file", job->traceFile);
    return frame;
}

Frame
Server::handleMetrics(const Frame &request)
{
    const std::string format = request.stringField("format", "text");
    if (format != "text" && format != "json")
        return errorFrame("metrics format must be text or json");
    const std::string scope = request.stringField("scope", "fleet");
    if (scope != "fleet" && scope != "local")
        return errorFrame("metrics scope must be fleet or local");

    std::string text = metrics::Registry::instance().textExposition();
    if (scope == "fleet" && pool_) {
        // The rollup: scrape every healthy peer (scope=local so a peer
        // that is itself a coordinator answers only for itself) and
        // merge the expositions with a peer="spec" label. A failed
        // scrape degrades to a partial rollup plus a counter — the
        // coordinator's own metrics always answer.
        std::vector<std::pair<std::string, std::string>> peer_texts;
        for (const PeerStatus &peer : pool_->statuses()) {
            if (peer.state != PeerState::Healthy)
                continue;
            try {
                ClientOptions copts;
                copts.timeoutSec = 5;
                ServiceClient client(peer.spec, copts);
                Frame scrape("metrics");
                scrape.addString("format", "text");
                scrape.addString("scope", "local");
                Frame reply = client.request(scrape);
                if (reply.type() != "metrics") {
                    throw ProtocolError("peer answered '" + reply.type() +
                                        "'");
                }
                peer_texts.emplace_back(peer.spec,
                                        reply.stringField("payload"));
            } catch (const std::exception &e) {
                metrics::counter("icfp_metrics_scrape_failures").inc();
                ledgerLine("metrics scrape of peer %s failed: %s",
                           peer.spec.c_str(), e.what());
            }
        }
        text = metrics::mergeExpositions(text, peer_texts);
    }

    Frame frame("metrics");
    frame.addUint("uptime_sec", uptimeSec());
    frame.addString("format", format);
    frame.addString("payload", format == "json"
                                   ? metrics::expositionTextToJson(text)
                                   : text);
    return frame;
}

Frame
Server::handleCancel(const Frame &request)
{
    const std::optional<uint64_t> id = request.uintField("job");
    if (!id)
        return errorFrame("missing job id");

    std::shared_ptr<Job> queued_cancel;
    Frame response = errorFrame("unknown job " + std::to_string(*id));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = jobs_.find(*id);
        if (it != jobs_.end()) {
            const std::shared_ptr<Job> &job = it->second;
            if (job->state == JobState::Queued) {
                // Remove from the queue right here: the slot frees
                // immediately and the dispatcher never sees the job.
                for (auto qit = queue_.begin(); qit != queue_.end();
                     ++qit) {
                    if (*qit == job) {
                        queue_.erase(qit);
                        break;
                    }
                }
                finishJobLocked(job, JobState::Cancelled);
                queued_cancel = job;
                response = Frame("cancelled");
                response.addUint("job", job->id);
                response.addString("was", "queued");
            } else if (job->state == JobState::Running) {
                // Best effort: the engine observes the flag at the next
                // row boundary; executeJob does the state transition.
                // The answer is immediate — cancellation is a request,
                // status/wait report when it lands.
                job->cancelRequested.store(true);
                response = Frame("cancelled");
                response.addUint("job", job->id);
                response.addString("was", "running");
            } else {
                response = errorFrame(
                    "job " + std::to_string(job->id) + " already " +
                    stateName(job->state));
            }
        }
    }
    if (queued_cancel) {
        completeCv_.notify_all();
        ledgerLine(queued_cancel->id, "fp=%s CANCELLED while queued",
                   fingerprintHex(queued_cancel->fingerprint).c_str());
    }
    return response;
}

void
Server::handleConnection(int fd, uint64_t conn_id)
{
    std::string buffer;
    try {
        writeFrame(fd, helloFrame());
        while (std::optional<Frame> request = readFrame(fd, &buffer)) {
            const std::string &type = request->type();
            if (type == "ping") {
                Frame pong("pong");
                pong.addUint("proto", kProtocolVersion);
                pong.addString("fp",
                               fingerprintHex(registryFingerprint()));
                pong.addUint("uptime_sec", uptimeSec());
                {
                    // Lifetime outcome counters ride along (additive
                    // fields): a ping doubles as a one-frame health
                    // summary.
                    std::lock_guard<std::mutex> lock(mutex_);
                    pong.addUint("completed", stats_.completed);
                    pong.addUint("failed", stats_.failed);
                    pong.addUint("cancelled", stats_.cancelled);
                }
                writeFrame(fd, pong);
            } else if (type == "metrics") {
                writeFrame(fd, handleMetrics(*request));
            } else if (type == "stats") {
                const ServerStats s = stats();
                Frame frame("stats");
                frame.addUint("submitted", s.submitted);
                frame.addUint("completed", s.completed);
                frame.addUint("failed", s.failed);
                frame.addUint("busy", s.busy);
                frame.addUint("cache_hits", s.cacheHits);
                frame.addUint("cache_misses", s.cacheMisses);
                frame.addUint("generations", s.generations);
                frame.addUint("replays", s.replays);
                frame.addUint("cancelled", s.cancelled);
                frame.addUint("deadline_expired", s.deadlineExpired);
                frame.addUint("cache_entries", cache_.entries());
                frame.addUint("cache_bytes", cache_.bytes());
                writeFrame(fd, frame);
            } else if (type == "status" || type == "result") {
                const std::optional<uint64_t> id =
                    request->uintField("job");
                if (!id && type == "status") {
                    // No job id: answer for the daemon itself — queue
                    // occupancy, identity, per-peer health. This is
                    // both the CLI's `status` verb and the federation
                    // health poll.
                    writeFrame(fd, daemonStatusFrame());
                    continue;
                }
                Frame response = errorFrame(
                    !id ? "missing job id"
                        : "unknown job " + std::to_string(*id));
                if (id) {
                    std::lock_guard<std::mutex> lock(mutex_);
                    const auto it = jobs_.find(*id);
                    if (it != jobs_.end()) {
                        response = type == "status"
                                       ? jobStatusFrame(*it->second)
                                       : jobResultFrame(*it->second);
                    }
                }
                writeFrame(fd, response);
            } else if (type == "submit") {
                // Validate the wait field before enqueueing: a
                // type-malformed wait must reject the whole request,
                // not orphan an already-accepted job.
                const uint64_t wait = request->uintField("wait", 0);
                std::shared_ptr<Job> job;
                writeFrame(fd, handleSubmit(*request, &job));
                if (job && wait) {
                    std::unique_lock<std::mutex> lock(mutex_);
                    completeCv_.wait(lock, [&] {
                        return job->state == JobState::Done ||
                               job->state == JobState::Failed ||
                               job->state == JobState::Cancelled;
                    });
                    const Frame response = jobResultFrame(*job);
                    lock.unlock();
                    writeFrame(fd, response);
                }
            } else if (type == "cancel") {
                writeFrame(fd, handleCancel(*request));
            } else {
                writeFrame(fd,
                           errorFrame("unknown request type '" + type +
                                      "'"));
            }
        }
    } catch (const std::exception &e) {
        // A malformed frame, a vanished peer, or any per-request
        // failure (e.g. an allocation the request provoked) ends this
        // session with a best-effort diagnostic; an exception escaping
        // the thread would std::terminate the whole daemon.
        try {
            writeFrame(fd, errorFrame(e.what()));
        } catch (...) {
        }
    }
    // Deregister before close: join() shutdown()s every fd still in
    // connFds_, and a closed number could have been reused by then.
    // Marking the connection finished (last) lets the accept loop reap
    // this thread instead of holding it joinable for the daemon's life.
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (auto it = connFds_.begin(); it != connFds_.end(); ++it) {
            if (*it == fd) {
                connFds_.erase(it);
                break;
            }
        }
        finishedConns_.push_back(conn_id);
    }
    ::close(fd);
}

} // namespace service
} // namespace icfp
