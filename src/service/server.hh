/**
 * @file
 * The simulation service daemon: a Unix-domain-socket server that turns
 * the sweep engine into a long-lived, queryable experiment service.
 *
 * Architecture (one resident process, a hot result cache, many
 * clients):
 *
 *   client conns ──► handler threads ──► bounded JobQueue ──► dispatcher
 *                                                               │
 *                      ResultCache (rendered artifacts) ◄───────┤
 *                      SweepEngine (worker pool)        ◄───────┘
 *
 *  - One handler thread per connection speaks the frame protocol
 *    (service/protocol.hh): versioned hello, then ping / submit /
 *    status / result / stats requests.
 *  - `submit` enqueues a sweep job. The queue is bounded
 *    (ServerOptions::queueDepth counts queued + running jobs); a full
 *    queue answers an explicit `busy` frame — backpressure is always
 *    visible to the client, never a silent drop.
 *  - The dispatcher executes jobs one at a time in submission order
 *    (deterministic, and one grid already saturates the host). A
 *    coordinator federates a whole-grid job; every other job — a
 *    plain daemon's grid or a peer's `shard=i/N` slice — takes the one
 *    local path, runGridLocally() (service/federation/coordinator.hh),
 *    which the coordinator's own fallbacks take too: the engine's pool
 *    runs the grid and sweepArtifact(), the `icfp-sim sweep` emitter,
 *    renders it, so the artifact is byte-identical to a cold run.
 *  - Completed artifacts land in the ResultCache keyed by the full
 *    request fingerprint (service/result_cache.hh); a repeated submit
 *    on a warm daemon performs zero trace generations and zero replays,
 *    which the per-job stderr ledger line makes greppable:
 *
 *      icfp-sim serve: job 2 fp=… cache=hit generations=0 replays=0 …
 *
 *  - SIGTERM (or requestDrain()) drains gracefully: the listener
 *    closes, new submits are refused with an error, every queued and
 *    running job is finished, waiting clients receive their results,
 *    and join() returns after "drained cleanly" is logged.
 *
 * The class is embeddable (tests run it in-process against a temp
 * socket); `icfp-sim serve` wraps it with signal handling.
 */

#ifndef ICFP_SERVICE_SERVER_HH
#define ICFP_SERVICE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hh"
#include "service/federation/coordinator.hh"
#include "service/federation/peer_pool.hh"
#include "service/federation/transport.hh"
#include "service/protocol.hh"
#include "service/result_cache.hh"
#include "sim/sweep.hh"

namespace icfp {
namespace service {

struct ServerOptions
{
    std::string socketPath;
    unsigned jobs = 0;      ///< engine worker threads; 0 = default
    size_t queueDepth = 8;  ///< max queued + running jobs
    uint64_t resultCacheMaxBytes = 256 * 1024 * 1024;
    /** Persistent result-cache directory (the disk tier of
     *  service/result_cache.hh); unset = memory-only cache. */
    std::optional<std::string> cacheDir;
    /** Default per-job wall-clock limit in seconds (0 = none); a
     *  submit frame's deadline_sec field overrides it per job. */
    uint64_t deadlineSec = 0;
    /** Additional TCP listener, "host:port" (port 0 = ephemeral —
     *  tcpEndpoint() reports the bound one); "" = Unix socket only. */
    std::string listenTcp;
    /** Peer daemon endpoints (`--peers`): non-empty turns this daemon
     *  into a federation coordinator — whole-grid submits are sliced
     *  across the healthy peers and merged byte-identically. */
    std::vector<std::string> peers;
    /** Straggler deadline per dispatched slice, in seconds (0 = none);
     *  see CoordinatorOptions::sliceDeadlineSec. */
    uint64_t sliceDeadlineSec = 0;
    /** Per-job Chrome-trace directory (`--job-trace-dir`): when set,
     *  every job's phase spans are durably published as
     *  `<dir>/job-<id>.trace.json` (loadable in chrome://tracing /
     *  Perfetto). Out-of-band: artifacts stay byte-identical either
     *  way. */
    std::optional<std::string> jobTraceDir;
};

/** Finished-job records kept for `status`/`result` (see jobs_). */
constexpr size_t kMaxRetainedJobs = 64;

/** Monotonic service counters (the `stats` frame mirrors these). */
struct ServerStats
{
    uint64_t submitted = 0;   ///< jobs accepted into the queue
    uint64_t completed = 0;   ///< jobs finished successfully
    uint64_t failed = 0;      ///< jobs that threw during execution
    uint64_t busy = 0;        ///< submits refused by the full queue
    uint64_t cacheHits = 0;   ///< jobs served from the ResultCache
    uint64_t cacheMisses = 0; ///< jobs that had to run the grid
    uint64_t generations = 0; ///< engine trace generations (lifetime)
    uint64_t replays = 0;     ///< engine simulate() calls (lifetime)
    uint64_t cancelled = 0;   ///< jobs cancelled via the cancel verb
    uint64_t deadlineExpired = 0; ///< jobs killed by their deadline
};

class Server
{
  public:
    explicit Server(ServerOptions options);

    /** Drains and joins if still running. */
    ~Server();

    /**
     * Bind the socket, start the accept loop and the dispatcher.
     * @throws std::runtime_error if the socket cannot be created
     */
    void start();

    /** Begin a graceful drain (idempotent; safe from any thread). */
    void requestDrain();

    /** True once requestDrain() has been called. */
    bool draining() const { return draining_.load(); }

    /**
     * Wait for the drain to finish: accept loop and dispatcher exited,
     * every accepted job completed, every handler thread joined, socket
     * file removed. Call after requestDrain().
     */
    void join();

    ServerStats stats() const;
    const std::string &socketPath() const { return options_.socketPath; }

    /** The bound TCP endpoint ("host:port"), "" without --listen-tcp.
     *  With port 0 this is where the ephemeral port surfaces — tests
     *  and the serve banner read it after start(). */
    const std::string &tcpEndpoint() const
    {
        return tcpListener_.boundSpec();
    }

    /** The peer pool (null unless this daemon is a coordinator). */
    PeerPool *peerPool() { return pool_.get(); }

    /** The shared engine (tests inspect its counters directly). */
    SweepEngine &engine() { return engine_; }

  private:
    enum class JobState { Queued, Running, Done, Failed, Cancelled };

    /** One submitted sweep request and (eventually) its artifact. */
    struct Job
    {
        uint64_t id = 0;
        /** What to run: the full grid, or — for a shard submit — one
         *  slice of it (request.shard). */
        GridRequest request;
        uint64_t fingerprint = 0;    ///< resultCacheKey()

        /** Cooperative cancel flag handed to SweepEngine::run(); set by
         *  the cancel verb or the deadline watchdog while the engine is
         *  mid-grid (atomic: read by workers without mutex_). */
        std::atomic<bool> cancelRequested{false};
        bool hasDeadline = false;
        std::chrono::steady_clock::time_point deadlineAt{};
        uint64_t deadlineSec = 0;    ///< for the error message
        std::atomic<bool> deadlineHit{false}; ///< watchdog, not client

        JobState state = JobState::Queued;
        bool cached = false;
        std::string artifact;        ///< rendered report (Done)
        std::string error;           ///< failure message (Failed)

        /** Submission instant (metrics::nowMicros()): queue-wait and
         *  wall-time observations measure from here. */
        uint64_t submitUs = 0;
        /** Phase spans for the per-job Chrome trace; non-null only
         *  when the daemon has a jobTraceDir. */
        std::shared_ptr<metrics::SpanLog> spanLog;
        std::string traceFile; ///< where the trace JSON publishes
    };

    void acceptLoop();
    void dispatchLoop();
    void watchdogLoop();
    void executeJob(const std::shared_ptr<Job> &job);
    void handleConnection(int fd, uint64_t conn_id);
    void reapFinishedConnections();
    Frame handleSubmit(const Frame &request, std::shared_ptr<Job> *out);
    Frame handleCancel(const Frame &request);
    /** The `metrics` scrape: local registry exposition; on a
     *  coordinator with scope=fleet, merged with a peer-labelled
     *  scrape of every healthy peer. */
    Frame handleMetrics(const Frame &request);
    /** Durably publish the job's Chrome trace (no-op without a span
     *  log). Called before the job's completion is observable so a
     *  waiting client can read the file as soon as it has the result. */
    void publishJobTrace(const Job &job, const char *outcome);
    /** Whole seconds since start(). */
    uint64_t uptimeSec() const;
    /** The one finish transition (mutex_ held): sets @p state and
     *  @p error, bumps stats_ and the icfp_jobs_* counters, frees the
     *  queue slot and retires the record into the bounded finished
     *  history. Callers notify completeCv_ after unlocking. */
    void finishJobLocked(const std::shared_ptr<Job> &job, JobState state,
                         std::string error = std::string());
    Frame jobStatusFrame(const Job &job) const;
    /** The `result` and `submit wait` answer, for any state. */
    Frame jobResultFrame(const Job &job) const;
    /** The no-job `status` answer: daemon identity, queue occupancy,
     *  the running job (if any), and — on a coordinator — one flat
     *  field group per peer (peer<i>, peer<i>_state, …). */
    Frame daemonStatusFrame();
    static const char *stateName(JobState state);

    ServerOptions options_;
    SweepEngine engine_;
    ResultCache cache_;
    uint64_t startUs_ = 0; ///< start() instant (metrics::nowMicros())
    /** Federation (only when options_.peers is non-empty). */
    std::unique_ptr<PeerPool> pool_;
    std::unique_ptr<Coordinator> coordinator_;

    Listener unixListener_;
    Listener tcpListener_; ///< valid only with options_.listenTcp
    std::atomic<bool> draining_{false};
    std::thread acceptThread_;
    std::thread dispatchThread_;
    /** Deadline watchdog: a 50ms poll over the job table that expires
     *  queued jobs directly and flags running ones for cooperative
     *  cancellation. Runs through the drain (deadlines still bound
     *  drain time) and stops only once the dispatcher has exited. */
    std::thread watchdogThread_;
    std::atomic<bool> watchdogStop_{false};

    mutable std::mutex mutex_; ///< queue, jobs table, stats
    std::condition_variable queueCv_;    ///< dispatcher wakeups
    std::condition_variable completeCv_; ///< waiting submitters
    std::deque<std::shared_ptr<Job>> queue_;
    size_t activeJobs_ = 0; ///< queued + running (the depth bound)
    uint64_t nextJobId_ = 1;
    /** Job records for status/result lookups. Finished jobs are
     *  retained newest-first up to kMaxRetainedJobs (their artifacts
     *  would otherwise accumulate unbounded, uncapped by the
     *  ResultCache's byte limit); an expired id answers "unknown job",
     *  but the rendered bytes usually still live in the ResultCache. */
    std::map<uint64_t, std::shared_ptr<Job>> jobs_;
    std::deque<uint64_t> finishedJobs_; ///< completion order, oldest first
    ServerStats stats_;

    std::mutex connMutex_; ///< handler thread + open-fd bookkeeping
    uint64_t nextConnId_ = 1;
    std::map<uint64_t, std::thread> connThreads_;
    /** Handlers that have exited and await a join: the accept loop
     *  reaps them each iteration, so a long-lived daemon never
     *  accumulates dead joinable threads. */
    std::vector<uint64_t> finishedConns_;
    std::vector<int> connFds_;
};

} // namespace service
} // namespace icfp

#endif // ICFP_SERVICE_SERVER_HH
