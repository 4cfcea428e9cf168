/**
 * @file
 * The federation coordinator: executes one accepted sweep job across
 * the peer daemons and stitches the answer back together, byte-
 * identical to a local `icfp-sim sweep` of the same grid.
 *
 * Execution plan for a job over an R-row grid with H healthy peers:
 *
 *   slices = min(H, R) round-robin ShardSpec slices (sim/sweep.hh's
 *   shardJobs partition — the same one `sweep --shard i/N` uses), one
 *   collector thread per slice:
 *
 *     slice 1/3 ──submit{shard=1/3,wait}──► peer A ──result──┐
 *     slice 2/3 ──submit{shard=2/3,wait}──► peer B ──result──┼─ merge
 *     slice 3/3 ──submit{shard=3/3,wait}──► peer C ──result──┘
 *
 *   Each returned payload is a shard artifact (sim/merge.hh) that is
 *   parsed and validated — shard coordinates, grid row count, and the
 *   grid fingerprint must match the coordinator's own expansion —
 *   before it is accepted; mergeShards() then re-interleaves the
 *   verbatim rows into the unsharded report. Determinism end to end:
 *   every peer renders rows with the same emitters as a local sweep,
 *   so the merged artifact is byte-identical to one process running
 *   the full grid.
 *
 * Failure handling (the tentpole's partial-failure contract):
 *
 *  - A slice whose peer fails — connect refused, fingerprint rejected,
 *    error/busy answer, death mid-job (EOF), malformed or mismatched
 *    artifact — is re-dispatched to another healthy peer, or, when no
 *    peer remains, run by runGridLocally() exactly as a peer runs it.
 *    Every recovery increments the `redispatched` ledger count.
 *  - A slice that exceeds sliceDeadlineSec without a result is a
 *    straggler: the remote job is cancelled best-effort (the peer
 *    observes its cooperative cancel flag at the next row boundary)
 *    and the slice re-dispatched.
 *  - Zero healthy peers degrades to a pure-local run of the whole
 *    grid (runGridLocally) — same artifact, `peers=0` in the ledger.
 *  - The job's own cancel flag is honored mid-collect: outstanding
 *    remote slices are cancelled and SweepCancelled propagates.
 *
 * Fault points `federation.dispatch` / `federation.collect` force the
 * failure paths deterministically (common/fault_inject.hh).
 */

#ifndef ICFP_SERVICE_FEDERATION_COORDINATOR_HH
#define ICFP_SERVICE_FEDERATION_COORDINATOR_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "service/federation/peer_pool.hh"
#include "sim/sweep.hh"

namespace icfp {
namespace service {

struct CoordinatorOptions
{
    /** Per-slice wall-clock budget per dispatch attempt, in seconds;
     *  a slice still unanswered past it is treated as a straggler and
     *  re-dispatched. 0 = wait forever. */
    uint64_t sliceDeadlineSec = 0;
};

/** One sweep request, as a daemon job, a federated job or a peer's
 *  slice: the normalized fields a peer re-expands (they must reproduce
 *  the grid exactly) plus the full expansion everything runs from. */
struct GridRequest
{
    std::string suite;
    std::string format;  ///< "csv" | "json"
    std::string benches; ///< normalized comma list ("all" expanded)
    std::string cores;   ///< normalized comma list ("all" expanded)
    uint64_t insts = 0;
    std::optional<uint64_t> seed;
    std::vector<SweepJob> grid; ///< full expanded grid
    uint64_t gridFp = 0;        ///< gridFingerprint(grid, insts, seed)
    /** The slice a `shard=i/N` submit named: only it runs, shard-
     *  framed (sim/merge.hh), and it is never re-federated. */
    std::optional<ShardSpec> shard;
};

/**
 * The one local run path — a daemon's grid, a peer's slice, and a
 * coordinator's fallback slice or peerless grid: run @p request's grid,
 * or only @p slice of it, on @p engine and render it with
 * sweepArtifact(). @p spans (optional) also gets "report_emit".
 * @throws SweepCancelled when @p cancel is observed set
 */
std::string runGridLocally(SweepEngine &engine, const GridRequest &request,
                           const std::optional<ShardSpec> &slice,
                           const std::atomic<bool> *cancel,
                           metrics::SpanLog *spans);

/** How a federated job went (the server's ledger line mirrors this). */
struct FederatedOutcome
{
    std::string artifact;   ///< merged, byte-identical to a local sweep
    unsigned peers = 0;     ///< healthy peers when dispatch began
    unsigned dispatched = 0;   ///< slices initially sent to a peer
    unsigned redispatched = 0; ///< recovery dispatches (peer or local)
    unsigned localSlices = 0;  ///< slices that ended on the local engine
    bool degradedLocal = false; ///< no healthy peer: plain local run
};

class Coordinator
{
  public:
    /** @param engine the daemon's own engine — the local fallback */
    Coordinator(PeerPool &pool, SweepEngine &engine,
                CoordinatorOptions options);

    /**
     * Run @p request federated and return the merged artifact.
     * @param cancel the job's cooperative cancel flag (may be null)
     * @throws SweepCancelled when @p cancel is observed set
     * @throws MergeError / ProtocolError / std::runtime_error on
     *         unrecoverable failures (every peer AND the local
     *         fallback failed)
     */
    FederatedOutcome run(const GridRequest &request,
                         const std::atomic<bool> *cancel);

  private:
    /** Run one slice to completion (remote with re-dispatch, then
     *  runGridLocally); fills artifact text + its source label. */
    void runSlice(const GridRequest &request, const ShardSpec &slice,
                  const std::atomic<bool> *cancel, std::string *artifact,
                  std::string *source, FederatedOutcome *outcome,
                  std::mutex *outcome_mutex);

    /** One remote attempt: submit the slice to @p peer with wait=1,
     *  tick-poll for the result (cancel + straggler deadline checked
     *  each tick), validate the returned shard artifact.
     *  @return the raw shard-artifact payload
     *  @throws on any failure (caller re-dispatches) */
    std::string dispatchRemote(const GridRequest &request,
                               const ShardSpec &slice, size_t peer,
                               const std::atomic<bool> *cancel);

    /** Best-effort cancel of remote @p job_id on @p peer (fresh
     *  connection; all failures swallowed — the peer may be dead,
     *  which is exactly why we are cancelling). */
    void cancelRemote(size_t peer, uint64_t job_id);

    PeerPool &pool_;
    SweepEngine &engine_;
    CoordinatorOptions options_;
};

} // namespace service
} // namespace icfp

#endif // ICFP_SERVICE_FEDERATION_COORDINATOR_HH
