#include "service/federation/coordinator.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>

#include "common/fault_inject.hh"
#include "common/metrics.hh"
#include "service/ledger.hh"
#include "sim/merge.hh"

namespace icfp {
namespace service {

namespace {

/** Registry mirror of a FederatedOutcome (summed across jobs; the
 *  per-job numbers stay on the ledger line and in the outcome). */
void
countFederatedOutcome(const FederatedOutcome &outcome)
{
    metrics::counter("icfp_federation_dispatches")
        .inc(outcome.dispatched);
    metrics::counter("icfp_federation_redispatches")
        .inc(outcome.redispatched);
    metrics::counter("icfp_federation_local_slices")
        .inc(outcome.localSlices);
    if (outcome.degradedLocal)
        metrics::counter("icfp_federation_degraded_local").inc();
}

} // namespace

std::string
runGridLocally(SweepEngine &engine, const GridRequest &request,
               const std::optional<ShardSpec> &slice,
               const std::atomic<bool> *cancel, metrics::SpanLog *spans)
{
    const std::vector<SweepJob> sliced =
        slice ? shardJobs(request.grid, *slice) : std::vector<SweepJob>();
    const std::vector<SweepResult> results =
        engine.run(slice ? sliced : request.grid, request.insts,
                   request.seed, cancel, spans);
    const uint64_t emit_start = metrics::nowMicros();
    std::string artifact =
        sweepArtifact(results, request.format, slice, request.grid.size(),
                      request.gridFp);
    if (spans) {
        spans->add("report_emit", emit_start, metrics::nowMicros(),
                   {{"bytes", std::to_string(artifact.size())}});
    }
    return artifact;
}

Coordinator::Coordinator(PeerPool &pool, SweepEngine &engine,
                         CoordinatorOptions options)
    : pool_(pool), engine_(engine), options_(options)
{
}

FederatedOutcome
Coordinator::run(const GridRequest &request,
                 const std::atomic<bool> *cancel)
{
    FederatedOutcome outcome;
    const std::vector<size_t> healthy = pool_.healthyPeers();
    outcome.peers = static_cast<unsigned>(healthy.size());

    // One slice per healthy peer, but never more slices than rows — a
    // slice must own at least one row or its artifact is pure overhead.
    const unsigned slices = static_cast<unsigned>(
        std::min(healthy.size(), request.grid.size()));
    if (slices == 0) {
        // Graceful degradation: with every peer down (or none
        // configured healthy yet), the coordinator IS the fleet. The
        // plain local artifact is byte-identical by definition.
        outcome.degradedLocal = true;
        outcome.artifact = runGridLocally(engine_, request, std::nullopt,
                                          cancel, nullptr);
        countFederatedOutcome(outcome);
        return outcome;
    }

    std::vector<std::string> artifacts(slices);
    std::vector<std::string> sources(slices);
    std::mutex outcome_mutex;
    std::exception_ptr first_error;
    std::vector<std::thread> collectors;
    collectors.reserve(slices);
    for (unsigned s = 0; s < slices; ++s) {
        collectors.emplace_back([&, s] {
            try {
                runSlice(request, ShardSpec{s, slices}, cancel,
                         &artifacts[s], &sources[s], &outcome,
                         &outcome_mutex);
            } catch (...) {
                std::lock_guard<std::mutex> lock(outcome_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        });
    }
    for (std::thread &t : collectors)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);

    std::vector<ShardArtifact> parsed;
    parsed.reserve(slices);
    for (unsigned s = 0; s < slices; ++s)
        parsed.push_back(parseShardArtifact(artifacts[s], sources[s]));
    outcome.artifact = mergeShards(parsed);
    countFederatedOutcome(outcome);
    return outcome;
}

void
Coordinator::runSlice(const GridRequest &request,
                      const ShardSpec &slice,
                      const std::atomic<bool> *cancel,
                      std::string *artifact, std::string *source,
                      FederatedOutcome *outcome,
                      std::mutex *outcome_mutex)
{
    const std::string name = shardName(slice);
    std::vector<bool> tried(pool_.size(), false);
    bool first_attempt = true;
    while (true) {
        if (cancel && cancel->load())
            throw SweepCancelled();
        const std::optional<size_t> peer = pool_.pickPeer(tried);
        if (!peer)
            break; // every healthy peer tried: fall back to local
        tried[*peer] = true;
        {
            std::lock_guard<std::mutex> lock(*outcome_mutex);
            if (first_attempt) {
                ++outcome->dispatched;
                first_attempt = false;
            } else {
                ++outcome->redispatched;
            }
        }
        try {
            *artifact = dispatchRemote(request, slice, *peer, cancel);
            *source =
                "peer " + pool_.spec(*peer) + " slice " + name;
            return;
        } catch (const SweepCancelled &) {
            throw;
        } catch (const std::exception &e) {
            // Anything else — refused connect, fingerprint rejection,
            // busy/error answer, death mid-job, straggler, a payload
            // that fails validation — excludes this peer for this
            // slice and re-dispatches.
            pool_.noteFailure(*peer,
                              "slice " + name + ": " + e.what());
        }
    }

    {
        std::lock_guard<std::mutex> lock(*outcome_mutex);
        if (!first_attempt)
            ++outcome->redispatched; // recovery landed on the engine
        ++outcome->localSlices;
    }
    ledgerLine("slice %s running on the local engine", name.c_str());
    *artifact = runGridLocally(engine_, request, slice, cancel, nullptr);
    *source = "local slice " + name;
}

std::string
Coordinator::dispatchRemote(const GridRequest &request,
                            const ShardSpec &slice, size_t peer,
                            const std::atomic<bool> *cancel)
{
    // The peer is already reserved (pickPeer bumped its inflight count);
    // exactly one release() happens below on every path, including a
    // failure before a connection even exists.
    const std::string name = shardName(slice);
    std::unique_ptr<ServiceClient> client;
    uint64_t remote_job = 0;
    try {
        if (ICFP_FAULT_POINT("federation.dispatch"))
            throw ProtocolError("fault injected: federation.dispatch");

        client = pool_.acquire(peer);
        Frame submit("submit");
        submit.addString("suite", request.suite);
        submit.addString("format", request.format);
        submit.addString("benches", request.benches);
        submit.addString("cores", request.cores);
        submit.addUint("insts", request.insts);
        if (request.seed)
            submit.addUint("seed", *request.seed);
        submit.addString("shard", name);
        submit.addUint("wait", 1);
        client->send(submit);

        // Collect with a 1s read tick (the client's timeout): each
        // expiry is a chance to observe the job's cancel flag and the
        // straggler deadline without abandoning the wait.
        const bool bounded = options_.sliceDeadlineSec > 0;
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::seconds(options_.sliceDeadlineSec);
        std::string payload;
        bool have_payload = false;
        while (!have_payload) {
            Frame frame;
            try {
                frame = client->readFrame();
            } catch (const ProtocolError &e) {
                const std::string what = e.what();
                if (what.find("timed out") == std::string::npos)
                    throw; // EOF / torn frame: the peer died on us
                if (cancel && cancel->load()) {
                    if (remote_job)
                        cancelRemote(peer, remote_job);
                    throw SweepCancelled();
                }
                if (bounded &&
                    std::chrono::steady_clock::now() >= deadline) {
                    if (remote_job)
                        cancelRemote(peer, remote_job);
                    throw ProtocolError(
                        "straggler: no result within " +
                        std::to_string(options_.sliceDeadlineSec) +
                        "s slice deadline");
                }
                continue; // tick: keep waiting
            }
            const std::string &type = frame.type();
            if (type == "submitted") {
                remote_job = frame.uintField("job", 0);
            } else if (type == "result") {
                payload = frame.stringField("payload");
                have_payload = true;
            } else if (type == "busy") {
                throw ProtocolError("peer queue full (busy)");
            } else if (type == "error") {
                throw ProtocolError("peer answered: " +
                                    frame.stringField("message"));
            } else {
                throw ProtocolError("unexpected '" + type +
                                    "' frame while collecting a slice");
            }
        }
        if (ICFP_FAULT_POINT("federation.collect"))
            throw ProtocolError("fault injected: federation.collect");

        // Validate before accepting: a peer's bytes enter the merged
        // report verbatim, so anything inconsistent with our own grid
        // expansion is refused here, not discovered as a corrupt merge.
        const std::string what =
            "peer " + pool_.spec(peer) + " slice " + name;
        const ShardArtifact parsed = parseShardArtifact(payload, what);
        if (parsed.shard.index != slice.index ||
            parsed.shard.count != slice.count) {
            throw ProtocolError(what + " answered shard " +
                                shardName(parsed.shard) +
                                ", expected " + name);
        }
        if (parsed.gridRows != request.grid.size()) {
            throw ProtocolError(
                what + " expanded a " +
                std::to_string(parsed.gridRows) +
                "-row grid, this coordinator expanded " +
                std::to_string(request.grid.size()) + " rows");
        }
        if (parsed.gridFp != request.gridFp) {
            throw ProtocolError(
                what + " computed a different sweep (grid fingerprint "
                       "mismatch — peer and coordinator disagree on "
                       "the request's expansion)");
        }
        if (parsed.isJson != (request.format == "json")) {
            throw ProtocolError(what +
                                " answered the wrong artifact format");
        }

        pool_.release(peer, std::move(client), true);
        return payload;
    } catch (...) {
        pool_.release(peer, std::move(client), false);
        throw;
    }
}

void
Coordinator::cancelRemote(size_t peer, uint64_t job_id)
{
    try {
        ClientOptions opts;
        opts.timeoutSec = 2;
        ServiceClient client(pool_.spec(peer), opts);
        Frame cancel("cancel");
        cancel.addUint("job", job_id);
        client.request(cancel);
    } catch (const std::exception &) {
        // Best effort only: the peer being unreachable is the common
        // reason we are cancelling in the first place.
    }
}

} // namespace service
} // namespace icfp
