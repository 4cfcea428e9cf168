/**
 * @file
 * Simulation service tests (src/service/): protocol frame round-trips
 * and strict malformed-frame rejection, the ResultCache LRU and its
 * full-identity key (bumping a defVersion or the sim version moves it),
 * and the daemon end-to-end over a real Unix-domain socket — submit/wait
 * results byte-identical to a direct engine sweep, repeated submits
 * served from the ResultCache with zero trace generations and zero
 * replays, concurrent clients with distinct grids, bounded-queue `busy`
 * backpressure, and graceful drain finishing every in-flight job.
 *
 * Robustness layer: read deadlines and injected read/write faults at
 * the protocol level, client retry/timeout behaviour against stalled
 * or absent daemons, stale-socket reclaim, the persistent result-cache
 * tier across daemon restarts (warm hit with zero generations and zero
 * replays; corrupt entries regenerated, never served), job cancel
 * (queued and running) and per-job deadlines, and injected job-level
 * faults answered with explicit error frames while the daemon and a
 * clean resubmit keep working. Four clients interleave submits and
 * cancels on one daemon, and a daemon holds no trace between jobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/durable_file.hh"
#include "common/fault_inject.hh"
#include "common/metrics.hh"
#include "service/client.hh"
#include "service/federation/peer_pool.hh"
#include "service/federation/transport.hh"
#include "service/protocol.hh"
#include "service/result_cache.hh"
#include "service/server.hh"
#include "sim/merge.hh"
#include "sim/report.hh"
#include "sim/version_info.hh"

namespace fs = std::filesystem;

namespace icfp {
namespace service {
namespace {

std::string
makeTempDir()
{
    std::string tmpl =
        (fs::temp_directory_path() / "icfp_svc_XXXXXX").string();
    const char *dir = mkdtemp(tmpl.data());
    EXPECT_NE(dir, nullptr);
    return tmpl;
}

// ----------------------------------------------------------------- frames

TEST(Protocol, FrameRoundTripPreservesFieldsAndBytes)
{
    Frame frame("result");
    frame.addUint("job", 42);
    frame.addString("payload",
                    "bench,core\n\"mc,f\",in-order\nline\twith\ttabs\n");
    frame.addString("odd", "quote\" backslash\\ bell\x07 end");
    frame.addUint("zero", 0);

    const std::string line = frame.serialize();
    EXPECT_EQ(line.find('\n'), std::string::npos); // one frame = one line

    const Frame parsed = Frame::parse(line);
    ASSERT_EQ(parsed.fields().size(), frame.fields().size());
    for (size_t i = 0; i < frame.fields().size(); ++i) {
        EXPECT_EQ(parsed.fields()[i].key, frame.fields()[i].key);
        EXPECT_EQ(parsed.fields()[i].value, frame.fields()[i].value);
        EXPECT_EQ(parsed.fields()[i].isString, frame.fields()[i].isString);
    }
    EXPECT_EQ(parsed.type(), "result");
    EXPECT_EQ(parsed.uintField("job", 0), 42u);
    // Round-tripping a parse is byte-stable (ordered fields).
    EXPECT_EQ(parsed.serialize(), line);
}

TEST(Protocol, TypedFieldAccessorsAreStrict)
{
    const Frame frame = Frame::parse("{\"type\":\"x\",\"n\":7,\"s\":\"v\"}");
    EXPECT_EQ(frame.uintField("n", 0), 7u);
    EXPECT_EQ(frame.stringField("s"), "v");
    EXPECT_EQ(frame.stringField("absent", "dflt"), "dflt");
    EXPECT_FALSE(frame.uintField("absent").has_value());
    EXPECT_THROW(frame.uintField("s"), ProtocolError);
    EXPECT_THROW(frame.stringField("n"), ProtocolError);
}

TEST(Protocol, MalformedFramesAreRejected)
{
    const char *bad[] = {
        "",
        "{",
        "}",
        "garbage",
        "[1,2]",
        "{\"type\":\"x\"} trailing",
        "{\"type\":\"x\",}",
        "{\"type\":\"x\" \"k\":1}",
        "{\"type\":\"x\",\"k\":}",
        "{\"type\":\"x\",\"k\":{\"nested\":1}}",
        "{\"type\":\"x\",\"k\":[1]}",
        "{\"type\":\"x\",\"k\":1.5}",
        "{\"type\":\"x\",\"k\":-1}",
        "{\"type\":\"x\",\"k\":true}",
        "{\"type\":\"x\",\"k\":null}",
        "{\"type\":\"x\",\"k\":\"unterminated",
        "{\"type\":\"x\",\"k\":\"bad\\q escape\"}",
        "{\"type\":\"x\",\"k\":\"bad\\u12zz\"}",
        "{\"type\":\"x\",\"k\":99999999999999999999999}", // > 20 digits
        "{\"type\":\"x\",\"k\":18446744073709551616}", // 2^64, 20 digits
        "{\"k\":\"no type field\"}",
        "{\"type\":7}", // type must be a string
        "{1:\"unquoted key\"}",
        // Federation fields obey the same flat string/uint discipline.
        "{\"type\":\"submit\",\"shard\":{\"i\":1,\"n\":3}}",
        "{\"type\":\"submit\",\"shard\":1.5}",
        "{\"type\":\"status\",\"peers\":[\"a:1\",\"b:2\"]}",
        "{\"type\":\"status\",\"peer0_rtt_us\":-3}",
    };
    for (const char *line : bad)
        EXPECT_THROW(Frame::parse(line), ProtocolError) << line;
}

// ----------------------------------------------------------- result cache

TEST(ResultCacheTest, LruEvictionKeepsNewestWithinByteCap)
{
    ResultCache cache(10);
    cache.insert(1, "aaaa");
    cache.insert(2, "bbbb");
    EXPECT_TRUE(cache.lookup(1).has_value()); // 1 is now the newest
    cache.insert(3, "cccc");                  // 12 bytes: evict LRU (2)
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_FALSE(cache.lookup(2).has_value());
    EXPECT_EQ(*cache.lookup(1), "aaaa");
    EXPECT_EQ(*cache.lookup(3), "cccc");
    EXPECT_EQ(cache.stats().evictions, 1u);

    // An artifact bigger than the whole cap is refused outright rather
    // than flushing the cache for nothing.
    cache.insert(4, "0123456789ab");
    EXPECT_FALSE(cache.lookup(4).has_value());
    EXPECT_TRUE(cache.lookup(1).has_value());
}

/** A small expanded grid for key tests. */
std::vector<SweepJob>
smallGrid()
{
    SweepSpec spec;
    spec.benches = {"mcf", "gzip"};
    const SimConfig cfg;
    spec.variants = {{"in-order", CoreKind::InOrder, cfg},
                     {"icfp", CoreKind::ICfp, cfg}};
    return expandGrid(spec);
}

TEST(ResultCacheTest, KeyCoversRequestIdentity)
{
    const std::vector<SweepJob> grid = smallGrid();
    const uint64_t rfp = registryFingerprint();
    const uint64_t key = resultCacheKey(grid, 5000, std::nullopt,
                                        "spec2000", "csv", rfp);
    // Same request, same key (it must be, or nothing would ever hit).
    EXPECT_EQ(key, resultCacheKey(grid, 5000, std::nullopt, "spec2000",
                                  "csv", rfp));
    // Each identity axis moves the key.
    EXPECT_NE(key, resultCacheKey(grid, 6000, std::nullopt, "spec2000",
                                  "csv", rfp));
    EXPECT_NE(key, resultCacheKey(grid, 5000, uint64_t{7}, "spec2000",
                                  "csv", rfp));
    EXPECT_NE(key, resultCacheKey(grid, 5000, std::nullopt, "nonspec",
                                  "csv", rfp));
    EXPECT_NE(key, resultCacheKey(grid, 5000, std::nullopt, "spec2000",
                                  "json", rfp));
    std::vector<SweepJob> other = grid;
    other.pop_back();
    EXPECT_NE(key, resultCacheKey(other, 5000, std::nullopt, "spec2000",
                                  "csv", rfp));
}

TEST(ResultCacheTest, DefVersionOrSimVersionBumpInvalidatesKey)
{
    const std::vector<SweepJob> grid = smallGrid();
    const RegistryIdentity current = currentRegistryIdentity();
    const uint64_t key =
        resultCacheKey(grid, 5000, std::nullopt, "spec2000", "csv",
                       registryFingerprintOf(current));

    // Bump one benchmark's workload-definition version: the registry
    // fingerprint moves, so every cached result keyed under the old
    // identity becomes unreachable.
    RegistryIdentity bumped_def = current;
    ASSERT_FALSE(bumped_def.suites.empty());
    ASSERT_FALSE(bumped_def.suites[0].benches.empty());
    bumped_def.suites[0].benches[0].second += 1;
    EXPECT_NE(registryFingerprintOf(current),
              registryFingerprintOf(bumped_def));
    EXPECT_NE(key,
              resultCacheKey(grid, 5000, std::nullopt, "spec2000", "csv",
                             registryFingerprintOf(bumped_def)));

    // Bump the simulator-semantics version: same invalidation.
    RegistryIdentity bumped_sim = current;
    bumped_sim.simSemanticsVersion += 1;
    EXPECT_NE(key,
              resultCacheKey(grid, 5000, std::nullopt, "spec2000", "csv",
                             registryFingerprintOf(bumped_sim)));
}

// ----------------------------------------------------------------- daemon

class ServiceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = makeTempDir();
        socket_ = dir_ + "/svc.sock";
    }
    void TearDown() override { fs::remove_all(dir_); }

    ServerOptions options(unsigned jobs = 2, size_t depth = 8)
    {
        ServerOptions opts;
        opts.socketPath = socket_;
        opts.jobs = jobs;
        opts.queueDepth = depth;
        return opts;
    }

    /** Submit frame for (benches, cores) at @p insts. */
    static Frame submitFrame(const std::string &benches,
                             const std::string &cores, uint64_t insts,
                             bool wait, const std::string &format = "csv")
    {
        Frame frame("submit");
        frame.addString("benches", benches);
        frame.addString("cores", cores);
        frame.addUint("insts", insts);
        frame.addString("format", format);
        if (wait)
            frame.addUint("wait", 1);
        return frame;
    }

    /** What a cold `icfp-sim sweep` over the same request emits. */
    static std::string directSweep(const std::string &benches,
                                   const std::string &cores,
                                   uint64_t insts,
                                   const std::string &format = "csv",
                                   std::optional<uint64_t> seed = {})
    {
        SweepSpec spec;
        spec.benches = splitCommaList(benches);
        const SimConfig cfg;
        if (cores == "all") {
            for (const CoreKind kind : CoreRegistry::instance().kinds())
                spec.variants.push_back({coreKindName(kind), kind, cfg});
        } else {
            for (const std::string &name : splitCommaList(cores))
                spec.variants.push_back(
                    {name, *parseCoreKind(name), cfg});
        }
        spec.insts = insts;
        spec.seed = seed;
        SweepEngine engine(2);
        const std::vector<SweepResult> results = engine.run(spec);
        return format == "json" ? sweepJson(results) : sweepCsv(results);
    }

    std::string dir_;
    std::string socket_;
};

TEST_F(ServiceTest, HandshakeAndPingCarryRegistryFingerprint)
{
    Server server(options());
    server.start();

    ServiceClient client(socket_);
    EXPECT_EQ(client.hello().type(), "hello");
    EXPECT_EQ(client.hello().uintField("proto", 0), kProtocolVersion);
    EXPECT_EQ(client.hello().stringField("fp"),
              fingerprintHex(registryFingerprint()));

    const Frame pong = client.request(Frame("ping"));
    EXPECT_EQ(pong.type(), "pong");
    EXPECT_EQ(pong.stringField("fp"),
              fingerprintHex(registryFingerprint()));

    server.requestDrain();
    server.join();
    EXPECT_FALSE(fs::exists(socket_)); // drain removes the socket file
}

TEST_F(ServiceTest, SubmitWaitIsByteIdenticalToDirectSweep)
{
    Server server(options());
    server.start();

    for (const std::string format : {"csv", "json"}) {
        ServiceClient client(socket_);
        const Frame ack = client.request(
            submitFrame("mcf,equake", "all", 3000, true, format));
        ASSERT_EQ(ack.type(), "submitted") << ack.stringField("message");
        const Frame result = client.readFrame();
        ASSERT_EQ(result.type(), "result");
        EXPECT_EQ(result.stringField("payload"),
                  directSweep("mcf,equake", "all", 3000, format));

        // The artifact is also fetchable later, from a new connection.
        ServiceClient fetcher(socket_);
        Frame get("result");
        get.addUint("job", result.uintField("job", 0));
        const Frame again = fetcher.request(get);
        ASSERT_EQ(again.type(), "result");
        EXPECT_EQ(again.stringField("payload"),
                  result.stringField("payload"));
    }
}

TEST_F(ServiceTest, RepeatedSubmitHitsResultCacheWithZeroWork)
{
    Server server(options());
    server.start();

    ServiceClient client(socket_);
    const Frame ack1 =
        client.request(submitFrame("mcf,gzip", "in-order,icfp", 3000,
                                   true));
    ASSERT_EQ(ack1.type(), "submitted");
    const Frame result1 = client.readFrame();
    ASSERT_EQ(result1.type(), "result");
    EXPECT_EQ(result1.uintField("cached", 1), 0u);

    const ServerStats after_first = server.stats();
    EXPECT_EQ(after_first.completed, 1u);
    EXPECT_EQ(after_first.cacheMisses, 1u);
    EXPECT_GT(after_first.replays, 0u);

    const Frame ack2 =
        client.request(submitFrame("mcf,gzip", "in-order,icfp", 3000,
                                   true));
    ASSERT_EQ(ack2.type(), "submitted");
    // Identical request, identical fingerprint.
    EXPECT_EQ(ack2.stringField("fp"), ack1.stringField("fp"));
    const Frame result2 = client.readFrame();
    ASSERT_EQ(result2.type(), "result");
    EXPECT_EQ(result2.uintField("cached", 0), 1u);
    EXPECT_EQ(result2.stringField("payload"),
              result1.stringField("payload"));

    // The service contract: a warm repeat does zero trace generations
    // and zero replays — the engine counters did not move at all.
    const ServerStats after_second = server.stats();
    EXPECT_EQ(after_second.cacheHits, 1u);
    EXPECT_EQ(after_second.replays, after_first.replays);
    EXPECT_EQ(after_second.generations, after_first.generations);

    // A different grid is a different fingerprint — no false sharing.
    const Frame ack3 = client.request(
        submitFrame("mcf,gzip", "in-order,icfp", 4000, true));
    ASSERT_EQ(ack3.type(), "submitted");
    EXPECT_NE(ack3.stringField("fp"), ack1.stringField("fp"));
    const Frame result3 = client.readFrame();
    ASSERT_EQ(result3.type(), "result");
    EXPECT_EQ(result3.uintField("cached", 1), 0u);
}

TEST_F(ServiceTest, DaemonHoldsNoTraceBetweenJobs)
{
    Server server(options());
    server.start();

    ServiceClient client(socket_);
    for (const char *core : {"in-order", "icfp"}) {
        // Same bench, different grid: the result cache cannot answer.
        ASSERT_EQ(client.request(submitFrame("gzip", core, 2000, true))
                      .type(),
                  "submitted");
        ASSERT_EQ(client.readFrame().type(), "result");
    }
    // The engine freed the trace with the first job's last cell, so the
    // second job generated it again rather than finding it in memory.
    EXPECT_EQ(server.stats().generations, 2u);

    server.requestDrain();
    server.join();
}

TEST_F(ServiceTest, MalformedAndInvalidRequestsGetErrors)
{
    Server server(options());
    server.start();

    {
        // A malformed line gets a diagnostic error frame, then the
        // session ends; the daemon itself keeps serving.
        ServiceClient client(socket_);
        client.sendRaw("this is not a frame\n");
        const Frame error = client.readFrame();
        EXPECT_EQ(error.type(), "error");
        EXPECT_THROW(client.readFrame(), ProtocolError); // session over
    }
    {
        ServiceClient client(socket_);
        const Frame unknown = client.request(Frame("frobnicate"));
        EXPECT_EQ(unknown.type(), "error");

        Frame bad_bench("submit");
        bad_bench.addString("benches", "no-such-bench");
        EXPECT_EQ(client.request(bad_bench).type(), "error");

        Frame bad_suite("submit");
        bad_suite.addString("suite", "no-such-suite");
        EXPECT_EQ(client.request(bad_suite).type(), "error");

        Frame bad_core("submit");
        bad_core.addString("cores", "no-such-core");
        EXPECT_EQ(client.request(bad_core).type(), "error");

        Frame bad_format("submit");
        bad_format.addString("format", "table");
        EXPECT_EQ(client.request(bad_format).type(), "error");

        // `status` without a job id is the daemon's own status frame
        // (see the DaemonStatus tests); `result` without one is still
        // a hard error — there is no "the daemon's result".
        Frame no_job("status");
        EXPECT_EQ(client.request(no_job).type(), "status");
        Frame no_job_result("result");
        EXPECT_EQ(client.request(no_job_result).type(), "error");
        Frame unknown_job("result");
        unknown_job.addUint("job", 999);
        EXPECT_EQ(client.request(unknown_job).type(), "error");

        // Malformed shard values on submit: each is an explicit error
        // frame, and none of them kills the session.
        for (const char *shard : {"", "0/3", "4/3", "x/y", "1/0", "3",
                                  "1/100001", "2/2/2", "-1/2"}) {
            Frame bad_shard("submit");
            bad_shard.addString("benches", "gzip");
            bad_shard.addString("cores", "in-order");
            bad_shard.addUint("insts", 1000);
            bad_shard.addString("shard", shard);
            EXPECT_EQ(client.request(bad_shard).type(), "error")
                << "shard='" << shard << "'";
        }

        // The session survived every rejected request.
        EXPECT_EQ(client.request(Frame("ping")).type(), "pong");

        // A shard field of the wrong JSON type is a frame-level reject
        // (flat frames carry strings and uints only): error, then the
        // session ends — but the daemon keeps serving.
        client.sendRaw("{\"type\":\"submit\",\"shard\":[1,2]}\n");
        EXPECT_EQ(client.readFrame().type(), "error");
        EXPECT_THROW(client.readFrame(), ProtocolError); // session over
    }
    {
        ServiceClient client(socket_);
        EXPECT_EQ(client.request(Frame("ping")).type(), "pong");
    }
}

TEST_F(ServiceTest, ConcurrentClientsWithDistinctGridsAllGetCorrectBytes)
{
    Server server(options(4));
    server.start();

    const std::vector<std::string> benches = {"mcf", "gzip", "equake",
                                              "graph.bfs"};
    // Expected artifacts computed up front (hermetic local engines).
    std::vector<std::string> expected;
    for (const std::string &bench : benches)
        expected.push_back(directSweep(bench, "in-order,icfp", 2000));

    std::vector<std::string> got(benches.size());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < benches.size(); ++i) {
        clients.emplace_back([&, i] {
            ServiceClient client(socket_);
            const Frame ack = client.request(
                submitFrame(benches[i], "in-order,icfp", 2000, true));
            if (ack.type() != "submitted")
                return; // leaves got[i] empty -> the EXPECT below fails
            const Frame result = client.readFrame();
            if (result.type() == "result")
                got[i] = result.stringField("payload");
        });
    }
    for (std::thread &thread : clients)
        thread.join();

    for (size_t i = 0; i < benches.size(); ++i)
        EXPECT_EQ(got[i], expected[i]) << benches[i];
    EXPECT_EQ(server.stats().completed, benches.size());
}

TEST_F(ServiceTest, FullQueueAnswersBusyNotSilence)
{
    // Depth 1: one job occupies the queue+runner; the next submit must
    // be refused with an explicit busy frame while it runs.
    Server server(options(1, 1));
    server.start();

    ServiceClient slow(socket_);
    // A deliberately heavy job (full scheme column at a big budget) so
    // it is still running when the second submit lands.
    const Frame ack =
        slow.request(submitFrame("mcf", "all", 400000, false));
    ASSERT_EQ(ack.type(), "submitted");

    ServiceClient fast(socket_);
    const Frame busy =
        fast.request(submitFrame("gzip", "in-order", 1000, false));
    EXPECT_EQ(busy.type(), "busy");
    EXPECT_EQ(busy.uintField("depth", 0), 1u);
    EXPECT_GE(server.stats().busy, 1u);

    server.requestDrain();
    server.join();
    // The in-flight heavy job still finished (drain never drops work).
    EXPECT_EQ(server.stats().completed, 1u);
}

TEST_F(ServiceTest, GracefulDrainFinishesEveryAcceptedJob)
{
    Server server(options(2, 8));
    server.start();

    ServiceClient client(socket_);
    for (const char *bench : {"mcf", "gzip", "equake"}) {
        const Frame ack = client.request(
            submitFrame(bench, "in-order,icfp", 2000, false));
        ASSERT_EQ(ack.type(), "submitted");
    }

    // Drain immediately: all three accepted jobs must still complete.
    server.requestDrain();

    // A submit on an existing connection after drain is an explicit
    // refusal, not a hang or a silent drop.
    const Frame refused = client.request(
        submitFrame("vpr", "in-order", 1000, false));
    EXPECT_EQ(refused.type(), "error");

    server.join();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_FALSE(fs::exists(socket_));

    // The listener is gone: new connections fail cleanly.
    EXPECT_THROW(ServiceClient{socket_}, ProtocolError);
}

// ------------------------------------------------------ protocol faults

/** Socketpair-based tests: single-threaded, so the process-global
 *  fault registry's hit ordering is fully deterministic. */
class ProtocolFaultTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        fault::disarmAll();
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
    }
    void TearDown() override
    {
        ::close(fds_[0]);
        ::close(fds_[1]);
        fault::disarmAll();
    }

    int fds_[2] = {-1, -1};
};

TEST_F(ProtocolFaultTest, ReadFrameHonorsWholeFrameDeadline)
{
    std::string buffer;
    // Nothing ever arrives: the deadline, not the caller, ends the wait.
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(
        {
            try {
                readFrame(fds_[0], &buffer, 200);
            } catch (const ProtocolError &e) {
                EXPECT_NE(std::string(e.what()).find("timed out"),
                          std::string::npos);
                throw;
            }
        },
        ProtocolError);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_GE(elapsed, std::chrono::milliseconds(150));
    EXPECT_LT(elapsed, std::chrono::seconds(10));

    // A frame that arrives inside the budget is delivered normally.
    writeFrame(fds_[1], Frame("ping"));
    const std::optional<Frame> frame = readFrame(fds_[0], &buffer, 1000);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type(), "ping");
}

TEST_F(ProtocolFaultTest, ReadFaultSurfacesAsProtocolError)
{
    // The injected read failure fires before the kernel read, so it
    // hits even with bytes already queued on the socket.
    writeFrame(fds_[1], Frame("ping"));
    ASSERT_TRUE(fault::armSpec("protocol.read:1"));
    std::string buffer;
    EXPECT_THROW(readFrame(fds_[0], &buffer), ProtocolError);
    EXPECT_EQ(fault::firedCount("protocol.read"), 1u);

    // One-shot: the retry reads the queued frame.
    const std::optional<Frame> frame = readFrame(fds_[0], &buffer);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type(), "ping");
}

TEST_F(ProtocolFaultTest, WriteFaultTearsTheFrameMidLine)
{
    Frame pong("pong");
    pong.addUint("n", 12345);
    const std::string line = pong.serialize() + "\n";

    ASSERT_TRUE(fault::armSpec("protocol.write:1"));
    EXPECT_THROW(writeFrame(fds_[0], pong), ProtocolError);

    // The peer sees exactly the torn prefix: bytes then silence, no
    // newline — the worst case its parser must survive.
    char chunk[256];
    const ssize_t n = ::recv(fds_[1], chunk, sizeof chunk, MSG_DONTWAIT);
    ASSERT_EQ(static_cast<size_t>(n), line.size() / 2);
    EXPECT_EQ(std::string(chunk, n), line.substr(0, line.size() / 2));
    EXPECT_EQ(std::string(chunk, n).find('\n'), std::string::npos);
}

// ----------------------------------------------------- client resilience

TEST_F(ServiceTest, ClientTimeoutUnwedgesAcceptThenStallDaemon)
{
    // The satellite regression: a daemon that accepts and then never
    // speaks. Without a read deadline the old client blocked forever in
    // the handshake read. A raw listener (never accepts, never writes)
    // reproduces it: the unix-socket connect completes via the backlog.
    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(socket_.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, socket_.c_str(), socket_.size() + 1);
    ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr *>(&addr),
                     sizeof addr), 0);
    ASSERT_EQ(::listen(listener, 4), 0);

    ClientOptions copts;
    copts.timeoutSec = 1;
    copts.retries = 5; // a timeout must NOT be retried
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_THROW(
        {
            try {
                ServiceClient client(socket_, copts);
            } catch (const ProtocolError &e) {
                EXPECT_NE(std::string(e.what()).find("timed out"),
                          std::string::npos);
                throw;
            }
        },
        ProtocolError);
    // One ~1s attempt, not six: a retried timeout would multiply the
    // hang by the retry count.
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(4));
    ::close(listener);
}

TEST_F(ServiceTest, ClientRetriesUntilTheDaemonAppears)
{
    // No retries: an absent daemon fails immediately and typed.
    EXPECT_THROW(ServiceClient{socket_}, ConnectError);

    // With retries armed, a daemon that comes up mid-backoff is reached.
    Server server(options());
    std::thread starter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        server.start();
    });
    ClientOptions copts;
    copts.retries = 8;
    {
        ServiceClient client(socket_, copts);
        EXPECT_EQ(client.request(Frame("ping")).type(), "pong");
    }
    starter.join();
    server.requestDrain();
    server.join();
}

TEST_F(ServiceTest, StaleSocketFileReclaimedOnStart)
{
    // A previous daemon died hard (SIGKILL): its socket file survives
    // but nothing listens. A new daemon must reclaim the path instead
    // of refusing to start.
    const int dead = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(dead, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_.c_str(), socket_.size() + 1);
    ASSERT_EQ(::bind(dead, reinterpret_cast<const sockaddr *>(&addr),
                     sizeof addr), 0);
    ::close(dead); // no listener survives; the file does
    ASSERT_TRUE(fs::exists(socket_));

    Server server(options());
    server.start(); // would throw if it treated the stale file as live
    ServiceClient client(socket_);
    EXPECT_EQ(client.request(Frame("ping")).type(), "pong");
    server.requestDrain();
    server.join();
}

// --------------------------------------------------- persistent results

TEST_F(ServiceTest, PersistentCacheServesWarmRepeatAcrossRestart)
{
    const std::string cache_dir = dir_ + "/cache";
    ServerOptions opts1 = options();
    opts1.cacheDir = cache_dir;

    std::string cold_payload;
    {
        Server server(opts1);
        server.start();
        ServiceClient client(socket_);
        const Frame ack = client.request(
            submitFrame("mcf,gzip", "in-order,icfp", 3000, true));
        ASSERT_EQ(ack.type(), "submitted");
        const Frame result = client.readFrame();
        ASSERT_EQ(result.type(), "result");
        EXPECT_EQ(result.uintField("cached", 1), 0u);
        cold_payload = result.stringField("payload");
        server.requestDrain();
        server.join();
    }
    EXPECT_EQ(cold_payload, directSweep("mcf,gzip", "in-order,icfp", 3000));

    // Restart: same cache dir — if the warm hit did any real work it
    // would show up as trace generations.
    ServerOptions opts2 = options();
    opts2.cacheDir = cache_dir;
    Server server(opts2);
    server.start();
    ServiceClient client(socket_);
    const Frame ack = client.request(
        submitFrame("mcf,gzip", "in-order,icfp", 3000, true));
    ASSERT_EQ(ack.type(), "submitted");
    const Frame result = client.readFrame();
    ASSERT_EQ(result.type(), "result");
    EXPECT_EQ(result.uintField("cached", 0), 1u);
    EXPECT_EQ(result.stringField("payload"), cold_payload);

    // The service contract survives the restart: zero generations,
    // zero replays for a warm repeat.
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(stats.generations, 0u);
    EXPECT_EQ(stats.replays, 0u);
    server.requestDrain();
    server.join();
}

TEST_F(ServiceTest, CorruptPersistedEntryRegeneratedNotServed)
{
    const std::string cache_dir = dir_ + "/cache";
    ServerOptions opts = options();
    opts.cacheDir = cache_dir;

    std::string cold_payload;
    {
        Server server(opts);
        server.start();
        ServiceClient client(socket_);
        client.request(submitFrame("gzip", "in-order,icfp", 3000, true));
        const Frame result = client.readFrame();
        ASSERT_EQ(result.type(), "result");
        cold_payload = result.stringField("payload");
        server.requestDrain();
        server.join();
    }

    // Simulate a torn persist: truncate every published entry.
    size_t truncated = 0;
    for (const fs::directory_entry &de : fs::directory_iterator(cache_dir)) {
        if (de.path().extension() != ".res")
            continue;
        fs::resize_file(de.path(), fs::file_size(de.path()) / 2);
        ++truncated;
    }
    ASSERT_GE(truncated, 1u);

    Server server(opts);
    server.start();
    ServiceClient client(socket_);
    client.request(submitFrame("gzip", "in-order,icfp", 3000, true));
    const Frame result = client.readFrame();
    ASSERT_EQ(result.type(), "result");
    // Recomputed (cached=0), and the bytes are right — a checksum-less
    // cache would have served the torn payload as a "hit".
    EXPECT_EQ(result.uintField("cached", 1), 0u);
    EXPECT_EQ(result.stringField("payload"), cold_payload);
    server.requestDrain();
    server.join();
}

TEST(ResultCacheTest, DiskTierPersistsAcrossInstances)
{
    const std::string dir = makeTempDir();
    {
        ResultCache cache(1 << 20, dir);
        cache.insert(0x1234, "persisted artifact bytes");
    }
    // A fresh instance (fresh process stand-in) with an empty memory
    // tier promotes the entry from disk.
    ResultCache warm(1 << 20, dir);
    const std::optional<std::string> hit = warm.lookup(0x1234);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, "persisted artifact bytes");
    EXPECT_EQ(warm.stats().diskHits, 1u);
    // Promoted: the second lookup is a pure memory hit.
    EXPECT_TRUE(warm.lookup(0x1234).has_value());
    EXPECT_EQ(warm.stats().diskHits, 1u);
    EXPECT_EQ(warm.stats().hits, 2u);
    fs::remove_all(dir);
}

TEST(ResultCacheTest, DiskEntryLayoutIsPinned)
{
    // The ICFPRES1 entry layout, built by hand: magic, u64 key, FNV-1a
    // of the payload, u64 payload length, payload (integers little
    // endian) — the twin of the hand-built ICFPSTR1 file in
    // test_trace_store.cc. Changing it means bumping the magic.
    const auto u64 = [](uint64_t v) {
        std::string s;
        for (int i = 0; i < 8; ++i)
            s.push_back(static_cast<char>(v >> (8 * i)));
        return s;
    };
    const auto entry = [&](uint64_t key, const std::string &payload) {
        return "ICFPRES1" + u64(key) +
               u64(fnv1a64(payload.data(), payload.size())) +
               u64(payload.size()) + payload;
    };
    const auto path = [](const std::string &dir, uint64_t key) {
        return fs::path(dir) / (fingerprintHex(key) + ".res");
    };
    const std::string dir = makeTempDir();

    // insert() writes exactly the hand-built bytes.
    const uint64_t key = 0x0123456789abcdefull;
    const std::string payload = "bench,core,cycles\nmcf,icfp,42\n";
    {
        ResultCache cache(1 << 20, dir);
        cache.insert(key, payload);
    }
    std::ifstream in(path(dir, key), std::ios::binary);
    std::ostringstream written;
    written << in.rdbuf();
    EXPECT_EQ(written.str(), entry(key, payload));

    // A fresh cache serves a hand-built entry as a disk hit.
    const uint64_t other = 0xfeedull;
    const std::string other_payload = "hand-built artifact\n";
    std::ofstream(path(dir, other), std::ios::binary)
        << entry(other, other_payload);
    ResultCache fresh(1 << 20, dir);
    CacheTier tier = CacheTier::None;
    EXPECT_EQ(fresh.lookup(other, &tier).value_or(""), other_payload);
    EXPECT_EQ(tier, CacheTier::Disk);
    EXPECT_EQ(fresh.stats().diskHits, 1u);
    EXPECT_EQ(fresh.stats().diskCorrupt, 0u);
    fs::remove_all(dir);
}


TEST(ResultCacheTest, DiskTierHonorsByteCapByRecency)
{
    const std::string dir = makeTempDir();
    const std::string payload(100, 'x'); // entry file ≈ 132 bytes
    metrics::Counter &scraped =
        metrics::counter("icfp_result_cache_disk_evictions");
    const uint64_t scraped_before = scraped.value();
    ResultCache cache(200, dir);
    cache.insert(1, payload);
    // Age the first entry so mtime ordering is unambiguous.
    fs::path first;
    for (const fs::directory_entry &de : fs::directory_iterator(dir))
        if (de.path().extension() == ".res")
            first = de.path();
    ASSERT_FALSE(first.empty());
    fs::last_write_time(first, fs::file_time_type::clock::now() -
                                   std::chrono::hours(1));

    cache.insert(2, payload); // over the cap: the older entry goes
    EXPECT_FALSE(fs::exists(first));
    // Counted as a disk eviction; the memory tier (200 bytes of
    // artifacts, within the cap) evicted nothing.
    EXPECT_EQ(cache.stats().diskEvictions, 1u);
    EXPECT_EQ(scraped.value() - scraped_before, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    size_t remaining = 0;
    for (const fs::directory_entry &de : fs::directory_iterator(dir))
        if (de.path().extension() == ".res")
            ++remaining;
    EXPECT_EQ(remaining, 1u);
    // Memory still serves both; only the disk tier was trimmed.
    EXPECT_TRUE(cache.lookup(1).has_value());
    EXPECT_TRUE(cache.lookup(2).has_value());

    // A disk hit refreshes recency (CacheDir::load touches the file).
    // Restart with room for two files, age entry 2's file below entry
    // 3's and serve 2 from disk: the next insert must evict 3, the least
    // recently used, not 2, the least recently written.
    const fs::path second = fs::path(dir) / (fingerprintHex(2) + ".res");
    const fs::path third = fs::path(dir) / (fingerprintHex(3) + ".res");
    ASSERT_TRUE(fs::exists(second));
    ResultCache restarted(300, dir);
    restarted.insert(3, payload);
    const auto now = fs::file_time_type::clock::now();
    fs::last_write_time(second, now - std::chrono::hours(3));
    fs::last_write_time(third, now - std::chrono::hours(2));
    CacheTier tier = CacheTier::None;
    EXPECT_TRUE(restarted.lookup(2, &tier).has_value());
    EXPECT_EQ(tier, CacheTier::Disk);
    restarted.insert(4, payload); // over the cap: evicts 3, keeps 2
    EXPECT_EQ(restarted.stats().diskEvictions, 1u);
    EXPECT_FALSE(fs::exists(third));
    EXPECT_TRUE(fs::exists(second));
    fs::remove_all(dir);
}

// ------------------------------------------------------- job lifecycle

TEST_F(ServiceTest, CancelQueuedJobFreesItsQueueSlot)
{
    // One runner, depth 2: a heavy running job plus one queued job fill
    // the queue. Cancelling the queued one must free its slot now, not
    // when the runner would have reached it.
    Server server(options(1, 2));
    server.start();

    ServiceClient client(socket_);
    const Frame heavy =
        client.request(submitFrame("mcf", "all", 400000, false));
    ASSERT_EQ(heavy.type(), "submitted");
    const Frame queued =
        client.request(submitFrame("gzip", "in-order", 2000, false));
    ASSERT_EQ(queued.type(), "submitted");
    const uint64_t queued_id = queued.uintField("job", 0);

    // Queue full: a third submit is refused...
    EXPECT_EQ(client.request(submitFrame("vpr", "in-order", 2000, false))
                  .type(),
              "busy");

    Frame cancel("cancel");
    cancel.addUint("job", queued_id);
    const Frame answer = client.request(cancel);
    ASSERT_EQ(answer.type(), "cancelled");
    EXPECT_EQ(answer.stringField("was"), "queued");

    Frame status("status");
    status.addUint("job", queued_id);
    EXPECT_EQ(client.request(status).stringField("state"), "cancelled");
    // A cancelled job is finished: `result` answers what `submit wait`
    // would, not "not finished".
    Frame result("result");
    result.addUint("job", queued_id);
    const Frame fetched = client.request(result);
    ASSERT_EQ(fetched.type(), "error");
    EXPECT_EQ(fetched.stringField("message"),
              "job " + std::to_string(queued_id) + " cancelled");

    // ...and accepted once the cancelled job's slot is free.
    EXPECT_EQ(client.request(submitFrame("vpr", "in-order", 2000, false))
                  .type(),
              "submitted");

    // Cancelling a finished job is an explicit error, not a crash.
    EXPECT_EQ(client.request(cancel).type(), "error");

    server.requestDrain();
    server.join();
    EXPECT_EQ(server.stats().cancelled, 1u);
    EXPECT_EQ(server.stats().completed, 2u); // heavy + vpr still finish
}

TEST_F(ServiceTest, CancelRunningJobStopsAtRowBoundary)
{
    Server server(options(1, 4));
    server.start();

    ServiceClient client(socket_);
    // 4 benches x full scheme column: dozens of rows, so cancellation
    // lands long before natural completion.
    const Frame ack = client.request(
        submitFrame("mcf,equake,gzip,vpr", "all", 400000, false));
    ASSERT_EQ(ack.type(), "submitted");
    const uint64_t id = ack.uintField("job", 0);

    // Wait until it is actually running (not just queued).
    Frame status("status");
    status.addUint("job", id);
    for (int i = 0; i < 500; ++i) {
        if (client.request(status).stringField("state") == "running")
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(client.request(status).stringField("state"), "running");

    Frame cancel("cancel");
    cancel.addUint("job", id);
    const Frame answer = client.request(cancel);
    ASSERT_EQ(answer.type(), "cancelled");
    EXPECT_EQ(answer.stringField("was"), "running");

    // The engine observes the flag at the next row boundary.
    std::string state;
    for (int i = 0; i < 3000; ++i) {
        state = client.request(status).stringField("state");
        if (state == "cancelled")
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(state, "cancelled");

    // The daemon (and this very session) is fully alive afterwards.
    EXPECT_EQ(client.request(Frame("ping")).type(), "pong");
    const Frame after = client.request(
        submitFrame("gzip", "in-order", 2000, true));
    ASSERT_EQ(after.type(), "submitted");
    EXPECT_EQ(client.readFrame().type(), "result");

    server.requestDrain();
    server.join();
    EXPECT_EQ(server.stats().cancelled, 1u);
}

TEST_F(ServiceTest, InterleavedSubmitsAndCancelsFromFourClients)
{
    // Four clients on one daemon whose engine runs four workers. Each
    // interleaves wait-submits with submit-then-cancel pairs, every job
    // on its own seed, so no result is served from the cache.
    Server server(options(4, 16));
    server.start();

    constexpr size_t kClients = 4;
    constexpr size_t kOps = 25;
    const std::vector<std::string> pairs = {"mcf,gzip", "equake,vpr",
                                            "art,graph.bfs", "twolf,mcf"};
    struct Outcome
    {
        std::string benches;
        uint64_t insts = 0;
        uint64_t seed = 0;
        bool cancelled = false;
        std::string payload;
        std::string problem; ///< empty when the daemon answered right
    };
    std::vector<std::vector<Outcome>> outcomes(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            // A deadline turns a job that never answers into a failure
            // instead of a hang.
            ClientOptions patient;
            patient.timeoutSec = 300;
            try {
                ServiceClient waiter(socket_, patient);
                ServiceClient control(socket_, patient);
                for (size_t k = 0; k < kOps; ++k) {
                    Outcome o;
                    o.benches = pairs[(c + k) % pairs.size()];
                    const bool cancel = k % 3 == 1;
                    o.insts = cancel ? 100000 : 2000;
                    o.seed = 1 + c * kOps + k;
                    Frame submit =
                        submitFrame(o.benches, "in-order,icfp", o.insts,
                                    true);
                    submit.addUint("seed", o.seed);
                    Frame ack = waiter.request(submit);
                    while (ack.type() == "busy") {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(5));
                        ack = waiter.request(submit);
                    }
                    if (ack.type() != "submitted") {
                        o.problem = "submit answered " + ack.type();
                        outcomes[c].push_back(std::move(o));
                        return;
                    }
                    if (cancel && k % 2 == 0) {
                        // Every other cancel waits until the job has
                        // left the queue, so it lands mid-run (or just
                        // after the run).
                        Frame status("status");
                        status.addUint("job", ack.uintField("job", 0));
                        while (control.request(status).stringField(
                                   "state") == "queued")
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(1));
                    }
                    if (cancel) {
                        Frame frame("cancel");
                        frame.addUint("job", ack.uintField("job", 0));
                        // "cancelled", or an error when the job already
                        // finished; never silence.
                        const std::string answer =
                            control.request(frame).type();
                        if (answer != "cancelled" && answer != "error")
                            o.problem = "cancel answered " + answer;
                    }
                    const Frame result = waiter.readFrame();
                    const std::string message = result.stringField("message");
                    if (result.type() == "result") {
                        o.payload = result.stringField("payload");
                    } else if (cancel && message.find(" cancelled") !=
                                             std::string::npos) {
                        o.cancelled = true;
                    } else {
                        o.problem = result.type() + ": " + message;
                    }
                    outcomes[c].push_back(std::move(o));
                }
            } catch (const std::exception &e) {
                Outcome o;
                o.problem = std::string("client threw: ") + e.what();
                outcomes[c].push_back(std::move(o));
            }
        });
    }
    for (std::thread &thread : clients)
        thread.join();

    server.requestDrain();
    server.join();

    uint64_t cancelled = 0;
    for (size_t c = 0; c < kClients; ++c) {
        ASSERT_EQ(outcomes[c].size(), kOps) << "client " << c;
        for (const Outcome &o : outcomes[c]) {
            ASSERT_EQ(o.problem, "") << "client " << c << " seed " << o.seed;
            if (o.cancelled) {
                ++cancelled;
                continue;
            }
            EXPECT_EQ(o.payload, directSweep(o.benches, "in-order,icfp",
                                             o.insts, "csv", o.seed))
                << o.benches << " seed " << o.seed;
        }
    }
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, kClients * kOps);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.cancelled, cancelled);
    EXPECT_EQ(stats.completed + stats.cancelled, stats.submitted);
    EXPECT_FALSE(fs::exists(socket_));
}

TEST_F(ServiceTest, DeadlineExceededAnswersExplicitError)
{
    Server server(options(1, 4));
    server.start();

    ServiceClient client(socket_);
    // Ten benches x every core at 400k insts: several times the
    // one-second deadline on one runner, so the deadline expires first.
    Frame submit = submitFrame("mcf,equake,gzip,vpr,art,ammp,twolf,parser,"
                               "applu,swim",
                               "all", 400000, true);
    submit.addUint("deadline_sec", 1);
    const Frame ack = client.request(submit);
    ASSERT_EQ(ack.type(), "submitted");

    // The watchdog expires the job; the waiter gets a typed error, the
    // runner's slot frees, and the daemon keeps serving.
    const Frame result = client.readFrame();
    ASSERT_EQ(result.type(), "error");
    EXPECT_NE(result.stringField("message").find("deadline_exceeded"),
              std::string::npos);
    EXPECT_GE(server.stats().deadlineExpired, 1u);

    const Frame after = client.request(
        submitFrame("gzip", "in-order", 2000, true));
    ASSERT_EQ(after.type(), "submitted");
    EXPECT_EQ(client.readFrame().type(), "result");

    server.requestDrain();
    server.join();
}

// --------------------------------------------------- daemon under faults

/** Daemon tests that arm the process-global fault registry. */
class ServiceFaultTest : public ServiceTest
{
  protected:
    void SetUp() override
    {
        ServiceTest::SetUp();
        fault::disarmAll();
    }
    void TearDown() override
    {
        fault::disarmAll();
        ServiceTest::TearDown();
    }
};

TEST_F(ServiceFaultTest, SweepJobFaultAnswersErrorThenCleanResubmit)
{
    Server server(options());
    server.start();
    ServiceClient client(socket_);

    // One row in the grid, so the armed fault hits exactly that job.
    ASSERT_TRUE(fault::armSpec("sweep.job:1"));
    const Frame ack =
        client.request(submitFrame("gzip", "in-order", 2000, true));
    ASSERT_EQ(ack.type(), "submitted");
    const Frame failed = client.readFrame();
    ASSERT_EQ(failed.type(), "error");
    EXPECT_NE(failed.stringField("message").find("injected fault"),
              std::string::npos);
    fault::disarmAll();

    // A failed job is never cached: the resubmit recomputes and the
    // bytes match a direct sweep exactly.
    const Frame ack2 =
        client.request(submitFrame("gzip", "in-order", 2000, true));
    ASSERT_EQ(ack2.type(), "submitted");
    const Frame result = client.readFrame();
    ASSERT_EQ(result.type(), "result");
    EXPECT_EQ(result.uintField("cached", 1), 0u);
    EXPECT_EQ(result.stringField("payload"),
              directSweep("gzip", "in-order", 2000));

    server.requestDrain();
    server.join();
    EXPECT_EQ(server.stats().failed, 1u);
    EXPECT_EQ(server.stats().completed, 1u);
}

TEST_F(ServiceFaultTest, TornResponseWriteKillsSessionNotDaemon)
{
    Server server(options());
    server.start();

    ServiceClient client(socket_); // handshake completes unarmed
    // From here the only writeFrame call in flight is the server's pong
    // (sendRaw bypasses the client-side writeFrame), so the ordering is
    // deterministic even though the registry is process-global.
    ASSERT_TRUE(fault::armSpec("protocol.write:1"));
    client.sendRaw(Frame("ping").serialize() + "\n");
    // The torn pong reaches us as garbage-then-error or garbage-then-
    // EOF; either way this session is over and surfaces typed.
    bool session_died = false;
    try {
        const Frame frame = client.readFrame();
        session_died = frame.type() == "error";
    } catch (const ProtocolError &) {
        session_died = true;
    }
    EXPECT_TRUE(session_died);
    fault::disarmAll();

    // The daemon shrugged the session off and keeps serving.
    ServiceClient next(socket_);
    EXPECT_EQ(next.request(Frame("ping")).type(), "pong");
    server.requestDrain();
    server.join();
}

// ---------------------------------------------------------- daemon status

TEST_F(ServiceTest, DaemonStatusFrameReportsQueueAndIdentity)
{
    Server server(options(1, 4));
    server.start();

    ServiceClient client(socket_);
    const Frame idle = client.request(Frame("status"));
    ASSERT_EQ(idle.type(), "status");
    EXPECT_EQ(idle.uintField("proto", 0), kProtocolVersion);
    EXPECT_EQ(idle.stringField("fp"),
              fingerprintHex(registryFingerprint()));
    EXPECT_EQ(idle.uintField("queue_depth", 0), 4u);
    EXPECT_EQ(idle.uintField("active", 99), 0u);
    EXPECT_EQ(idle.uintField("draining", 99), 0u);
    EXPECT_FALSE(idle.has("running_job"));
    EXPECT_FALSE(idle.has("peers")); // not a coordinator

    // While a heavy job runs, the frame names it.
    const Frame ack =
        client.request(submitFrame("mcf", "all", 400000, false));
    ASSERT_EQ(ack.type(), "submitted");
    const uint64_t id = ack.uintField("job", 0);
    Frame busy_status;
    for (int i = 0; i < 500; ++i) {
        busy_status = client.request(Frame("status"));
        if (busy_status.has("running_job"))
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(busy_status.has("running_job"));
    EXPECT_EQ(busy_status.uintField("running_job", 0), id);
    EXPECT_GE(busy_status.uintField("active", 0), 1u);

    server.requestDrain();
    server.join();
    EXPECT_EQ(server.stats().completed, 1u); // drain finished the job
}

// ------------------------------------------------------------------- TCP

TEST_F(ServiceTest, TcpListenerServesByteIdenticalArtifacts)
{
    ServerOptions opts = options();
    opts.listenTcp = "127.0.0.1:0"; // ephemeral: no port collisions
    Server server(opts);
    server.start();
    const std::string tcp = server.tcpEndpoint();
    ASSERT_NE(tcp.find("127.0.0.1:"), std::string::npos);

    // The same daemon answers on both transports, byte-identically.
    for (const std::string &spec : {tcp, socket_}) {
        ServiceClient client(spec);
        EXPECT_EQ(client.hello().stringField("fp"),
                  fingerprintHex(registryFingerprint()));
        const Frame ack = client.request(
            submitFrame("mcf,gzip", "in-order,icfp", 3000, true));
        ASSERT_EQ(ack.type(), "submitted") << spec;
        const Frame result = client.readFrame();
        ASSERT_EQ(result.type(), "result") << spec;
        EXPECT_EQ(result.stringField("payload"),
                  directSweep("mcf,gzip", "in-order,icfp", 3000))
            << spec;
    }
    server.requestDrain();
    server.join();
}

TEST_F(ServiceTest, TcpFramingSurvivesPartialDelivery)
{
    ServerOptions opts = options();
    opts.listenTcp = "127.0.0.1:0";
    Server server(opts);
    server.start();

    // Drip a ping frame one byte at a time over TCP: readFrame must
    // buffer across however many partial reads the kernel serves.
    const int fd = connectSpec(server.tcpEndpoint());
    ASSERT_GE(fd, 0);
    std::string buffer;
    const std::optional<Frame> hello = readFrame(fd, &buffer, 5000);
    ASSERT_TRUE(hello.has_value());
    EXPECT_EQ(hello->type(), "hello");

    const std::string line = Frame("ping").serialize() + "\n";
    for (const char byte : line) {
        ASSERT_EQ(::send(fd, &byte, 1, MSG_NOSIGNAL), 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::optional<Frame> pong = readFrame(fd, &buffer, 5000);
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(pong->type(), "pong");
    ::close(fd);

    // A torn frame (half a line, then close) must not hurt the daemon.
    const int torn = connectSpec(server.tcpEndpoint());
    ASSERT_GE(torn, 0);
    std::string torn_buffer;
    ASSERT_TRUE(readFrame(torn, &torn_buffer, 5000).has_value());
    const std::string half = line.substr(0, line.size() / 2);
    ASSERT_EQ(::send(torn, half.data(), half.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(half.size()));
    ::close(torn);

    ServiceClient alive(server.tcpEndpoint());
    EXPECT_EQ(alive.request(Frame("ping")).type(), "pong");
    server.requestDrain();
    server.join();
}

// --------------------------------------------------------- shard submits

TEST_F(ServiceTest, ShardSubmitsMergeByteIdenticallyToUnshardedSweep)
{
    Server server(options());
    server.start();

    // Two shard submits of the same request, stitched back through the
    // same mergeShards() the coordinator uses.
    ServiceClient client(socket_);
    std::vector<ShardArtifact> parts;
    std::string whole_fp;
    for (const char *shard : {"1/2", "2/2"}) {
        Frame submit = submitFrame("mcf,gzip,equake", "in-order,icfp",
                                   3000, true);
        submit.addString("shard", shard);
        const Frame ack = client.request(submit);
        ASSERT_EQ(ack.type(), "submitted") << shard;
        EXPECT_EQ(ack.stringField("shard"), shard);
        EXPECT_EQ(ack.uintField("grid_rows", 0), 6u);
        const Frame result = client.readFrame();
        ASSERT_EQ(result.type(), "result") << shard;
        parts.push_back(parseShardArtifact(result.stringField("payload"),
                                           std::string("shard ") + shard));
    }
    EXPECT_EQ(mergeShards(parts),
              directSweep("mcf,gzip,equake", "in-order,icfp", 3000));

    // Naming the one-slice shard still frames the artifact (like
    // `sweep --shard 1/1`), and it merges alone into the plain report.
    Frame one = submitFrame("mcf,gzip,equake", "in-order,icfp", 3000, true);
    one.addString("shard", "1/1");
    ASSERT_EQ(client.request(one).type(), "submitted");
    const Frame one_result = client.readFrame();
    ASSERT_EQ(one_result.type(), "result");
    const std::string one_payload = one_result.stringField("payload");
    EXPECT_EQ(one_payload.rfind("#shard index=1 count=1 grid=6 ", 0), 0u)
        << one_payload;
    EXPECT_EQ(mergeShards({parseShardArtifact(one_payload, "shard 1/1")}),
              directSweep("mcf,gzip,equake", "in-order,icfp", 3000));

    // A shard request and a whole-grid request of the same sweep have
    // different artifacts, so they must have different cache keys.
    const Frame whole_ack = client.request(
        submitFrame("mcf,gzip,equake", "in-order,icfp", 3000, true));
    ASSERT_EQ(whole_ack.type(), "submitted");
    const Frame whole = client.readFrame();
    ASSERT_EQ(whole.type(), "result");
    EXPECT_EQ(whole.uintField("cached", 1), 0u); // no false sharing
    EXPECT_EQ(whole.stringField("payload"),
              directSweep("mcf,gzip,equake", "in-order,icfp", 3000));

    server.requestDrain();
    server.join();
}

// ------------------------------------------------------------ federation

class FederationTest : public ServiceTest
{
  protected:
    struct Peer
    {
        std::unique_ptr<Server> server;
        std::string endpoint;
    };

    /** A peer daemon on its own socket; TCP by default. */
    Peer makePeer(const std::string &name, bool tcp = true)
    {
        ServerOptions opts;
        opts.socketPath = dir_ + "/" + name + ".sock";
        opts.jobs = 2;
        opts.queueDepth = 8;
        if (tcp)
            opts.listenTcp = "127.0.0.1:0";
        Peer peer;
        peer.server = std::make_unique<Server>(opts);
        peer.server->start();
        peer.endpoint =
            tcp ? peer.server->tcpEndpoint() : opts.socketPath;
        return peer;
    }

    /** A coordinator on the fixture socket, waiting for @p min_healthy
     *  peers before returning (0 = don't wait). */
    std::unique_ptr<Server>
    makeCoordinator(std::vector<std::string> peers, size_t min_healthy)
    {
        ServerOptions opts = options();
        opts.peers = std::move(peers);
        auto server = std::make_unique<Server>(opts);
        server->start();
        if (min_healthy) {
            EXPECT_TRUE(server->peerPool()->waitHealthy(
                min_healthy, std::chrono::seconds(20)));
        }
        return server;
    }

    static void drain(Server &server)
    {
        server.requestDrain();
        server.join();
    }
};

TEST_F(FederationTest, CoordinatorMergesPeerSlicesByteIdentically)
{
    Peer peer1 = makePeer("peer1");               // TCP
    Peer peer2 = makePeer("peer2", /*tcp=*/false); // Unix: mixed fleet
    std::unique_ptr<Server> coord =
        makeCoordinator({peer1.endpoint, peer2.endpoint}, 2);

    for (const std::string format : {"csv", "json"}) {
        ServiceClient client(socket_);
        const Frame ack = client.request(submitFrame(
            "mcf,gzip,equake", "in-order,icfp", 3000, true, format));
        ASSERT_EQ(ack.type(), "submitted") << format;
        const Frame result = client.readFrame();
        ASSERT_EQ(result.type(), "result") << format;
        EXPECT_EQ(
            result.stringField("payload"),
            directSweep("mcf,gzip,equake", "in-order,icfp", 3000, format))
            << format;
    }

    // The rows ran on the peers, not on the coordinator's engine.
    EXPECT_EQ(coord->engine().replays(), 0u);
    EXPECT_GT(peer1.server->engine().replays(), 0u);
    EXPECT_GT(peer2.server->engine().replays(), 0u);

    // The coordinator's status frame carries per-peer health.
    ServiceClient client(socket_);
    const Frame status = client.request(Frame("status"));
    ASSERT_EQ(status.type(), "status");
    ASSERT_EQ(status.uintField("peers", 0), 2u);
    for (const char *key : {"peer0", "peer0_state", "peer0_rtt_us",
                            "peer1", "peer1_state"})
        EXPECT_TRUE(status.has(key)) << key;
    EXPECT_EQ(status.stringField("peer0_state"), "healthy");
    EXPECT_EQ(status.stringField("peer1_state"), "healthy");

    drain(*coord);
    drain(*peer1.server);
    drain(*peer2.server);
}

TEST_F(FederationTest, ShardSubmitToCoordinatorRunsLocallyNeverRefederated)
{
    Peer peer1 = makePeer("peer1");
    Peer peer2 = makePeer("peer2");
    std::unique_ptr<Server> coord =
        makeCoordinator({peer1.endpoint, peer2.endpoint}, 2);

    // A shard submit is already some coordinator's slice: this one runs
    // it on its own engine and answers the framed slice.
    std::vector<ShardArtifact> parts;
    ServiceClient client(socket_);
    for (const char *shard : {"1/2", "2/2"}) {
        Frame submit = submitFrame("mcf,gzip,equake", "in-order,icfp",
                                   3000, true);
        submit.addString("shard", shard);
        ASSERT_EQ(client.request(submit).type(), "submitted") << shard;
        const Frame result = client.readFrame();
        ASSERT_EQ(result.type(), "result") << shard;
        parts.push_back(parseShardArtifact(result.stringField("payload"),
                                           std::string("shard ") + shard));
    }
    EXPECT_EQ(parts[0].shard.index, 0u);
    EXPECT_EQ(parts[0].shard.count, 2u);
    EXPECT_EQ(parts[0].rows.size(), 3u);
    EXPECT_EQ(mergeShards(parts),
              directSweep("mcf,gzip,equake", "in-order,icfp", 3000));

    EXPECT_EQ(coord->engine().replays(), 6u);
    EXPECT_EQ(peer1.server->engine().replays(), 0u);
    EXPECT_EQ(peer2.server->engine().replays(), 0u);

    drain(*coord);
    drain(*peer1.server);
    drain(*peer2.server);
}

TEST_F(FederationTest, AllPeersDownDegradesToLocalByteIdentically)
{
    // Reserve a port that nothing answers on by binding and closing it.
    std::string dead_spec;
    {
        Listener doomed = Listener::listenTcp("127.0.0.1:0");
        dead_spec = doomed.boundSpec();
    }
    std::unique_ptr<Server> coord = makeCoordinator({dead_spec}, 0);

    ServiceClient client(socket_);
    const Frame ack = client.request(
        submitFrame("mcf,gzip", "in-order,icfp", 3000, true));
    ASSERT_EQ(ack.type(), "submitted");
    const Frame result = client.readFrame();
    ASSERT_EQ(result.type(), "result");
    EXPECT_EQ(result.stringField("payload"),
              directSweep("mcf,gzip", "in-order,icfp", 3000));
    EXPECT_GT(coord->engine().replays(), 0u); // the coordinator IS the fleet
    drain(*coord);
}

TEST_F(FederationTest, MismatchedFingerprintPeerIsRefusedNeverDispatched)
{
    // A fake peer whose hello carries a foreign registry fingerprint:
    // a daemon built from different simulator semantics. Its rows must
    // never enter a merge.
    Listener fake = Listener::listenTcp("127.0.0.1:0");
    const std::string fake_spec = fake.boundSpec();
    // Read once: the thread must not race the fd member fake.close()
    // resets.
    const int fake_fd = fake.fd();
    std::atomic<unsigned> submits_seen{0};
    std::thread imposter([&] {
        while (true) {
            const int fd = ::accept(fake_fd, nullptr, nullptr);
            if (fd < 0)
                return; // listener closed: test over
            try {
                Frame hello("hello");
                hello.addUint("proto", kProtocolVersion);
                hello.addUint("sim", 9999);
                hello.addString("fp", "00000000deadbeef");
                writeFrame(fd, hello);
                std::string buffer;
                while (const std::optional<Frame> frame =
                           readFrame(fd, &buffer, 2000)) {
                    if (frame->type() == "submit")
                        ++submits_seen;
                    writeFrame(fd, errorFrame("imposter"));
                }
            } catch (...) {
            }
            ::close(fd);
        }
    });

    std::unique_ptr<Server> coord = makeCoordinator({fake_spec}, 0);
    PeerPool *pool = coord->peerPool();
    ASSERT_NE(pool, nullptr);
    PeerState state = PeerState::Connecting;
    for (int i = 0; i < 1000; ++i) {
        state = pool->statuses()[0].state;
        if (state == PeerState::Rejected)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(state, PeerState::Rejected);
    EXPECT_EQ(pool->statuses()[0].fp, "00000000deadbeef");

    // The daemon-status frame names the refusal.
    {
        ServiceClient client(socket_);
        const Frame status = client.request(Frame("status"));
        ASSERT_EQ(status.type(), "status");
        EXPECT_EQ(status.stringField("peer0_state"), "rejected");
        EXPECT_NE(status.stringField("peer0_error")
                      .find("fingerprint mismatch"),
                  std::string::npos);
    }

    // A submit degrades to local — and the imposter never saw a slice.
    ServiceClient client(socket_);
    const Frame ack = client.request(
        submitFrame("mcf,gzip", "in-order,icfp", 3000, true));
    ASSERT_EQ(ack.type(), "submitted");
    const Frame result = client.readFrame();
    ASSERT_EQ(result.type(), "result");
    EXPECT_EQ(result.stringField("payload"),
              directSweep("mcf,gzip", "in-order,icfp", 3000));
    EXPECT_EQ(submits_seen.load(), 0u);

    drain(*coord);
    // shutdown() (not just close) is what actually wakes a thread
    // blocked in accept() on the listener; close only once it is gone.
    ::shutdown(fake_fd, SHUT_RDWR);
    imposter.join();
    fake.close();
}

TEST_F(FederationTest, PeerDeathMidCollectRedispatchesByteIdentically)
{
    // A fake peer that accepts the slice, answers `submitted`, then
    // hangs up — the remote-death-mid-job shape. The coordinator must
    // re-dispatch the slice and still merge byte-identical artifacts.
    Listener fake = Listener::listenTcp("127.0.0.1:0");
    const std::string fake_spec = fake.boundSpec();
    const int fake_fd = fake.fd(); // read once, before the thread starts
    std::atomic<bool> fake_died{false};
    // Thread per connection: the coordinator holds a health-poll
    // session open while the dispatch session arrives on a second one.
    const auto session = [&](int fd) {
        try {
            writeFrame(fd, helloFrame());
            std::string buffer;
            while (const std::optional<Frame> frame =
                       readFrame(fd, &buffer, 5000)) {
                if (frame->type() == "ping") {
                    Frame pong("pong");
                    pong.addUint("proto", kProtocolVersion);
                    writeFrame(fd, pong);
                } else if (frame->type() == "status") {
                    Frame status("status");
                    status.addUint("proto", kProtocolVersion);
                    status.addString(
                        "fp", fingerprintHex(registryFingerprint()));
                    status.addUint("queue_depth", 8);
                    status.addUint("active", 0);
                    writeFrame(fd, status);
                } else if (frame->type() == "submit") {
                    Frame ack("submitted");
                    ack.addUint("job", 1);
                    writeFrame(fd, ack);
                    fake_died = true;
                    break; // die abruptly, mid-job
                }
            }
        } catch (...) {
        }
        ::close(fd);
    };
    std::vector<std::thread> sessions;
    std::mutex sessions_mutex;
    std::thread doomed([&] {
        while (true) {
            const int fd = ::accept(fake_fd, nullptr, nullptr);
            if (fd < 0)
                return;
            std::lock_guard<std::mutex> lock(sessions_mutex);
            sessions.emplace_back(session, fd);
        }
    });

    Peer survivor = makePeer("survivor");
    std::unique_ptr<Server> coord =
        makeCoordinator({fake_spec, survivor.endpoint}, 2);

    ServiceClient client(socket_);
    const Frame ack = client.request(
        submitFrame("mcf,gzip,equake", "in-order,icfp", 3000, true));
    ASSERT_EQ(ack.type(), "submitted");
    const Frame result = client.readFrame();
    ASSERT_EQ(result.type(), "result");
    EXPECT_EQ(result.stringField("payload"),
              directSweep("mcf,gzip,equake", "in-order,icfp", 3000));
    EXPECT_TRUE(fake_died.load()); // the failure path actually ran

    drain(*coord);
    drain(*survivor.server);
    ::shutdown(fake_fd, SHUT_RDWR); // wakes the blocked accept()
    doomed.join();
    for (std::thread &t : sessions)
        t.join();
    fake.close();
}

/** Federation tests that arm the process-global fault registry. */
class FederationFaultTest : public FederationTest
{
  protected:
    void SetUp() override
    {
        FederationTest::SetUp();
        fault::disarmAll();
    }
    void TearDown() override
    {
        fault::disarmAll();
        FederationTest::TearDown();
    }
};

TEST_F(FederationFaultTest, DispatchAndCollectFaultsRecoverByteIdentically)
{
    Peer peer1 = makePeer("peer1");
    Peer peer2 = makePeer("peer2");
    std::unique_ptr<Server> coord =
        makeCoordinator({peer1.endpoint, peer2.endpoint}, 2);

    // One slice's first dispatch throws before any bytes move; the
    // slice lands elsewhere (the other peer or the local engine) and
    // the artifact must not show a seam.
    ASSERT_TRUE(fault::armSpec("federation.dispatch:1"));
    {
        ServiceClient client(socket_);
        const Frame ack = client.request(
            submitFrame("mcf,gzip,equake", "in-order,icfp", 3000, true));
        ASSERT_EQ(ack.type(), "submitted");
        const Frame result = client.readFrame();
        ASSERT_EQ(result.type(), "result");
        EXPECT_EQ(result.stringField("payload"),
                  directSweep("mcf,gzip,equake", "in-order,icfp", 3000));
    }
    EXPECT_EQ(fault::firedCount("federation.dispatch"), 1u);
    fault::disarmAll();

    // Same for a failure after the payload arrived but before it was
    // accepted (validation-stage death).
    ASSERT_TRUE(fault::armSpec("federation.collect:1"));
    {
        ServiceClient client(socket_);
        const Frame ack = client.request(submitFrame(
            "mcf,gzip,equake", "in-order,icfp", 3000, true, "json"));
        ASSERT_EQ(ack.type(), "submitted");
        const Frame result = client.readFrame();
        ASSERT_EQ(result.type(), "result");
        EXPECT_EQ(result.stringField("payload"),
                  directSweep("mcf,gzip,equake", "in-order,icfp", 3000,
                              "json"));
    }
    EXPECT_EQ(fault::firedCount("federation.collect"), 1u);

    drain(*coord);
    drain(*peer1.server);
    drain(*peer2.server);
}

// --------------------------------------------------------- observability

/** Value of the sample named exactly @p name in an exposition text,
 *  or -1 if absent. */
int64_t
sampleValue(const std::string &text, const std::string &name)
{
    for (const metrics::ExpositionFamily &family :
         metrics::parseExposition(text)) {
        for (const auto &[sample, value] : family.samples) {
            if (sample == name)
                return value;
        }
    }
    return -1;
}

/** One complete ("X") event from a Chrome trace document. */
struct TraceEvent
{
    std::string name;
    uint64_t ts = 0;
    uint64_t dur = 0;
};

/** Line-parse chromeTraceJson output (one event per line). */
std::vector<TraceEvent>
parseCompleteEvents(const std::string &json)
{
    std::vector<TraceEvent> events;
    std::istringstream lines(json);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("{\"name\":\"", 0) != 0 ||
            line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        TraceEvent event;
        const size_t name_end = line.find('"', 9);
        event.name = line.substr(9, name_end - 9);
        const size_t ts = line.find("\"ts\":");
        const size_t dur = line.find("\"dur\":");
        EXPECT_NE(ts, std::string::npos) << line;
        EXPECT_NE(dur, std::string::npos) << line;
        event.ts = std::strtoull(line.c_str() + ts + 5, nullptr, 10);
        event.dur = std::strtoull(line.c_str() + dur + 6, nullptr, 10);
        events.push_back(std::move(event));
    }
    return events;
}

TEST_F(ServiceTest, MetricsFrameAnswersTextAndJsonAndRejectsBadArgs)
{
    Server server(options());
    server.start();

    ServiceClient client(socket_);
    const Frame ack = client.request(
        submitFrame("gzip", "in-order,icfp", 2000, true));
    ASSERT_EQ(ack.type(), "submitted");
    ASSERT_EQ(client.readFrame().type(), "result");

    // Default scrape: Prometheus text with TYPE lines, and the job the
    // daemon just ran is visible in the counters.
    const Frame text_reply = client.request(Frame("metrics"));
    ASSERT_EQ(text_reply.type(), "metrics");
    EXPECT_TRUE(text_reply.uintField("uptime_sec").has_value());
    EXPECT_EQ(text_reply.stringField("format"), "text");
    const std::string text = text_reply.stringField("payload");
    EXPECT_NE(text.find("# TYPE icfp_jobs_completed counter"),
              std::string::npos);
    // The registry is process-global (it aggregates across every test
    // in this binary), so assert floors, not exact values.
    EXPECT_GE(sampleValue(text, "icfp_jobs_completed"), 1);
    EXPECT_GE(sampleValue(text, "icfp_jobs_submitted"), 1);
    EXPECT_GE(sampleValue(text, "icfp_replays"), 1);
    EXPECT_GE(sampleValue(text, "icfp_trace_generations"), 1);
    EXPECT_NE(text.find("icfp_job_duration_us_bucket{le=\"+Inf\"}"),
              std::string::npos);
    // The exposition is parseable and render-stable (a valid document).
    EXPECT_EQ(metrics::renderExpositionText(metrics::parseExposition(text)),
              text);

    // JSON form: the same samples as a flat object.
    Frame as_json("metrics");
    as_json.addString("format", "json");
    const Frame json_reply = client.request(as_json);
    ASSERT_EQ(json_reply.type(), "metrics");
    EXPECT_EQ(json_reply.stringField("format"), "json");
    const std::string json = json_reply.stringField("payload");
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"icfp_jobs_completed\":"), std::string::npos);

    // Bad arguments are explicit errors, and the session survives.
    Frame bad_format("metrics");
    bad_format.addString("format", "xml");
    EXPECT_EQ(client.request(bad_format).type(), "error");
    Frame bad_scope("metrics");
    bad_scope.addString("scope", "galaxy");
    EXPECT_EQ(client.request(bad_scope).type(), "error");
    EXPECT_EQ(client.request(Frame("ping")).type(), "pong");

    server.requestDrain();
    server.join();
}

TEST_F(ServiceTest, PingAndStatusCarryUptimeAndLifetimeCounters)
{
    Server server(options());
    server.start();

    ServiceClient client(socket_);
    const Frame idle_pong = client.request(Frame("ping"));
    ASSERT_EQ(idle_pong.type(), "pong");
    ASSERT_TRUE(idle_pong.uintField("uptime_sec").has_value());
    EXPECT_LT(idle_pong.uintField("uptime_sec", 9999), 3600u);
    EXPECT_EQ(idle_pong.uintField("completed", 99), 0u);
    EXPECT_EQ(idle_pong.uintField("failed", 99), 0u);
    EXPECT_EQ(idle_pong.uintField("cancelled", 99), 0u);

    const Frame ack = client.request(
        submitFrame("gzip", "in-order", 2000, true));
    ASSERT_EQ(ack.type(), "submitted");
    ASSERT_EQ(client.readFrame().type(), "result");

    // Lifetime counters are per-daemon (stats_), so exact values hold.
    const Frame pong = client.request(Frame("ping"));
    EXPECT_EQ(pong.uintField("completed", 0), 1u);
    EXPECT_EQ(pong.uintField("failed", 99), 0u);
    const Frame status = client.request(Frame("status"));
    ASSERT_EQ(status.type(), "status");
    EXPECT_TRUE(status.uintField("uptime_sec").has_value());
    EXPECT_EQ(status.uintField("completed", 0), 1u);
    EXPECT_EQ(status.uintField("failed", 99), 0u);
    EXPECT_EQ(status.uintField("cancelled", 99), 0u);

    server.requestDrain();
    server.join();
}

TEST_F(ServiceTest, SubmitTraceRefusedWithoutJobTraceDir)
{
    Server server(options()); // no jobTraceDir configured
    server.start();

    ServiceClient client(socket_);
    Frame submit = submitFrame("gzip", "in-order", 2000, true);
    submit.addUint("trace", 1);
    const Frame refused = client.request(submit);
    ASSERT_EQ(refused.type(), "error");
    EXPECT_NE(refused.stringField("message").find("tracing unavailable"),
              std::string::npos);

    // Misconfiguration is per-request: the same submit without the
    // trace flag runs normally on the same session.
    const Frame ack = client.request(
        submitFrame("gzip", "in-order", 2000, true));
    ASSERT_EQ(ack.type(), "submitted");
    EXPECT_FALSE(ack.has("trace_file"));
    EXPECT_EQ(client.readFrame().type(), "result");

    server.requestDrain();
    server.join();
}

TEST_F(ServiceTest, JobTracePublishedValidAndArtifactUnchanged)
{
    // One engine worker: the job's phases are strictly serial, so the
    // published spans must be monotonic AND non-overlapping.
    ServerOptions opts = options(1, 4);
    opts.jobTraceDir = dir_ + "/job-traces";
    Server server(opts);
    server.start();

    ServiceClient client(socket_);
    Frame submit = submitFrame("mcf,gzip", "in-order,icfp", 3000, true);
    submit.addUint("trace", 1);
    const Frame ack = client.request(submit);
    ASSERT_EQ(ack.type(), "submitted") << ack.stringField("message");
    const std::string trace_file = ack.stringField("trace_file");
    ASSERT_FALSE(trace_file.empty());
    const Frame result = client.readFrame();
    ASSERT_EQ(result.type(), "result");

    // Tracing is out-of-band: the traced artifact is byte-identical to
    // a direct sweep (which other tests pin as the untraced bytes).
    EXPECT_EQ(result.stringField("payload"),
              directSweep("mcf,gzip", "in-order,icfp", 3000));

    // The trace is already durable when the result frame arrives.
    ASSERT_TRUE(fs::exists(trace_file));
    std::ifstream in(trace_file);
    std::stringstream content;
    content << in.rdbuf();
    const std::string json = content.str();

    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"outcome\":\"done\""), std::string::npos);
    EXPECT_NE(json.find("icfp-sim job " +
                        std::to_string(ack.uintField("job", 0))),
              std::string::npos);

    const std::vector<TraceEvent> events = parseCompleteEvents(json);
    std::vector<std::string> names;
    for (const TraceEvent &event : events)
        names.push_back(event.name);
    for (const char *phase : {"queue_wait", "cache_probe", "trace_gen",
                              "replay", "report_emit"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), phase),
                  names.end())
            << phase;
    }
    // Monotonic, non-overlapping phase spans.
    for (size_t i = 1; i < events.size(); ++i) {
        EXPECT_GE(events[i].ts, events[i - 1].ts) << names[i];
        EXPECT_GE(events[i].ts, events[i - 1].ts + events[i - 1].dur)
            << names[i - 1] << " overlaps " << names[i];
    }

    // A warm repeat is traced too, with its own file and the cache-hit
    // outcome recorded in the metadata.
    const Frame ack2 = client.request(submit);
    ASSERT_EQ(ack2.type(), "submitted");
    const std::string trace_file2 = ack2.stringField("trace_file");
    EXPECT_NE(trace_file2, trace_file);
    ASSERT_EQ(client.readFrame().type(), "result");
    ASSERT_TRUE(fs::exists(trace_file2));
    std::ifstream in2(trace_file2);
    std::stringstream content2;
    content2 << in2.rdbuf();
    EXPECT_NE(content2.str().find("\"outcome\":\"done (cache hit)\""),
              std::string::npos);
    EXPECT_NE(content2.str().find("cache_probe"), std::string::npos);

    server.requestDrain();
    server.join();
}

TEST_F(FederationTest, FleetMetricsRollupLabelsPeerSamples)
{
    Peer peer1 = makePeer("peer1");
    Peer peer2 = makePeer("peer2");
    std::unique_ptr<Server> coord =
        makeCoordinator({peer1.endpoint, peer2.endpoint}, 2);

    ServiceClient client(socket_);
    const Frame ack = client.request(
        submitFrame("mcf,gzip", "in-order,icfp", 3000, true));
    ASSERT_EQ(ack.type(), "submitted");
    ASSERT_EQ(client.readFrame().type(), "result");

    // scope=local answers only for this daemon: no peer-labelled job
    // counters (the peer label only otherwise appears on the pool's
    // RTT histograms).
    Frame local("metrics");
    local.addString("scope", "local");
    const Frame local_reply = client.request(local);
    ASSERT_EQ(local_reply.type(), "metrics");
    EXPECT_EQ(local_reply.stringField("payload")
                  .find("icfp_jobs_submitted{peer="),
              std::string::npos);

    // The fleet rollup scrapes both peers over their real transports
    // and labels every peer sample with its spec.
    const Frame fleet_reply = client.request(Frame("metrics"));
    ASSERT_EQ(fleet_reply.type(), "metrics");
    const std::string fleet = fleet_reply.stringField("payload");
    for (const std::string &spec : {peer1.endpoint, peer2.endpoint}) {
        EXPECT_NE(fleet.find("icfp_jobs_submitted{peer=\"" + spec +
                             "\"}"),
                  std::string::npos)
            << spec;
        EXPECT_NE(fleet.find("icfp_replays{peer=\"" + spec + "\"}"),
                  std::string::npos)
            << spec;
    }
    // The rollup is itself a valid, deterministic exposition.
    EXPECT_EQ(
        metrics::renderExpositionText(metrics::parseExposition(fleet)),
        fleet);

    drain(*coord);
    drain(*peer1.server);
    drain(*peer2.server);
}

} // namespace
} // namespace service
} // namespace icfp
