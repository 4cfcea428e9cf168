/**
 * @file
 * Round-trip and robustness tests for the binary program/trace
 * serialization (isa/trace_io.hh).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>

#include "isa/trace_io.hh"
#include "sim/simulator.hh"
#include "sim/trace_store.hh"
#include "workloads/kernels.hh"

namespace icfp {
namespace {

Program
sampleProgram()
{
    ProgramBuilder b(4096);
    b.li(1, 64);
    b.li(2, -17);
    const uint32_t loop = b.label();
    b.ld(3, 1, 8);
    b.add(4, 3, 2);
    b.st(4, 1, 8);
    b.addi(1, 1, 8);
    b.andi(1, 1, 1023);
    b.bne(1, 0, loop);
    b.halt();
    b.poke(8, 42);
    return std::move(b).build("sample");
}

TEST(TraceIo, ProgramRoundTrip)
{
    const Program p = sampleProgram();
    std::stringstream ss;
    writeProgram(ss, p);
    const Program q = readProgram(ss);

    ASSERT_EQ(q.code.size(), p.code.size());
    for (size_t i = 0; i < p.code.size(); ++i) {
        EXPECT_EQ(q.code[i].op, p.code[i].op) << "inst " << i;
        EXPECT_EQ(q.code[i].dst, p.code[i].dst);
        EXPECT_EQ(q.code[i].src1, p.code[i].src1);
        EXPECT_EQ(q.code[i].src2, p.code[i].src2);
        EXPECT_EQ(q.code[i].imm, p.code[i].imm);
        EXPECT_EQ(q.code[i].target, p.code[i].target);
    }
    EXPECT_EQ(q.initialMemory, p.initialMemory);
    EXPECT_EQ(q.name, p.name);
}

TEST(TraceIo, TraceRoundTripPreservesEverything)
{
    const Trace t = Interpreter::run(sampleProgram(), 500);
    std::stringstream ss;
    writeTrace(ss, t);
    const Trace u = readTrace(ss);

    ASSERT_EQ(u.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(u[i].pc, t[i].pc) << "dyninst " << i;
        EXPECT_EQ(u[i].nextPc, t[i].nextPc);
        EXPECT_EQ(u[i].op, t[i].op);
        EXPECT_EQ(u[i].addr, t[i].addr);
        EXPECT_EQ(u[i].result(), t[i].result());
        EXPECT_EQ(u[i].storeValue(), t[i].storeValue());
        EXPECT_EQ(u[i].taken(), t[i].taken());
    }
    EXPECT_EQ(u.finalRegs, t.finalRegs);
    EXPECT_EQ(u.finalDelta, t.finalDelta);
    EXPECT_EQ(u.halted, t.halted);
}

TEST(TraceIo, ReloadedTraceReplaysIdentically)
{
    const Trace t =
        Interpreter::run(buildWorkload(findBenchmark("gzip").workload),
                         5000);
    std::stringstream ss;
    writeTrace(ss, t);
    const Trace u = readTrace(ss);

    SimConfig cfg;
    const RunResult a = simulate(CoreKind::ICfp, cfg, t);
    const RunResult b = simulate(CoreKind::ICfp, cfg, u);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.mem.dcacheMisses, b.mem.dcacheMisses);
}

TEST(TraceIo, FileRoundTrip)
{
    const Trace t = Interpreter::run(sampleProgram(), 200);
    const std::string path = ::testing::TempDir() + "icfp_trace_rt.bin";
    saveTraceFile(path, t);
    const Trace u = loadTraceFile(path);
    EXPECT_EQ(u.size(), t.size());
    EXPECT_EQ(u.finalDelta, t.finalDelta);
    std::remove(path.c_str());
}

TEST(TraceIo, TraceBytesPinnedForGzipAndVpr)
{
    // Absolute pins, not a comparison of two runs of one build: a change
    // to the encoding or to generation that moved both runs alike would
    // also orphan every trace-store entry. Changing these digests means
    // bumping kTraceIoFormatVersion or kTraceGenVersion.
    const struct
    {
        const char *bench;
        uint64_t fnv;
    } pins[] = {
        {"gzip", 0x9394e4c9af9996b2ull},
        {"vpr", 0xacd1c299c404153full},
    };
    for (const auto &pin : pins) {
        std::ostringstream os;
        writeTrace(os, makeBenchTrace(findBenchmark(pin.bench), 2000));
        const std::string bytes = os.str();
        EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), pin.fnv) << pin.bench;
    }
}

using TraceIoDeath = ::testing::Test;

/**
 * Serialized sample trace with its last two final-memory delta pairs
 * passed through @p edit (each pair is 16 bytes: addr, value; the
 * halted byte follows them).
 */
std::string
traceWithEditedDelta(void (*edit)(char *second_last, char *last))
{
    const Trace t = Interpreter::run(sampleProgram(), 500);
    EXPECT_GE(t.finalDelta.size(), 2u);
    std::stringstream ss;
    writeTrace(ss, t);
    std::string bytes = ss.str();
    char *last = bytes.data() + bytes.size() - 1 - 16;
    edit(last - 16, last);
    return bytes;
}

TEST(TraceIoDeath, RejectsDuplicateDeltaAddress)
{
    std::stringstream bad(traceWithEditedDelta(
        [](char *second_last, char *last) {
            // Same address, a value that differs from both the initial
            // word and the first pair's, so only the order check fires.
            std::memcpy(last, second_last, 16);
            last[8] = static_cast<char>(last[8] + 1);
        }));
    EXPECT_DEATH({ readTrace(bad); }, "trace stream corrupt");
}

TEST(TraceIoDeath, RejectsDescendingDeltaAddress)
{
    std::stringstream bad(traceWithEditedDelta(
        [](char *second_last, char *last) {
            char pair[16];
            std::memcpy(pair, second_last, 16);
            std::memcpy(second_last, last, 16);
            std::memcpy(last, pair, 16);
        }));
    EXPECT_DEATH({ readTrace(bad); }, "trace stream corrupt");
}

TEST(TraceIoDeath, RejectsBadMagic)
{
    std::stringstream ss;
    ss << "NOTATRACEFILE----------";
    EXPECT_DEATH({ readTrace(ss); }, "bad magic");
}

TEST(TraceIoDeath, RejectsTruncatedStream)
{
    const Trace t = Interpreter::run(sampleProgram(), 200);
    std::stringstream ss;
    writeTrace(ss, t);
    const std::string full = ss.str();
    std::stringstream cut(full.substr(0, full.size() / 2));
    EXPECT_DEATH({ readTrace(cut); }, "truncated|corrupt");
}

TEST(TraceIoDeath, RejectsCorruptOpcode)
{
    const Program p = sampleProgram();
    std::stringstream ss;
    writeProgram(ss, p);
    std::string bytes = ss.str();
    // Opcode byte of the first instruction record: magic(8) +
    // name(4+len) + count(4).
    const size_t off = 8 + 4 + p.name.size() + 4;
    bytes[off] = static_cast<char>(0xee);
    std::stringstream bad(bytes);
    EXPECT_DEATH({ readProgram(bad); }, "bad opcode");
}

} // namespace
} // namespace icfp
