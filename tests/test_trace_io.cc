/**
 * @file
 * Round-trip and robustness tests for the binary program/trace
 * serialization (isa/trace_io.hh).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <string_view>

#include "common/durable_file.hh" // fnv1a64
#include "isa/trace_io.hh"
#include "sim/simulator.hh"
#include "workloads/kernels.hh"
#include "workloads/suite_registry.hh"

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
    b.poke(2048, 7);
    return std::move(b).build("sample");
}

std::string
programBytes(const Program &p)
{
    std::stringstream ss;
    writeProgram(ss, p);
    return ss.str();
}

/** Offset of the data image's pair count in programBytes(@p p): magic(8)
 *  + name(4+len) + count(4) + code records(16 each) + image size(8). */
size_t
imagePairsOffset(const Program &p)
{
    return 8 + 4 + p.name.size() + 4 + 16 * p.code.size() + 8;
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

TEST(TraceIo, ImagesAreStoredSparsely)
{
    // Size + count + one pair per non-zero word, nothing for the zeroes.
    const Program p = sampleProgram();
    EXPECT_EQ(programBytes(p).size(), imagePairsOffset(p) + 8 + 2 * 16);
}

TEST(TraceIo, EveryRegisteredBenchImageRoundTrips)
{
    std::set<std::string> seen;
    for (const std::string &suite : suiteNames()) {
        for (const BenchmarkSpec &bench : findSuite(suite)) {
            if (!seen.insert(bench.name).second)
                continue;
            const Trace t = makeBenchTrace(bench, 2000);
            std::stringstream ss;
            writeTrace(ss, t);
            const Trace u = readTrace(ss);
            EXPECT_TRUE(u.program->initialMemory == t.program->initialMemory)
                << bench.name;
            EXPECT_EQ(u.finalDelta, t.finalDelta) << bench.name;
        }
    }
    EXPECT_GE(seen.size(), 36u);
}

TEST(TraceIo, InPlaceDecodeAfterAHeaderMatchesTheTrace)
{
    const Trace t = Interpreter::run(sampleProgram(), 300);
    std::string bytes = "header";
    writeTrace(bytes, t);
    const Trace u = readTrace(std::string_view(bytes).substr(6));
    EXPECT_EQ(u.size(), t.size());
    EXPECT_EQ(u.finalRegs, t.finalRegs);
    EXPECT_EQ(u.finalDelta, t.finalDelta);
    EXPECT_TRUE(u.program->initialMemory == t.program->initialMemory);
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

TEST(TraceIo, TraceBytesPinned)
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
        {"gzip", 0xda9bcd0482f30e83ull},
        {"vpr", 0xb4268afcf6287bb0ull},
        // 64 MB image: pins the sparse image path on a large segment.
        {"kv.get", 0x1119a353c593238full},
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

/**
 * Serialized sample program with its data-image pair list passed
 * through @p edit (@p count: the u64 pair count; @p pairs: the first of
 * its 16-byte (addr, value) pairs, which run to the end of the bytes).
 */
std::string
programWithEditedImage(void (*edit)(char *count, char *pairs))
{
    const Program p = sampleProgram();
    std::string bytes = programBytes(p);
    const size_t at = imagePairsOffset(p);
    uint64_t count = 0;
    std::memcpy(&count, bytes.data() + at, 8);
    EXPECT_EQ(count, 2u);
    edit(bytes.data() + at, bytes.data() + at + 8);
    return bytes;
}

TEST(TraceIoDeath, RejectsUnalignedImageAddress)
{
    std::stringstream bad(programWithEditedImage(
        [](char *, char *pairs) { pairs[0] = static_cast<char>(pairs[0] + 1); }));
    EXPECT_DEATH({ readProgram(bad); }, "unaligned or out-of-range memory image");
}

TEST(TraceIoDeath, RejectsDuplicateImageAddress)
{
    std::stringstream bad(programWithEditedImage(
        [](char *, char *pairs) { std::memcpy(pairs + 16, pairs, 8); }));
    EXPECT_DEATH({ readProgram(bad); }, "memory image not ascending");
}

TEST(TraceIoDeath, RejectsDescendingImageAddress)
{
    std::stringstream bad(programWithEditedImage([](char *, char *pairs) {
        char pair[16];
        std::memcpy(pair, pairs, 16);
        std::memcpy(pairs, pairs + 16, 16);
        std::memcpy(pairs + 16, pair, 16);
    }));
    EXPECT_DEATH({ readProgram(bad); }, "memory image not ascending");
}

TEST(TraceIoDeath, RejectsZeroImageWord)
{
    std::stringstream bad(programWithEditedImage(
        [](char *, char *pairs) { std::memset(pairs + 8, 0, 8); }));
    EXPECT_DEATH({ readProgram(bad); }, "identity memory image word");
}

TEST(TraceIoDeath, RejectsImageCountAboveWordCount)
{
    std::stringstream bad(programWithEditedImage([](char *count, char *) {
        const uint64_t words = 4096 / 8 + 1;
        std::memcpy(count, &words, 8);
    }));
    EXPECT_DEATH({ readProgram(bad); }, "oversized memory image");
}

TEST(TraceIoDeath, RejectsTruncatedImagePairList)
{
    const std::string full = programWithEditedImage([](char *, char *) {});
    std::stringstream cut(full.substr(0, full.size() - 5));
    EXPECT_DEATH({ readProgram(cut); }, "trace stream truncated");
}

TEST(TraceIoDeath, HugeTraceCountOverShortStreamIsTruncationNotAlloc)
{
    // The record count is untrusted: it must be checked against the
    // bytes present before 2^32 DynInsts (128 GiB) are allocated.
    const Program p = sampleProgram();
    std::stringstream ss;
    writeTrace(ss, Interpreter::run(p, 100));
    std::string bytes = ss.str().substr(0, programBytes(p).size());
    const uint64_t count = uint64_t{1} << 32;
    bytes.append(reinterpret_cast<const char *>(&count), 8);
    bytes.append(64, '\0');
    std::stringstream bad(bytes);
    EXPECT_DEATH({ readTrace(bad); }, "trace stream truncated");
}

TEST(TraceIoDeath, HugeProgramCountOverShortStreamIsTruncationNotAlloc)
{
    const Program p = sampleProgram();
    std::string bytes = programBytes(p);
    const size_t at = 8 + 4 + p.name.size();
    const uint32_t count = 1u << 26;
    std::memcpy(bytes.data() + at, &count, 4);
    std::stringstream bad(bytes);
    EXPECT_DEATH({ readProgram(bad); }, "trace stream truncated");
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
