#include "isa/trace_io.hh"

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"

namespace icfp {

namespace {

static_assert(std::endian::native == std::endian::little,
              "trace_io copies integers to and from the little-endian "
              "stream with memcpy");

// Version 3: memory images are stored sparsely, as their non-zero words
// — in lockstep with kTraceIoFormatVersion.
constexpr char kMagic[8] = {'I', 'C', 'F', 'P', 'T', 'R', 'C', '3'};
constexpr char kProgMagic[8] = {'I', 'C', 'F', 'P', 'P', 'R', 'G', '3'};

/** Instruction record: op, dst, src1, src2, imm, target. */
constexpr size_t kInstRecordBytes = 4 + 8 + 4;
/** DynInst record: pc, nextPc, op, dst, src1, src2, addr, value, flags. */
constexpr size_t kDynInstRecordBytes = 4 + 4 + 4 + 8 + 8 + 1;
/** One (word address, value) pair. */
constexpr size_t kPairBytes = 8 + 8;

/** Store @p v at @p at and return the byte after it. */
template <typename T>
char *
put(char *at, T v)
{
    std::memcpy(at, &v, sizeof(v));
    return at + sizeof(v);
}

/** Load a T from @p at and advance @p at past it. */
template <typename T>
T
take(const char *&at)
{
    T v;
    std::memcpy(&v, at, sizeof(v));
    at += sizeof(v);
    return v;
}

/**
 * Little-endian primitive writer appending to a string: each primitive
 * is one memcpy, and the fixed-size record arrays are grown once and
 * filled in place.
 */
class Writer
{
  public:
    explicit Writer(std::string &out) : out_(out) {}

    void u8(uint8_t v) { raw(&v, sizeof(v)); }
    void u32(uint32_t v) { raw(&v, sizeof(v)); }
    void u64(uint64_t v) { raw(&v, sizeof(v)); }

    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        raw(s.data(), s.size());
    }

    void
    raw(const void *data, size_t size)
    {
        out_.append(static_cast<const char *>(data), size);
    }

    /** Append @p n bytes for the caller to fill through put(). */
    char *
    grow(size_t n)
    {
        const size_t at = out_.size();
        out_.resize(at + n);
        return out_.data() + at;
    }

  private:
    std::string &out_;
};

/**
 * Little-endian primitive reader over bytes it does not own; fatal on
 * truncation. Fixed-size record arrays are bounds-checked once, as a
 * whole, before anything is allocated for them (counts are untrusted).
 */
class Reader
{
  public:
    explicit Reader(std::string_view bytes)
        : at_(bytes.data()), end_(bytes.data() + bytes.size())
    {}

    /** Consume @p n bytes, returning where they start. */
    const char *
    bytes(size_t n)
    {
        if (n > static_cast<size_t>(end_ - at_))
            ICFP_FATAL("trace stream truncated");
        const char *p = at_;
        at_ += n;
        return p;
    }

    uint8_t u8() { return static_cast<uint8_t>(*bytes(1)); }

    uint32_t
    u32()
    {
        const char *p = bytes(4);
        return take<uint32_t>(p);
    }

    uint64_t
    u64()
    {
        const char *p = bytes(8);
        return take<uint64_t>(p);
    }

    std::string
    str()
    {
        const uint32_t len = u32();
        if (len > (1u << 20))
            ICFP_FATAL("trace stream corrupt: oversized string");
        return std::string(bytes(len), len);
    }

  private:
    const char *at_;
    const char *end_;
};

Opcode
checkedOpcode(uint8_t op)
{
    if (op > static_cast<uint8_t>(Opcode::Halt))
        ICFP_FATAL("trace stream corrupt: bad opcode");
    return static_cast<Opcode>(op);
}

/** Count + ascending (word address, value) pairs. */
void
writeWordPairs(Writer &w, const MemDelta &pairs)
{
    w.u64(pairs.size());
    char *at = w.grow(pairs.size() * kPairBytes);
    for (const auto &[addr, value] : pairs)
        at = put<uint64_t>(put<uint64_t>(at, addr), value);
}

/** A pair list whose bytes are known to be in the stream. */
struct WordPairs
{
    const char *at;
    uint64_t count;
};

/** Take the count and the pair bytes of a list over an image of
 *  @p image_bytes; a list may name each word at most once. */
WordPairs
takeWordPairs(Reader &r, uint64_t image_bytes, const char *what)
{
    const uint64_t count = r.u64();
    if (count > image_bytes / kWordBytes)
        ICFP_FATAL("trace stream corrupt: oversized %s", what);
    return {r.bytes(count * kPairBytes), count};
}

/**
 * Decode @p pairs as exactly what a delta against @p base would hold:
 * aligned in-image addresses, strictly ascending (replays compare
 * deltas for equality), each value differing from base(addr). Calls
 * emit(addr, value) per pair.
 */
template <typename Base, typename Emit>
void
decodeWordPairs(WordPairs pairs, uint64_t image_bytes, const char *what,
                Base base, Emit emit)
{
    const char *at = pairs.at;
    Addr prev = 0;
    for (uint64_t i = 0; i < pairs.count; ++i) {
        const Addr addr = take<uint64_t>(at);
        const RegVal value = take<uint64_t>(at);
        if (addr % kWordBytes != 0 || addr >= image_bytes)
            ICFP_FATAL("trace stream corrupt: unaligned or out-of-range %s "
                       "address",
                       what);
        if (i > 0 && addr <= prev)
            ICFP_FATAL("trace stream corrupt: %s not ascending", what);
        if (base(addr) == value)
            ICFP_FATAL("trace stream corrupt: identity %s word", what);
        emit(addr, value);
        prev = addr;
    }
}

/** Image size, then its non-zero words as a pair list: the image's
 *  own table entries, sorted. */
void
writeMemoryImage(Writer &w, const MemoryImage &mem)
{
    w.u64(mem.sizeBytes());
    writeWordPairs(w, mem.nonZeroWords());
}

MemoryImage
readMemoryImage(Reader &r)
{
    const uint64_t bytes = r.u64();
    if (bytes < kWordBytes || (bytes & (bytes - 1)) != 0 ||
        bytes > (uint64_t{1} << 36)) {
        ICFP_FATAL("trace stream corrupt: bad memory image size");
    }
    const WordPairs pairs = takeWordPairs(r, bytes, "memory image");
    // A sparse image allocates nothing for its size: only the stored
    // pairs take memory, and their bytes are already in the stream.
    MemoryImage mem(bytes);
    decodeWordPairs(
        pairs, bytes, "memory image", [](Addr) { return RegVal{0}; },
        [&](Addr addr, RegVal value) { mem.write(addr, value); });
    return mem;
}

void
writeProgramBody(Writer &w, const Program &program)
{
    w.str(program.name);
    w.u32(static_cast<uint32_t>(program.code.size()));
    char *at = w.grow(program.code.size() * kInstRecordBytes);
    for (const Instruction &inst : program.code) {
        at = put(at, static_cast<uint8_t>(inst.op));
        at = put(at, inst.dst);
        at = put(at, inst.src1);
        at = put(at, inst.src2);
        at = put(at, inst.imm);
        at = put(at, inst.target);
    }
    writeMemoryImage(w, program.initialMemory);
}

Program
readProgramBody(Reader &r)
{
    Program p;
    p.name = r.str();
    const uint32_t count = r.u32();
    if (count > (1u << 26))
        ICFP_FATAL("trace stream corrupt: oversized program");
    const char *at = r.bytes(count * kInstRecordBytes); // before reserving
    p.code.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        Instruction &inst = p.code.emplace_back();
        inst.op = checkedOpcode(take<uint8_t>(at));
        inst.dst = take<RegId>(at);
        inst.src1 = take<RegId>(at);
        inst.src2 = take<RegId>(at);
        inst.imm = take<int64_t>(at);
        inst.target = take<uint32_t>(at);
    }
    p.initialMemory = readMemoryImage(r);
    return p;
}

void
checkMagic(Reader &r, const char (&magic)[8], const char *what)
{
    if (std::memcmp(r.bytes(sizeof(magic)), magic, sizeof(magic)) != 0)
        ICFP_FATAL("not a %s file (bad magic)", what);
}

/** Everything that remains in @p is (callers may have consumed a
 *  header already); decoders stop at their own counts, so any trailing
 *  bytes are simply never looked at. */
std::string
readRest(std::istream &is)
{
    std::string bytes;
    std::string chunk(1u << 16, '\0');
    while (is.read(chunk.data(), static_cast<std::streamsize>(chunk.size())) ||
           is.gcount() > 0) {
        bytes.append(chunk.data(), static_cast<size_t>(is.gcount()));
    }
    return bytes;
}

} // namespace

void
writeProgram(std::ostream &os, const Program &program)
{
    std::string out;
    Writer w(out);
    w.raw(kProgMagic, sizeof(kProgMagic));
    writeProgramBody(w, program);
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

Program
readProgram(std::istream &is)
{
    const std::string bytes = readRest(is);
    Reader r(bytes);
    checkMagic(r, kProgMagic, "program");
    return readProgramBody(r);
}

void
writeTrace(std::string &out, const Trace &trace)
{
    ICFP_ASSERT(trace.program != nullptr);
    const Program &program = *trace.program;
    Writer w(out);
    w.raw(kMagic, sizeof(kMagic));
    writeProgramBody(w, program);

    w.u64(trace.insts.size());
    char *at = w.grow(trace.insts.size() * kDynInstRecordBytes);
    for (const DynInst &di : trace.insts) {
        at = put(at, di.pc);
        at = put(at, di.nextPc);
        at = put(at, static_cast<uint8_t>(di.op));
        at = put(at, di.dst);
        at = put(at, di.src1);
        at = put(at, di.src2);
        at = put(at, di.addr);
        at = put(at, di.value);
        at = put(at, di.flags);
    }

    for (RegVal v : trace.finalRegs)
        w.u64(v);

    // The final memory is stored as its delta against the initial image:
    // workload data segments run to tens of megabytes while a run
    // touches a tiny fraction.
    writeWordPairs(w, trace.finalDelta);
    w.u8(trace.halted ? 1 : 0);
}

void
writeTrace(std::ostream &os, const Trace &trace)
{
    std::string out;
    writeTrace(out, trace);
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

Trace
readTrace(std::string_view bytes)
{
    Reader r(bytes);
    checkMagic(r, kMagic, "trace");

    Trace trace;
    trace.program = std::make_shared<Program>(readProgramBody(r));

    const uint64_t count = r.u64();
    if (count > (uint64_t{1} << 32))
        ICFP_FATAL("trace stream corrupt: oversized trace");
    const char *at = r.bytes(count * kDynInstRecordBytes); // before reserving
    trace.insts.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        DynInst &di = trace.insts.emplace_back();
        di.pc = take<uint32_t>(at);
        di.nextPc = take<uint32_t>(at);
        di.op = checkedOpcode(take<uint8_t>(at));
        di.dst = take<RegId>(at);
        di.src1 = take<RegId>(at);
        di.src2 = take<RegId>(at);
        di.addr = take<Addr>(at);
        di.value = take<RegVal>(at);
        di.flags = take<uint8_t>(at);
    }

    for (RegVal &v : trace.finalRegs)
        v = r.u64();

    // The delta must be exactly what MemOverlay::delta would produce.
    const MemoryImage &initial = trace.program->initialMemory;
    const WordPairs delta =
        takeWordPairs(r, initial.sizeBytes(), "memory delta");
    trace.finalDelta.reserve(delta.count);
    decodeWordPairs(
        delta, initial.sizeBytes(), "memory delta",
        [&](Addr addr) { return initial.read(addr); },
        [&](Addr addr, RegVal value) {
            trace.finalDelta.emplace_back(addr, value);
        });
    trace.halted = r.u8() != 0;
    return trace;
}

Trace
readTrace(std::istream &is)
{
    return readTrace(readRest(is));
}

void
saveTraceFile(const std::string &path, const Trace &trace)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        ICFP_FATAL("cannot open %s for writing", path.c_str());
    writeTrace(os, trace);
    os.flush();
    if (!os)
        ICFP_FATAL("write to %s failed", path.c_str());
}

Trace
loadTraceFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        ICFP_FATAL("cannot open %s", path.c_str());
    return readTrace(is);
}

} // namespace icfp
