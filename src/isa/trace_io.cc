#include "isa/trace_io.hh"

#include <cstdint>
#include <cstring>
#include <vector>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "common/logging.hh"

namespace icfp {

namespace {

// Version 2: DynInst records carry one shared value field (result /
// store value merged) and a flags byte instead of a bool — in lockstep
// with kTraceIoFormatVersion and the packed in-memory layout.
constexpr char kMagic[8] = {'I', 'C', 'F', 'P', 'T', 'R', 'C', '2'};
constexpr char kProgMagic[8] = {'I', 'C', 'F', 'P', 'P', 'R', 'G', '2'};

/**
 * Explicit little-endian primitive writer, buffered: primitives append
 * to an in-memory buffer that is flushed to the stream once, at the end
 * (per-byte ostream::put dominated serialization time for multi-million
 * instruction traces).
 */
class Writer
{
  public:
    explicit Writer(std::ostream &os) : os_(os) {}

    ~Writer() { flush(); }

    void
    u8(uint8_t v)
    {
        buffer_.push_back(static_cast<char>(v));
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            u8(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    i64(int64_t v)
    {
        u64(static_cast<uint64_t>(v));
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        buffer_.append(s);
    }

    void
    raw(const void *data, size_t size)
    {
        buffer_.append(static_cast<const char *>(data), size);
    }

    void
    flush()
    {
        if (buffer_.empty())
            return;
        os_.write(buffer_.data(),
                  static_cast<std::streamsize>(buffer_.size()));
        buffer_.clear();
    }

  private:
    std::ostream &os_;
    std::string buffer_;
};

/**
 * Explicit little-endian primitive reader; fatal on truncation. The
 * whole remaining stream is slurped into memory up front and decoded
 * with bounds-checked cursor reads.
 */
class Reader
{
  public:
    explicit Reader(std::istream &is)
    {
        // Read everything that remains (callers may have consumed a
        // header already); decoders stop at their own counts, so any
        // trailing bytes are simply never looked at.
        std::string chunk(1u << 16, '\0');
        while (is.read(chunk.data(),
                       static_cast<std::streamsize>(chunk.size())) ||
               is.gcount() > 0) {
            bytes_.append(chunk.data(),
                          static_cast<size_t>(is.gcount()));
        }
    }

    uint8_t
    u8()
    {
        need(1);
        return static_cast<uint8_t>(bytes_[at_++]);
    }

    uint32_t
    u32()
    {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(
                     static_cast<uint8_t>(bytes_[at_ + i]))
                 << (8 * i);
        at_ += 4;
        return v;
    }

    uint64_t
    u64()
    {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(
                     static_cast<uint8_t>(bytes_[at_ + i]))
                 << (8 * i);
        at_ += 8;
        return v;
    }

    int64_t
    i64()
    {
        return static_cast<int64_t>(u64());
    }

    std::string
    str()
    {
        const uint32_t len = u32();
        if (len > (1u << 20))
            ICFP_FATAL("trace stream corrupt: oversized string");
        need(len);
        std::string s = bytes_.substr(at_, len);
        at_ += len;
        return s;
    }

    void
    need(size_t n)
    {
        if (n > bytes_.size() - at_)
            ICFP_FATAL("trace stream truncated");
    }

  private:
    std::string bytes_;
    size_t at_ = 0;
};

void
writeMemoryImage(Writer &w, const MemoryImage &mem)
{
    const size_t bytes = mem.sizeBytes();
    w.u64(bytes);
    for (Addr a = 0; a < bytes; a += kWordBytes)
        w.u64(mem.read(a));
}

MemoryImage
readMemoryImage(Reader &r)
{
    const uint64_t bytes = r.u64();
    if (bytes < kWordBytes || (bytes & (bytes - 1)) != 0 ||
        bytes > (uint64_t{1} << 36)) {
        ICFP_FATAL("trace stream corrupt: bad memory image size");
    }
    r.need(bytes); // before allocating: the size is untrusted
    // The image starts zeroed; writing only the non-zero words leaves
    // the pages a workload never initialised unfaulted.
    MemoryImage mem(bytes);
    for (Addr a = 0; a < bytes; a += kWordBytes) {
        const RegVal value = r.u64();
        if (value != 0)
            mem.write(a, value);
    }
    return mem;
}

void
writeProgramBody(Writer &w, const Program &program)
{
    w.str(program.name);
    w.u32(static_cast<uint32_t>(program.code.size()));
    for (const Instruction &inst : program.code) {
        w.u8(static_cast<uint8_t>(inst.op));
        w.u8(inst.dst);
        w.u8(inst.src1);
        w.u8(inst.src2);
        w.i64(inst.imm);
        w.u32(inst.target);
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
    p.code.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        Instruction inst;
        const uint8_t op = r.u8();
        if (op > static_cast<uint8_t>(Opcode::Halt))
            ICFP_FATAL("trace stream corrupt: bad opcode");
        inst.op = static_cast<Opcode>(op);
        inst.dst = r.u8();
        inst.src1 = r.u8();
        inst.src2 = r.u8();
        inst.imm = r.i64();
        inst.target = r.u32();
        p.code.push_back(inst);
    }
    p.initialMemory = readMemoryImage(r);
    return p;
}

void
checkMagic(Reader &r, const char (&magic)[8], const char *what)
{
    for (char expected : magic) {
        if (static_cast<char>(r.u8()) != expected)
            ICFP_FATAL("not a %s file (bad magic)", what);
    }
}

} // namespace

void
writeProgram(std::ostream &os, const Program &program)
{
    Writer w(os);
    w.raw(kProgMagic, sizeof(kProgMagic));
    writeProgramBody(w, program);
}

Program
readProgram(std::istream &is)
{
    Reader r(is);
    checkMagic(r, kProgMagic, "program");
    return readProgramBody(r);
}

void
writeTrace(std::ostream &os, const Trace &trace)
{
    ICFP_ASSERT(trace.program != nullptr);
    Writer w(os);
    w.raw(kMagic, sizeof(kMagic));
    writeProgramBody(w, *trace.program);

    w.u64(trace.insts.size());
    for (const DynInst &di : trace.insts) {
        w.u32(di.pc);
        w.u32(di.nextPc);
        w.u8(static_cast<uint8_t>(di.op));
        w.u8(di.dst);
        w.u8(di.src1);
        w.u8(di.src2);
        w.u64(di.addr);
        w.u64(di.value);
        w.u8(di.flags);
    }

    for (RegVal v : trace.finalRegs)
        w.u64(v);

    // The final memory is stored as its delta against the initial image
    // (count + ascending (addr, value) pairs): workload data segments
    // run to tens of megabytes while a run touches a tiny fraction.
    w.u64(trace.finalDelta.size());
    for (const auto &[addr, value] : trace.finalDelta) {
        w.u64(addr);
        w.u64(value);
    }
    w.u8(trace.halted ? 1 : 0);
}

Trace
readTrace(std::istream &is)
{
    Reader r(is);
    checkMagic(r, kMagic, "trace");

    Trace trace;
    trace.program = std::make_shared<Program>(readProgramBody(r));

    const uint64_t count = r.u64();
    if (count > (uint64_t{1} << 32))
        ICFP_FATAL("trace stream corrupt: oversized trace");
    trace.insts.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        DynInst &di = trace.insts.emplace_back();
        di.pc = r.u32();
        di.nextPc = r.u32();
        const uint8_t op = r.u8();
        if (op > static_cast<uint8_t>(Opcode::Halt))
            ICFP_FATAL("trace stream corrupt: bad opcode");
        di.op = static_cast<Opcode>(op);
        di.dst = r.u8();
        di.src1 = r.u8();
        di.src2 = r.u8();
        di.addr = r.u64();
        di.value = r.u64();
        di.flags = r.u8();
    }

    for (RegVal &v : trace.finalRegs)
        v = r.u64();

    // The delta must be exactly what MemOverlay::delta would produce:
    // aligned in-segment addresses, strictly ascending (replays compare
    // deltas for equality), each changing its word.
    const MemoryImage &initial = trace.program->initialMemory;
    const uint64_t delta_count = r.u64();
    if (delta_count > initial.sizeBytes() / kWordBytes)
        ICFP_FATAL("trace stream corrupt: oversized memory delta");
    r.need(delta_count * 2 * sizeof(uint64_t)); // before reserving
    trace.finalDelta.reserve(delta_count);
    for (uint64_t i = 0; i < delta_count; ++i) {
        const Addr addr = r.u64();
        const RegVal value = r.u64();
        if (initial.wrap(addr) != addr)
            ICFP_FATAL("trace stream corrupt: unaligned delta address");
        if (!trace.finalDelta.empty() &&
            addr <= trace.finalDelta.back().first) {
            ICFP_FATAL("trace stream corrupt: memory delta not ascending");
        }
        if (initial.read(addr) == value)
            ICFP_FATAL("trace stream corrupt: identity delta");
        trace.finalDelta.emplace_back(addr, value);
    }
    trace.halted = r.u8() != 0;
    return trace;
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
