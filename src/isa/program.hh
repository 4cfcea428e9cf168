/**
 * @file
 * Static program representation, data-segment image, and a small builder
 * API used by the workload generators, tests, and examples.
 */

#ifndef ICFP_ISA_PROGRAM_HH
#define ICFP_ISA_PROGRAM_HH

#include <cstdlib>
#include <new>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace icfp {

/**
 * Allocator for MemoryImage words. Storage comes from calloc, so it is
 * already zero and value-initialisation is a no-op: a large image is a
 * fresh anonymous mapping whose pages are faulted in only when written.
 * Only sound for storage that is never shrunk and regrown in place
 * (the regrown tail would keep stale words) — MemoryImage::resize
 * always allocates afresh.
 */
template <typename T>
struct ZeroedAllocator
{
    using value_type = T;

    ZeroedAllocator() = default;

    template <typename U>
    ZeroedAllocator(const ZeroedAllocator<U> &)
    {}

    T *
    allocate(size_t n)
    {
        void *p = std::calloc(n, sizeof(T));
        if (!p)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void deallocate(T *p, size_t) { std::free(p); }

    /** Value-initialisation: calloc already zeroed the word. */
    template <typename U>
    void
    construct(U *)
    {}

    template <typename U, typename... Args>
    void
    construct(U *p, Args &&...args)
    {
        ::new (static_cast<void *>(p)) U(std::forward<Args>(args)...);
    }

    template <typename U>
    bool
    operator==(const ZeroedAllocator<U> &) const
    {
        return true;
    }
};

/**
 * Flat byte-addressed data memory, accessed at 8-byte word granularity.
 *
 * The size is a power of two; effective addresses are wrapped into the
 * segment and aligned down to a word, so every program is memory-safe by
 * construction. Words start zeroed without being written (see
 * ZeroedAllocator), so a multi-megabyte image costs resident memory
 * only for the pages its workload initialises.
 */
class MemoryImage
{
  public:
    using Words = std::vector<RegVal, ZeroedAllocator<RegVal>>;

    MemoryImage() = default;

    explicit MemoryImage(size_t size_bytes) { resize(size_bytes); }

    /**
     * Replace the contents with @p size_bytes of zeroes.
     * @param size_bytes must be a power of two and >= 8
     */
    void
    resize(size_t size_bytes)
    {
        ICFP_ASSERT(size_bytes >= kWordBytes);
        ICFP_ASSERT((size_bytes & (size_bytes - 1)) == 0);
        words_ = Words(size_bytes / kWordBytes);
        mask_ = size_bytes - 1;
    }

    size_t sizeBytes() const { return words_.size() * kWordBytes; }

    /** Wrap an arbitrary 64-bit EA into the segment, word-aligned. */
    Addr
    wrap(Addr addr) const
    {
        return (addr & mask_) & ~Addr{kWordBytes - 1};
    }

    RegVal read(Addr addr) const { return words_[wrap(addr) / kWordBytes]; }

    void
    write(Addr addr, RegVal value)
    {
        words_[wrap(addr) / kWordBytes] = value;
    }

    /** Raw word storage (bulk scans and storage-identity checks). */
    const Words &words() const { return words_; }

    bool operator==(const MemoryImage &other) const = default;

  private:
    Words words_;
    Addr mask_ = 0;
};

/**
 * A memory difference: (word address, value) pairs sorted by strictly
 * ascending address, naming every word that differs from a base image.
 */
using MemDelta = std::vector<std::pair<Addr, RegVal>>;

/**
 * Copy-on-write view over a base MemoryImage.
 *
 * The base stays read-only and shared; the overlay keeps only the words
 * stored through it. The golden interpreter runs on one to produce a
 * trace's final memory as a delta (Trace::finalDelta), and every timing
 * core runs on one and ends with delta() == trace.finalDelta. Two views
 * over the same base are equal exactly when their deltas are, so that
 * check is as strong as comparing whole images, at O(stored words).
 */
class MemOverlay
{
  public:
    MemOverlay() = default;

    explicit MemOverlay(const MemoryImage *base) { reset(base); }

    /** Rebind to @p base and drop all overlay writes. */
    void
    reset(const MemoryImage *base)
    {
        base_ = base;
        writes_.clear();
    }

    Addr wrap(Addr addr) const { return base_->wrap(addr); }

    RegVal
    read(Addr addr) const
    {
        const auto it = writes_.find(base_->wrap(addr));
        return it != writes_.end() ? it->second : base_->read(addr);
    }

    void
    write(Addr addr, RegVal value)
    {
        writes_[base_->wrap(addr)] = value;
    }

    /**
     * The words where this view differs from the base. A word stored
     * back to its base value is not part of the delta.
     */
    MemDelta delta() const;

  private:
    const MemoryImage *base_ = nullptr;
    std::unordered_map<Addr, RegVal> writes_;
};

/** A static program: code plus initial data segment. */
struct Program
{
    std::string name;               ///< for reports
    std::vector<Instruction> code;  ///< entry point is index 0
    MemoryImage initialMemory;      ///< data segment at t = 0

    size_t numInstructions() const { return code.size(); }
};

/**
 * Convenience builder for writing programs in tests and examples.
 *
 * Supports forward-referenced labels:
 * @code
 *   ProgramBuilder b(4096);
 *   auto loop = b.label();
 *   b.ld(1, 1, 0);          // r1 = MEM[r1]
 *   b.bne(1, 0, loop);      // while (r1 != 0)
 *   b.halt();
 *   Program p = std::move(b).build();
 * @endcode
 */
class ProgramBuilder
{
  public:
    /** @param data_bytes data segment size (power of two) */
    explicit ProgramBuilder(size_t data_bytes)
    {
        program_.initialMemory.resize(data_bytes);
    }

    /** A label bound to the *next* emitted instruction. */
    uint32_t
    label() const
    {
        return static_cast<uint32_t>(program_.code.size());
    }

    // Three-register ALU forms.
    ProgramBuilder &add(RegId d, RegId a, RegId b) { return r3(Opcode::Add, d, a, b); }
    ProgramBuilder &sub(RegId d, RegId a, RegId b) { return r3(Opcode::Sub, d, a, b); }
    ProgramBuilder &and_(RegId d, RegId a, RegId b) { return r3(Opcode::And, d, a, b); }
    ProgramBuilder &or_(RegId d, RegId a, RegId b) { return r3(Opcode::Or, d, a, b); }
    ProgramBuilder &xor_(RegId d, RegId a, RegId b) { return r3(Opcode::Xor, d, a, b); }
    ProgramBuilder &shl(RegId d, RegId a, RegId b) { return r3(Opcode::Shl, d, a, b); }
    ProgramBuilder &shr(RegId d, RegId a, RegId b) { return r3(Opcode::Shr, d, a, b); }
    ProgramBuilder &mul(RegId d, RegId a, RegId b) { return r3(Opcode::Mul, d, a, b); }
    ProgramBuilder &fadd(RegId d, RegId a, RegId b) { return r3(Opcode::Fadd, d, a, b); }
    ProgramBuilder &fmul(RegId d, RegId a, RegId b) { return r3(Opcode::Fmul, d, a, b); }

    ProgramBuilder &
    addi(RegId d, RegId a, int64_t imm)
    {
        Instruction i;
        i.op = Opcode::Addi;
        i.dst = d;
        i.src1 = a;
        i.imm = imm;
        return emit(i);
    }

    ProgramBuilder &
    andi(RegId d, RegId a, int64_t imm)
    {
        Instruction i;
        i.op = Opcode::Andi;
        i.dst = d;
        i.src1 = a;
        i.imm = imm;
        return emit(i);
    }

    /** Load a constant via addi from r0. */
    ProgramBuilder &li(RegId d, int64_t imm) { return addi(d, 0, imm); }

    ProgramBuilder &
    ld(RegId d, RegId base, int64_t disp)
    {
        Instruction i;
        i.op = Opcode::Ld;
        i.dst = d;
        i.src1 = base;
        i.imm = disp;
        return emit(i);
    }

    ProgramBuilder &
    st(RegId value, RegId base, int64_t disp)
    {
        Instruction i;
        i.op = Opcode::St;
        i.src1 = base;
        i.src2 = value;
        i.imm = disp;
        return emit(i);
    }

    ProgramBuilder &beq(RegId a, RegId b, uint32_t t) { return br(Opcode::Beq, a, b, t); }
    ProgramBuilder &bne(RegId a, RegId b, uint32_t t) { return br(Opcode::Bne, a, b, t); }
    ProgramBuilder &blt(RegId a, RegId b, uint32_t t) { return br(Opcode::Blt, a, b, t); }

    ProgramBuilder &
    jmp(uint32_t t)
    {
        Instruction i;
        i.op = Opcode::Jmp;
        i.target = t;
        return emit(i);
    }

    ProgramBuilder &
    call(uint32_t t, RegId link = 31)
    {
        Instruction i;
        i.op = Opcode::Call;
        i.dst = link;
        i.target = t;
        return emit(i);
    }

    ProgramBuilder &
    ret(RegId link = 31)
    {
        Instruction i;
        i.op = Opcode::Ret;
        i.src1 = link;
        return emit(i);
    }

    ProgramBuilder &
    nop()
    {
        return emit(Instruction{});
    }

    ProgramBuilder &
    halt()
    {
        Instruction i;
        i.op = Opcode::Halt;
        return emit(i);
    }

    /** Patch the target of a previously emitted control instruction. */
    void
    patchTarget(uint32_t inst_index, uint32_t target)
    {
        program_.code.at(inst_index).target = target;
    }

    /** Initialize one data word. */
    void
    poke(Addr addr, RegVal value)
    {
        program_.initialMemory.write(addr, value);
    }

    MemoryImage &memory() { return program_.initialMemory; }

    /** Finish the program, moving the code and image out (no copy). */
    Program
    build(std::string name = "program") &&
    {
        Program p = std::move(program_);
        p.name = std::move(name);
        validate(p);
        return p;
    }

  private:
    ProgramBuilder &
    r3(Opcode op, RegId d, RegId a, RegId b)
    {
        Instruction i;
        i.op = op;
        i.dst = d;
        i.src1 = a;
        i.src2 = b;
        return emit(i);
    }

    ProgramBuilder &
    br(Opcode op, RegId a, RegId b, uint32_t t)
    {
        Instruction i;
        i.op = op;
        i.src1 = a;
        i.src2 = b;
        i.target = t;
        return emit(i);
    }

    ProgramBuilder &
    emit(Instruction i)
    {
        program_.code.push_back(i);
        return *this;
    }

    static void validate(const Program &p);

    Program program_;
};

} // namespace icfp

#endif // ICFP_ISA_PROGRAM_HH
