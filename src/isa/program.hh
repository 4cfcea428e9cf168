/**
 * @file
 * Static program representation, data-segment image, and a small builder
 * API used by the workload generators, tests, and examples.
 */

#ifndef ICFP_ISA_PROGRAM_HH
#define ICFP_ISA_PROGRAM_HH

#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace icfp {

/**
 * A memory difference: (word address, value) pairs sorted by strictly
 * ascending address, naming every word that differs from a base image.
 */
using MemDelta = std::vector<std::pair<Addr, RegVal>>;

/**
 * Flat open-addressing map from word address to word value: the one
 * representation of MemoryImage's words and MemOverlay's stores.
 *
 * Slots hold {address + 1, value}, so a zero key marks an empty slot.
 * The slot count is a power of two (at least 256 once anything is
 * stored), kept at least twice the entry count; a multiplicative hash
 * picks the first slot and collisions probe linearly. Entries are never
 * removed. Lookups are pure const reads, so one table may be read from
 * many threads at once.
 */
class WordTable
{
  public:
    WordTable() = default;
    WordTable(const WordTable &) = default;
    WordTable &operator=(const WordTable &) = default;

    /** A moved-from table is empty, its entry count included. */
    WordTable(WordTable &&other) noexcept
        : slots_(std::move(other.slots_)),
          used_(std::exchange(other.used_, 0)),
          shift_(other.shift_)
    {}

    WordTable &
    operator=(WordTable &&other) noexcept
    {
        slots_ = std::move(other.slots_);
        other.slots_.clear();
        used_ = std::exchange(other.used_, 0);
        shift_ = other.shift_;
        return *this;
    }

    /** The value stored for @p addr, or nullptr if there is none. */
    const RegVal *
    find(Addr addr) const
    {
        if (slots_.empty())
            return nullptr;
        const size_t mask = slots_.size() - 1;
        for (size_t i = slotOf(addr);; i = (i + 1) & mask) {
            const Slot &slot = slots_[i];
            if (slot.key == addr + 1)
                return &slot.value;
            if (slot.key == 0)
                return nullptr;
        }
    }

    /** The value stored for @p addr, inserting a zero if there is none. */
    RegVal &
    operator[](Addr addr)
    {
        if ((used_ + 1) * 2 > slots_.size())
            grow();
        const size_t mask = slots_.size() - 1;
        for (size_t i = slotOf(addr);; i = (i + 1) & mask) {
            Slot &slot = slots_[i];
            if (slot.key == addr + 1)
                return slot.value;
            if (slot.key == 0) {
                slot.key = addr + 1;
                ++used_;
                return slot.value;
            }
        }
    }

    /** Forget every entry, keeping the slots for reuse. */
    void clear();

    /** Call @p f(addr, value) for every entry, in slot order. */
    template <typename F>
    void
    forEach(F f) const
    {
        for (const Slot &slot : slots_) {
            if (slot.key != 0)
                f(slot.key - 1, slot.value);
        }
    }

    size_t size() const { return used_; }

  private:
    struct Slot
    {
        Addr key = 0; ///< word address + 1; 0 when empty
        RegVal value = 0;
    };

    size_t
    slotOf(Addr addr) const
    {
        return static_cast<size_t>((addr * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    /** Double the slots (256 from empty) and reinsert every entry. */
    void grow();

    std::vector<Slot> slots_;
    size_t used_ = 0;
    unsigned shift_ = 64; ///< 64 - log2(slot count)
};

/**
 * Byte-addressed data memory, accessed at 8-byte word granularity.
 *
 * The size is a power of two; effective addresses are wrapped into the
 * segment and aligned down to a word, so every program is memory-safe by
 * construction. Only the words ever written non-zero are stored, in a
 * WordTable, and every other word reads 0: a workload's 64 MB data
 * segment costs memory for its ~40k initialised words, not its size.
 */
class MemoryImage
{
  public:
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
        words_ = WordTable();
        mask_ = size_bytes - 1;
    }

    size_t sizeBytes() const { return mask_ ? mask_ + 1 : 0; }

    /** Wrap an arbitrary 64-bit EA into the segment, word-aligned. */
    Addr
    wrap(Addr addr) const
    {
        return (addr & mask_) & ~Addr{kWordBytes - 1};
    }

    RegVal
    read(Addr addr) const
    {
        const RegVal *value = words_.find(wrap(addr));
        return value ? *value : 0;
    }

    /** Store @p value; a zero over a word never written stores nothing. */
    void
    write(Addr addr, RegVal value)
    {
        const Addr word = wrap(addr);
        if (value != 0 || words_.find(word))
            words_[word] = value;
    }

    /** The words that read non-zero, as a delta against all zeroes. */
    MemDelta nonZeroWords() const;

    bool
    operator==(const MemoryImage &other) const
    {
        return mask_ == other.mask_ && nonZeroWords() == other.nonZeroWords();
    }

  private:
    WordTable words_;
    Addr mask_ = 0;
};

/**
 * Copy-on-write view over a base MemoryImage.
 *
 * The base stays read-only and shared; the overlay keeps every word
 * stored through it, zeroes included, in its own WordTable. The golden
 * interpreter runs on one to produce a trace's final memory as a delta
 * (Trace::finalDelta), and every timing core runs on one and ends with
 * delta() == trace.finalDelta. Two views over the same base are equal
 * exactly when their deltas are, so that check is as strong as
 * comparing whole images, at O(stored words).
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
        const RegVal *value = writes_.find(base_->wrap(addr));
        return value ? *value : base_->read(addr);
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
    WordTable writes_;
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
