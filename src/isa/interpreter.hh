/**
 * @file
 * Golden functional interpreter and the dynamic-instruction trace it emits.
 *
 * The interpreter is the reference semantics of the µISA. It executes a
 * Program and records every retired instruction — with resolved effective
 * addresses, loaded/stored values, results, and branch outcomes — into a
 * Trace. Timing models replay the Trace cycle-by-cycle while carrying their
 * own architectural value state; they assert agreement with the golden
 * values, which functionally verifies the iCFP merge machinery (chained
 * store buffer forwarding, sequence-number gating, slice re-execution).
 */

#ifndef ICFP_ISA_INTERPRETER_HH
#define ICFP_ISA_INTERPRETER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"
#include "isa/program.hh"

namespace icfp {

/**
 * One retired dynamic instruction, fully resolved.
 *
 * Replay streams hundreds of millions of these through the timing cores,
 * so the layout is packed to exactly 32 bytes (two per cache line): the
 * result and store value share one field (an instruction never has both —
 * stores write no register), and the taken bit lives in a flags byte.
 * Keep trace_io's kTraceIoFormatVersion in lockstep with any change here.
 */
struct DynInst
{
    Addr addr = 0;       ///< effective address (Ld/St only), wrapped
    /** Value produced: the dst write (Ld: the loaded value; Call: the
     *  link value) — or, for St (which has no dst), the value stored. */
    RegVal value = 0;
    uint32_t pc = 0;     ///< static instruction index
    uint32_t nextPc = 0; ///< index of the next retired instruction
    Opcode op = Opcode::Nop;
    RegId dst = kNoReg;
    RegId src1 = kNoReg;
    RegId src2 = kNoReg;
    uint8_t flags = 0;   ///< kFlagTaken

    static constexpr uint8_t kFlagTaken = 1u << 0;

    /** Value written to dst (Ld: the loaded value). */
    RegVal result() const { return value; }
    /** Value stored (St only). */
    RegVal storeValue() const { return value; }
    /** Control transferred away from pc+1. */
    bool taken() const { return (flags & kFlagTaken) != 0; }
    void
    setTaken(bool taken)
    {
        flags = taken ? static_cast<uint8_t>(flags | kFlagTaken)
                      : static_cast<uint8_t>(flags & ~kFlagTaken);
    }

    bool isLoad() const { return op == Opcode::Ld; }
    bool isStore() const { return op == Opcode::St; }
    bool isMem() const { return op == Opcode::Ld || op == Opcode::St; }
    bool isControl() const { return opTraits(op).isControl; }
    bool isCondBranch() const { return opTraits(op).isCondBranch; }
    /** Control whose target must come from the BTB/RAS (not the opcode). */
    bool isIndirect() const { return op == Opcode::Ret; }
    bool hasDst() const { return dst != kNoReg && dst != 0; }
};

static_assert(sizeof(DynInst) == 32,
              "DynInst is replayed by the hundred million; keep it at two "
              "per cache line (and bump kTraceIoFormatVersion on change)");

/** Architectural register file snapshot. */
using RegFileState = std::array<RegVal, kNumRegs>;

/** A full dynamic execution of a Program. */
struct Trace
{
    /** The executed program (owned, so a Trace never dangles — callers
     *  may pass temporary Programs to Interpreter::run). */
    std::shared_ptr<const Program> program;
    std::vector<DynInst> insts;
    RegFileState finalRegs{};
    /**
     * Final memory, as its difference from program->initialMemory
     * (MemOverlay::delta). Replays check their own overlay against it,
     * and trace_io stores it as is; the full final image is never built.
     */
    MemDelta finalDelta;
    bool halted = false; ///< reached Halt (vs. instruction budget)

    size_t size() const { return insts.size(); }
    const DynInst &operator[](size_t i) const { return insts[i]; }
};

/** Reference functional executor for the µISA. */
class Interpreter
{
  public:
    /**
     * Execute @p program from instruction 0 until Halt or until
     * @p max_insts instructions have retired.
     *
     * @param program the static program, owned by the trace (pass a
     *        temporary or std::move to avoid copying its data image)
     * @param max_insts dynamic instruction budget
     * @return the complete trace
     */
    static Trace run(Program program, uint64_t max_insts);

    /** Same, sharing ownership of an existing Program. */
    static Trace run(std::shared_ptr<const Program> program,
                     uint64_t max_insts);

    /**
     * Compute a single instruction's result value given its operands.
     * Shared with timing models so slice re-execution produces bit-exact
     * results.
     */
    static RegVal evaluate(Opcode op, RegVal a, RegVal b, int64_t imm);

    /** Branch outcome for a conditional branch. */
    static bool branchTaken(Opcode op, RegVal a, RegVal b);
};

} // namespace icfp

#endif // ICFP_ISA_INTERPRETER_HH
