#include "isa/interpreter.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace icfp {

RegVal
Interpreter::evaluate(Opcode op, RegVal a, RegVal b, int64_t imm)
{
    switch (op) {
      case Opcode::Add: return a + b;
      case Opcode::Sub: return a - b;
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Shl: return a << (b & 63);
      case Opcode::Shr: return a >> (b & 63);
      case Opcode::Addi: return a + static_cast<RegVal>(imm);
      case Opcode::Andi: return a & static_cast<RegVal>(imm);
      case Opcode::Mul: return a * b;
      case Opcode::Fadd: return a + b; // bit-pattern arithmetic; FP-ness
      case Opcode::Fmul: return a * b; // only affects FU latency
      default:
        ICFP_PANIC("evaluate() on non-ALU opcode %s", opcodeName(op));
    }
}

bool
Interpreter::branchTaken(Opcode op, RegVal a, RegVal b)
{
    switch (op) {
      case Opcode::Beq: return a == b;
      case Opcode::Bne: return a != b;
      case Opcode::Blt: return a < b;
      default:
        ICFP_PANIC("branchTaken() on non-branch opcode %s", opcodeName(op));
    }
}

Trace
Interpreter::run(Program program, uint64_t max_insts)
{
    return run(std::make_shared<const Program>(std::move(program)),
               max_insts);
}

Trace
Interpreter::run(std::shared_ptr<const Program> program_ptr,
                 uint64_t max_insts)
{
    const Program &program = *program_ptr;
    Trace trace;
    trace.program = std::move(program_ptr);
    // Pre-size: the emit loop below appends at most max_insts records,
    // so for any realistic budget the vector never reallocates mid-run
    // (on 10M+ instruction budgets repeated growth would copy the whole
    // trace several times over). Clamped so an absurd budget over a
    // short halting program cannot demand terabytes up front; past the
    // clamp, normal amortized growth takes over.
    constexpr uint64_t kMaxUpfrontReserve = uint64_t{1} << 25;
    trace.insts.reserve(std::min(max_insts, kMaxUpfrontReserve));

    // Stores go to an overlay over the program's image, so the image is
    // never copied and the final memory falls out as a delta.
    RegFileState regs{};
    MemOverlay mem(&program.initialMemory);

    uint32_t pc = 0;
    const auto code_size = static_cast<uint32_t>(program.code.size());

    for (uint64_t n = 0; n < max_insts; ++n) {
        ICFP_ASSERT(pc < code_size);
        const Instruction &si = program.code[pc];

        // Single-pass emit: construct the record in its final slot
        // (reserved above) instead of filling a local and copying it in.
        DynInst &di = trace.insts.emplace_back();
        di.pc = pc;
        di.op = si.op;
        di.dst = si.dst;
        di.src1 = si.src1;
        di.src2 = si.src2;

        const RegVal a = si.src1 == kNoReg ? 0 : regs[si.src1];
        const RegVal b = si.src2 == kNoReg ? 0 : regs[si.src2];

        uint32_t next_pc = pc + 1;

        switch (si.op) {
          case Opcode::Nop:
            break;
          case Opcode::Halt:
            di.nextPc = pc;
            trace.halted = true;
            trace.finalRegs = regs;
            trace.finalDelta = mem.delta();
            return trace;
          case Opcode::Ld:
            di.addr = mem.wrap(a + static_cast<RegVal>(si.imm));
            di.value = mem.read(di.addr);
            break;
          case Opcode::St:
            di.addr = mem.wrap(a + static_cast<RegVal>(si.imm));
            di.value = b;
            mem.write(di.addr, b);
            break;
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
            di.setTaken(branchTaken(si.op, a, b));
            if (di.taken())
                next_pc = si.target;
            break;
          case Opcode::Jmp:
            di.setTaken(true);
            next_pc = si.target;
            break;
          case Opcode::Call:
            di.setTaken(true);
            di.value = pc + 1;
            next_pc = si.target;
            break;
          case Opcode::Ret:
            di.setTaken(true);
            next_pc = static_cast<uint32_t>(a);
            ICFP_ASSERT(next_pc < code_size);
            break;
          default:
            di.value = evaluate(si.op, a, b, si.imm);
            break;
        }

        if (si.hasDst())
            regs[si.dst] = di.value;

        di.nextPc = next_pc;
        pc = next_pc;
    }

    trace.finalRegs = regs;
    trace.finalDelta = mem.delta();
    return trace;
}

} // namespace icfp
