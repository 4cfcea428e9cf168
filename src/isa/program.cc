#include "isa/program.hh"

#include <algorithm>

namespace icfp {

void
ProgramBuilder::validate(const Program &p)
{
    const auto n = static_cast<uint32_t>(p.code.size());
    for (size_t idx = 0; idx < p.code.size(); ++idx) {
        const Instruction &i = p.code[idx];
        if (i.isControl() && i.op != Opcode::Ret) {
            if (i.target >= n) {
                ICFP_FATAL("instruction %zu: control target %u out of "
                           "range (program has %u instructions)",
                           idx, i.target, n);
            }
        }
        if (i.dst != kNoReg && i.dst >= kNumRegs)
            ICFP_FATAL("instruction %zu: bad dst register", idx);
        if (i.src1 != kNoReg && i.src1 >= kNumRegs)
            ICFP_FATAL("instruction %zu: bad src1 register", idx);
        if (i.src2 != kNoReg && i.src2 >= kNumRegs)
            ICFP_FATAL("instruction %zu: bad src2 register", idx);
    }
}

MemDelta
MemOverlay::delta() const
{
    MemDelta delta;
    delta.reserve(writes_.size());
    for (const auto &[addr, value] : writes_) {
        if (base_->read(addr) != value)
            delta.emplace_back(addr, value);
    }
    std::sort(delta.begin(), delta.end());
    return delta;
}

} // namespace icfp
