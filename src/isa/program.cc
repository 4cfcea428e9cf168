#include "isa/program.hh"

#include <algorithm>
#include <bit>

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

void
WordTable::clear()
{
    if (used_ == 0)
        return;
    std::fill(slots_.begin(), slots_.end(), Slot{});
    used_ = 0;
}

void
WordTable::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 256 : old.size() * 2, Slot{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    const size_t mask = slots_.size() - 1;
    for (const Slot &slot : old) {
        if (slot.key == 0)
            continue;
        size_t i = slotOf(slot.key - 1);
        while (slots_[i].key != 0)
            i = (i + 1) & mask;
        slots_[i] = slot;
    }
}

MemDelta
MemoryImage::nonZeroWords() const
{
    MemDelta words;
    words.reserve(words_.size());
    words_.forEach([&](Addr addr, RegVal value) {
        if (value != 0)
            words.emplace_back(addr, value);
    });
    std::sort(words.begin(), words.end());
    return words;
}

MemDelta
MemOverlay::delta() const
{
    MemDelta delta;
    delta.reserve(writes_.size());
    writes_.forEach([&](Addr addr, RegVal value) {
        if (base_->read(addr) != value)
            delta.emplace_back(addr, value);
    });
    std::sort(delta.begin(), delta.end());
    return delta;
}

} // namespace icfp
