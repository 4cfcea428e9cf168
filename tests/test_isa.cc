/**
 * @file
 * µISA tests: builder validation, per-opcode interpreter semantics,
 * memory-image wrapping, trace generation, and disassembly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "isa/interpreter.hh"
#include "isa/program.hh"

#if defined(__linux__)
#include <unistd.h>
#endif

namespace icfp {
namespace {

TEST(MemoryImage, WrapAlignsAndMasks)
{
    MemoryImage mem(4096);
    EXPECT_EQ(mem.wrap(0), 0u);
    EXPECT_EQ(mem.wrap(7), 0u);
    EXPECT_EQ(mem.wrap(8), 8u);
    EXPECT_EQ(mem.wrap(4095), 4088u);
    EXPECT_EQ(mem.wrap(4096), 0u);      // wraps around
    EXPECT_EQ(mem.wrap(4096 + 17), 16u);
}

#if defined(__linux__) && !defined(__SANITIZE_ADDRESS__)
/** Resident set size in bytes, from /proc/self/statm; 0 if unreadable. */
size_t
residentBytes()
{
    FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long size_pages = 0, resident_pages = 0;
    const int got = std::fscanf(f, "%lu %lu", &size_pages, &resident_pages);
    std::fclose(f);
    return got == 2 ? resident_pages * static_cast<size_t>(
                                            sysconf(_SC_PAGESIZE))
                    : 0;
}
#endif

TEST(MemoryImage, LargeSparseImageCostsItsWordsNotItsSize)
{
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "ASan's allocator may touch fresh pages";
#elif !defined(__linux__)
    GTEST_SKIP() << "reads /proc/self/statm";
#else
    // A workload-shaped image: 40k non-zero words scattered over all of
    // 64 MiB, one every ~1.6 KB. A dense image would fault in every page.
    const size_t before = residentBytes();
    ASSERT_GT(before, 0u);
    constexpr size_t kBytes = size_t{64} << 20, kWords = 40000,
                     kStride = 1672;
    MemoryImage mem(kBytes);
    for (size_t i = 0; i < kWords; ++i)
        mem.write(i * kStride, i + 1);
    const size_t after = residentBytes();
    EXPECT_LT(after - std::min(after, before), size_t{8} << 20);
    EXPECT_EQ(mem.nonZeroWords().size(), kWords);
    EXPECT_EQ(mem.read((kWords - 1) * kStride), kWords);
    EXPECT_EQ(mem.read(kBytes - kWordBytes), 0u);
#endif
}

TEST(MemoryImage, AbsentWordsReadZeroAndStoreNothing)
{
    MemoryImage mem(4096);
    EXPECT_EQ(mem.read(0), 0u);
    EXPECT_EQ(mem.read(4088), 0u);
    mem.write(64, 0);
    EXPECT_TRUE(mem.nonZeroWords().empty());
    mem.write(64, 5);
    mem.write(64, 0); // a zero over a stored word reads back as zero
    EXPECT_EQ(mem.read(64), 0u);
    EXPECT_TRUE(mem.nonZeroWords().empty());
    EXPECT_TRUE(mem == MemoryImage(4096));
}

TEST(MemoryImage, WriteOrderDoesNotMatter)
{
    // Enough words to grow the table past its first size.
    MemoryImage a(size_t{1} << 20), b(size_t{1} << 20);
    for (Addr i = 0; i < 1000; ++i)
        a.write(i * 24, i + 7);
    for (Addr i = 1000; i-- > 0;)
        b.write(i * 24, i + 7);
    EXPECT_TRUE(a == b);
    const MemDelta words = a.nonZeroWords();
    ASSERT_EQ(words.size(), 1000u);
    EXPECT_TRUE(std::is_sorted(words.begin(), words.end()));
    EXPECT_EQ(words.back(), (std::pair<Addr, RegVal>{999 * 24, 1006}));
    b.write(24, 0);
    EXPECT_FALSE(a == b);
}

TEST(MemOverlay, DeltaKeepsStoredZeroesAndDropsRestoredWords)
{
    MemoryImage base(1024);
    base.write(8, 11);
    base.write(16, 22);
    MemOverlay view(&base);
    view.write(8, 0);   // a zero over a non-zero base word is a change
    view.write(16, 33);
    view.write(16, 22); // stored back to its base value: no change
    view.write(24, 0);  // a zero over an absent word: no change
    EXPECT_EQ(view.read(8), 0u);
    EXPECT_EQ(view.read(16), 22u);
    EXPECT_EQ(view.delta(), (MemDelta{{8, 0}}));
    EXPECT_EQ(base.read(8), 11u); // the base is never written
}

TEST(MemoryImage, ReadWriteRoundTrip)
{
    MemoryImage mem(1024);
    mem.write(64, 0xdeadbeef);
    EXPECT_EQ(mem.read(64), 0xdeadbeefu);
    EXPECT_EQ(mem.read(65), 0xdeadbeefu); // same word
    EXPECT_EQ(mem.read(72), 0u);
}

TEST(MemoryImage, EqualityComparesContents)
{
    MemoryImage a(256), b(256);
    EXPECT_TRUE(a == b);
    a.write(0, 1);
    EXPECT_FALSE(a == b);
    b.write(0, 1);
    EXPECT_TRUE(a == b);
}

TEST(Interpreter, AluOpcodes)
{
    EXPECT_EQ(Interpreter::evaluate(Opcode::Add, 2, 3, 0), 5u);
    EXPECT_EQ(Interpreter::evaluate(Opcode::Sub, 2, 3, 0),
              static_cast<RegVal>(-1));
    EXPECT_EQ(Interpreter::evaluate(Opcode::And, 6, 3, 0), 2u);
    EXPECT_EQ(Interpreter::evaluate(Opcode::Or, 6, 3, 0), 7u);
    EXPECT_EQ(Interpreter::evaluate(Opcode::Xor, 6, 3, 0), 5u);
    EXPECT_EQ(Interpreter::evaluate(Opcode::Shl, 1, 4, 0), 16u);
    EXPECT_EQ(Interpreter::evaluate(Opcode::Shr, 16, 4, 0), 1u);
    EXPECT_EQ(Interpreter::evaluate(Opcode::Shl, 1, 64 + 4, 0), 16u); // mod
    EXPECT_EQ(Interpreter::evaluate(Opcode::Mul, 7, 6, 0), 42u);
    EXPECT_EQ(Interpreter::evaluate(Opcode::Addi, 7, 0, -3), 4u);
    EXPECT_EQ(Interpreter::evaluate(Opcode::Andi, 0xff, 0, 0x0f), 0x0fu);
    EXPECT_EQ(Interpreter::evaluate(Opcode::Fadd, 2, 3, 0), 5u);
    EXPECT_EQ(Interpreter::evaluate(Opcode::Fmul, 2, 3, 0), 6u);
}

TEST(Interpreter, BranchConditions)
{
    EXPECT_TRUE(Interpreter::branchTaken(Opcode::Beq, 5, 5));
    EXPECT_FALSE(Interpreter::branchTaken(Opcode::Beq, 5, 6));
    EXPECT_TRUE(Interpreter::branchTaken(Opcode::Bne, 5, 6));
    EXPECT_FALSE(Interpreter::branchTaken(Opcode::Bne, 5, 5));
    EXPECT_TRUE(Interpreter::branchTaken(Opcode::Blt, 5, 6));
    EXPECT_FALSE(Interpreter::branchTaken(Opcode::Blt, 6, 5));
    EXPECT_FALSE(Interpreter::branchTaken(Opcode::Blt, 5, 5));
}

TEST(Interpreter, R0IsHardwiredZero)
{
    ProgramBuilder b(64);
    b.addi(0, 0, 99); // write to r0: discarded
    b.add(1, 0, 0);   // r1 = 0 + 0
    b.halt();
    const Trace t = Interpreter::run(std::move(b).build(), 10);
    EXPECT_EQ(t.finalRegs[0], 0u);
    EXPECT_EQ(t.finalRegs[1], 0u);
}

TEST(Interpreter, LoadStoreSemantics)
{
    ProgramBuilder b(1024);
    b.li(1, 128);
    b.li(2, 0x1234);
    b.st(2, 1, 8);   // MEM[136] = 0x1234
    b.ld(3, 1, 8);   // r3 = MEM[136]
    b.halt();
    const Trace t = Interpreter::run(std::move(b).build(), 10);
    EXPECT_EQ(t.finalRegs[3], 0x1234u);
    EXPECT_EQ(t.finalDelta, (MemDelta{{136, 0x1234}}));
    EXPECT_EQ(t.insts[2].addr, 136u);
    EXPECT_EQ(t.insts[2].storeValue(), 0x1234u);
    EXPECT_EQ(t.insts[3].result(), 0x1234u);
}

TEST(Interpreter, LoopExecutesExactly)
{
    ProgramBuilder b(64);
    b.li(1, 0);
    b.li(2, 10);
    const uint32_t loop = b.label();
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    const Trace t = Interpreter::run(std::move(b).build(), 1000);
    EXPECT_TRUE(t.halted);
    EXPECT_EQ(t.finalRegs[1], 10u);
    // 2 setup + 10*(addi+blt) + halt
    EXPECT_EQ(t.size(), 2u + 20u + 1u);
}

TEST(Interpreter, CallAndReturn)
{
    ProgramBuilder b(64);
    b.li(1, 5);
    const uint32_t call_site = b.label();
    b.call(4);       // -> leaf at index 4
    b.addi(2, 1, 1); // executes after return
    b.halt();
    // leaf:
    b.addi(1, 1, 10);
    b.ret();
    const Trace t = Interpreter::run(std::move(b).build(), 100);
    EXPECT_TRUE(t.halted);
    EXPECT_EQ(t.finalRegs[1], 15u);
    EXPECT_EQ(t.finalRegs[2], 16u);
    EXPECT_EQ(t.finalRegs[31], call_site + 1);
    // Call marks taken; Ret jumps back.
    EXPECT_TRUE(t.insts[1].taken());
    EXPECT_EQ(t.insts[3].nextPc, call_site + 1);
}

TEST(Interpreter, InstructionBudgetStopsRun)
{
    ProgramBuilder b(64);
    const uint32_t loop = b.label();
    b.addi(1, 1, 1);
    b.jmp(loop);
    b.halt();
    const Trace t = Interpreter::run(std::move(b).build(), 50);
    EXPECT_FALSE(t.halted);
    EXPECT_EQ(t.size(), 50u);
}

TEST(Interpreter, TraceRecordsBranchOutcomes)
{
    ProgramBuilder b(64);
    b.li(1, 1);
    b.beq(1, 0, 3); // not taken
    b.halt();
    b.nop();
    const Trace t = Interpreter::run(std::move(b).build(), 10);
    EXPECT_FALSE(t.insts[1].taken());
    EXPECT_EQ(t.insts[1].nextPc, 2u);
}

TEST(Instruction, Classification)
{
    Instruction ld;
    ld.op = Opcode::Ld;
    EXPECT_TRUE(ld.isLoad());
    EXPECT_TRUE(ld.isMem());
    EXPECT_FALSE(ld.isControl());

    Instruction br;
    br.op = Opcode::Beq;
    EXPECT_TRUE(br.isControl());
    EXPECT_TRUE(br.isCondBranch());

    Instruction jmp;
    jmp.op = Opcode::Jmp;
    EXPECT_TRUE(jmp.isControl());
    EXPECT_FALSE(jmp.isCondBranch());
}

TEST(Instruction, FuClassesAndLatencies)
{
    EXPECT_EQ(fuClass(Opcode::Add), FuClass::IntAlu);
    EXPECT_EQ(fuClass(Opcode::Mul), FuClass::IntMul);
    EXPECT_EQ(fuClass(Opcode::Fadd), FuClass::FpAdd);
    EXPECT_EQ(fuClass(Opcode::Fmul), FuClass::FpMul);
    EXPECT_EQ(fuClass(Opcode::Ld), FuClass::Mem);
    EXPECT_EQ(fuClass(Opcode::Beq), FuClass::Branch);
    // Table 1 latencies.
    EXPECT_EQ(fuLatency(Opcode::Add), 1u);
    EXPECT_EQ(fuLatency(Opcode::Mul), 4u);
    EXPECT_EQ(fuLatency(Opcode::Fadd), 2u);
    EXPECT_EQ(fuLatency(Opcode::Fmul), 4u);
}

TEST(Instruction, Disassembly)
{
    Instruction i;
    i.op = Opcode::Ld;
    i.dst = 3;
    i.src1 = 1;
    i.imm = 16;
    EXPECT_EQ(disassemble(i), "ld r3, [r1 + 16]");

    Instruction j;
    j.op = Opcode::Beq;
    j.src1 = 1;
    j.src2 = 2;
    j.target = 7;
    EXPECT_EQ(disassemble(j), "beq r1, r2, @7");
}

TEST(ProgramBuilder, TracksLabelsAndPatching)
{
    ProgramBuilder b(64);
    EXPECT_EQ(b.label(), 0u);
    b.nop();
    EXPECT_EQ(b.label(), 1u);
    const uint32_t site = b.label();
    b.jmp(0);
    b.halt();
    b.patchTarget(site, 2);
    const Program p = std::move(b).build();
    EXPECT_EQ(p.code[site].target, 2u);
}

TEST(ProgramBuilder, BuildMovesTheImageOut)
{
    ProgramBuilder b(4096);
    b.poke(8, 42);
    b.halt();
    const Program p = std::move(b).build();
    EXPECT_TRUE(b.memory().nonZeroWords().empty()); // moved, not copied
    EXPECT_EQ(p.initialMemory.nonZeroWords(), (MemDelta{{8, 42}}));
}

} // namespace
} // namespace icfp
