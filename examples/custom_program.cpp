/**
 * @file
 * Writing your own µISA program with ProgramBuilder and running it on
 * every core model.
 *
 * The program is a classic linked-list sum: nodes are spread across a
 * 16MB segment (every hop misses all cache levels), and each node's
 * payload feeds an accumulator — the "lone L2 miss with one dependent
 * instruction" pattern of Figure 1a, repeated.
 *
 *   $ ./build/examples/custom_program
 */

#include <cstdio>

#include "isa/interpreter.hh"
#include "isa/program.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"

using namespace icfp;

namespace {

/**
 * Build a linked list of @p nodes spread through the data segment and a
 * loop that walks it, summing payloads. Node layout: [next, payload].
 */
Program
buildListSum(size_t segment_bytes, unsigned nodes)
{
    ProgramBuilder b(segment_bytes);

    // Lay the nodes out with a large prime-ish stride so consecutive
    // nodes never share a cache line or prefetch stream.
    const Addr stride = 40960 + 64;
    Addr addr = 0;
    for (unsigned i = 0; i < nodes; ++i) {
        const Addr next = (i + 1 < nodes) ? addr + stride : 0;
        b.poke(addr, next);          // node.next
        b.poke(addr + 8, 3 * i + 1); // node.payload
        addr += stride;
    }

    b.li(1, 0);  // r1 = cursor (head at 0... restart target)
    b.li(2, 0);  // r2 = sum
    const uint32_t loop = b.label();
    b.ld(3, 1, 8);    // r3 = node.payload   (dependent use, Figure 1a "B")
    b.add(2, 2, 3);   // sum += payload
    b.ld(1, 1, 0);    // r1 = node.next      (the chase)
    b.bne(1, 0, loop);
    b.li(1, 0);       // wrap to the head and walk again
    b.jmp(loop);
    return std::move(b).build("list-sum");
}

} // namespace

int
main()
{
    const Program program = buildListSum(16 * 1024 * 1024, 256);
    const Trace trace = Interpreter::run(program, 60000);

    std::printf("list-sum: %zu static instructions, %zu dynamic\n",
                program.numInstructions(), trace.size());

    SimConfig cfg;
    Table table("Linked-list sum on every core model");
    table.setColumns({"core", "cycles", "IPC", "speedup %", "L2 MLP"});

    const RunResult base = simulate(CoreKind::InOrder, cfg, trace);
    for (const CoreKind kind :
         {CoreKind::InOrder, CoreKind::Runahead, CoreKind::Multipass,
          CoreKind::Sltp, CoreKind::ICfp, CoreKind::Ooo, CoreKind::Cfp}) {
        const RunResult r = simulate(kind, cfg, trace);
        table.addRow(coreKindName(kind),
                     {double(r.cycles), r.ipc(), percentSpeedup(base, r),
                      r.l2Mlp},
                     2);
    }
    table.addNote("");
    table.addNote("A single serial chain: no scheme can overlap the "
                  "misses (L2 MLP ~ 1), but advance schemes still commit "
                  "the miss-independent work under each miss.");
    table.print();
    return 0;
}
