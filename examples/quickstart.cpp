/**
 * @file
 * Quickstart: write a tiny program with the builder API, execute it with
 * the golden interpreter, and compare the in-order baseline against iCFP
 * on the resulting trace.
 *
 *   $ ./build/examples/quickstart
 */

#include <cstdio>

#include "sim/simulator.hh"

using namespace icfp;

int
main()
{
    // A loop that chases two independent pointer rings through a 16MB
    // working set — every hop is an all-level cache miss whose value is
    // used immediately (the Figure 1 "A -> b" pattern), interleaved with
    // miss-independent work. In-order stalls at each use; iCFP commits
    // the independent work, defers the uses into the slice buffer, and
    // overlaps the two chains with non-blocking rallies.
    const size_t region = 16 * 1024 * 1024;
    ProgramBuilder b(region);

    // Two pointer rings in opposite halves of the region.
    const unsigned node = 4160; // 4096 would alias to 2 D$ sets
    const size_t nodes = region / 2 / node;
    for (size_t i = 0; i < nodes; ++i) {
        b.poke(Addr{i} * node, (Addr{i} + 257) % nodes * node);
        b.poke(region / 2 + Addr{i} * node,
               region / 2 + (Addr{i} + 401) % nodes * node);
    }

    b.li(1, 0);                              // r1: chain 1 cursor
    b.li(5, static_cast<int64_t>(region / 2)); // r5: chain 2 cursor
    b.li(2, 0);        // r2: accumulator
    b.li(3, 2500);     // r3: iteration bound
    b.li(4, 0);        // r4: counter
    const uint32_t loop = b.label();
    b.ld(1, 1, 0);     // chain 1 hop     (all-level miss)
    b.add(2, 2, 1);    // immediate dependent use
    b.ld(5, 5, 0);     // chain 2 hop     (independent of chain 1)
    b.add(2, 2, 5);    // immediate dependent use
    for (int i = 0; i < 6; ++i)
        b.addi(6, 4, 3); // miss-independent work
    b.addi(4, 4, 1);
    b.blt(4, 3, loop);
    b.halt();

    const Program program = std::move(b).build("quickstart");
    const Trace trace = Interpreter::run(program, 20000);
    std::printf("program: %zu static / %zu dynamic instructions\n",
                program.numInstructions(), trace.size());

    SimConfig cfg; // Table 1 machine
    const RunResult base = simulate(CoreKind::InOrder, cfg, trace);
    const RunResult icfp_r = simulate(CoreKind::ICfp, cfg, trace);

    std::printf("in-order: %8lu cycles  (IPC %.3f)\n",
                static_cast<unsigned long>(base.cycles), base.ipc());
    std::printf("iCFP:     %8lu cycles  (IPC %.3f)  -> %.1f%% speedup\n",
                static_cast<unsigned long>(icfp_r.cycles), icfp_r.ipc(),
                percentSpeedup(base, icfp_r));
    std::printf("iCFP advance epochs: %lu, rally passes: %lu, "
                "re-executed slice instructions: %lu\n",
                static_cast<unsigned long>(icfp_r.advanceEntries),
                static_cast<unsigned long>(icfp_r.rallyPasses),
                static_cast<unsigned long>(icfp_r.rallyInsts));
    return 0;
}
