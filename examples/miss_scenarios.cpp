/**
 * @file
 * The Figure 1 miss scenarios as runnable micro-programs: lone L2 miss,
 * independent L2 misses, dependent L2 misses, independent chains of
 * dependent misses, and a data-cache miss under an L2 miss. For each
 * scenario the four non-blocking schemes are compared against in-order,
 * qualitatively reproducing the figure's timelines.
 *
 *   $ ./build/examples/miss_scenarios
 */

#include <cstdio>
#include <functional>

#include "sim/report.hh"
#include "sim/simulator.hh"

using namespace icfp;

namespace {

constexpr size_t kRegion = 32 * 1024 * 1024;
constexpr Addr kColdA = 0x400000;  // cold lines, far apart
constexpr Addr kColdB = 0x800000;
constexpr unsigned kIters = 400;

/** Common loop scaffold: body(), then counter++ / branch. */
Program
loopProgram(const char *name, size_t data_bytes,
            const std::function<void(ProgramBuilder &)> &init,
            const std::function<void(ProgramBuilder &, int64_t)> &body)
{
    ProgramBuilder b(data_bytes);
    init(b);
    b.li(20, kIters); // bound
    b.li(21, 0);      // counter
    const uint32_t loop = b.label();
    body(b, 0);
    b.addi(21, 21, 1);
    b.blt(21, 20, loop);
    b.halt();
    return std::move(b).build(name);
}

void
runScenario(const char *title, const Program &program, const char *note)
{
    const Trace trace = Interpreter::run(program, 100000);
    SimConfig cfg;

    Table table(title);
    table.setColumns({"core", "cycles", "speedup %"});
    const RunResult base = simulate(CoreKind::InOrder, cfg, trace);
    const CoreKind kinds[] = {CoreKind::InOrder, CoreKind::Runahead,
                              CoreKind::Multipass, CoreKind::Sltp,
                              CoreKind::ICfp};
    for (const CoreKind kind : kinds) {
        const RunResult r = simulate(kind, cfg, trace);
        table.addRow(coreKindName(kind),
                     {double(r.cycles), percentSpeedup(base, r)}, 1);
    }
    table.addNote(note);
    table.print();
    std::puts("");
}

} // namespace

int
main()
{
    // (a) Lone L2 miss with one dependent instruction, plus
    //     miss-independent work the slice-based schemes can commit.
    runScenario(
        "Figure 1a: lone L2 miss",
        loopProgram(
            "lone-miss", kRegion,
            [](ProgramBuilder &b) { b.li(1, kColdA); },
            [](ProgramBuilder &b, int64_t) {
                b.ld(2, 1, 0);      // A: L2 miss
                b.add(3, 2, 2);     // B: depends on A
                for (int i = 0; i < 8; ++i)
                    b.addi(4, 21, 7); // C-F: independent work
                b.addi(1, 1, 4160); // 4096 would alias to 2 D$ sets
            }),
        "SLTP and iCFP commit the independent work and re-execute only "
        "the 2-instruction slice; Runahead re-executes everything.");

    // (b) Independent L2 misses.
    runScenario(
        "Figure 1b: independent L2 misses",
        loopProgram(
            "indep-miss", kRegion,
            [](ProgramBuilder &b) {
                b.li(1, kColdA);
                b.li(5, kColdB);
            },
            [](ProgramBuilder &b, int64_t) {
                b.ld(2, 1, 0);   // A
                b.add(3, 2, 2);  // use of A
                b.ld(6, 5, 0);   // E: independent of A
                b.add(7, 6, 6);  // use of E
                b.addi(1, 1, 4160); // 4096 would alias to 2 D$ sets
                b.addi(5, 5, 4160);
            }),
        "All four schemes overlap the misses; in-order stalls at the "
        "first use and serializes them.");

    // (c/d) Chains of dependent misses (pointer rings).
    {
        ProgramBuilder b(kRegion);
        const unsigned node = 8384; // set-spreading node spacing
        const size_t nodes = (kRegion / 2) / node;
        for (size_t i = 0; i < nodes; ++i) {
            b.poke(Addr{i} * node, (Addr{i} + 97) % nodes * node);
            b.poke(kRegion / 2 + Addr{i} * node,
                   kRegion / 2 + (Addr{i} + 193) % nodes * node);
        }
        b.li(1, 0);            // chain 1 cursor
        b.li(5, kRegion / 2);  // chain 2 cursor
        b.li(20, kIters);
        b.li(21, 0);
        const uint32_t loop = b.label();
        b.ld(1, 1, 0);   // A -> B chain hop
        b.add(2, 1, 1);  // immediate use
        b.ld(5, 5, 0);   // E -> F chain hop (independent of A/B)
        b.add(6, 5, 5);  // immediate use
        b.addi(21, 21, 1);
        b.blt(21, 20, loop);
        b.halt();
        runScenario(
            "Figure 1c/1d: independent chains of dependent misses",
            std::move(b).build("chains"),
            "Blocking rallies (SLTP) serialize the two chains; iCFP's "
            "non-blocking rallies overlap B with F.");
    }

    // (e) Data cache miss and independent L2 miss under an L2 miss.
    runScenario(
        "Figure 1e: D$ miss + independent L2 miss under an L2 miss",
        loopProgram(
            "dmiss-under", kRegion,
            [](ProgramBuilder &b) {
                b.li(1, kColdA);
                b.li(5, kColdB);
                b.li(8, 0x20000); // L2-resident region
            },
            [](ProgramBuilder &b, int64_t) {
                b.ld(2, 1, 0);    // A: L2 miss
                b.ld(9, 8, 0);    // C: D$ miss (hits L2)
                b.add(10, 9, 9);  // D: depends on C
                b.ld(6, 5, 0);    // independent L2 miss
                b.add(7, 6, 6);
                b.addi(1, 1, 4160); // 4096 would alias to 2 D$ sets
                b.addi(5, 5, 4160);
                b.addi(8, 8, 128);
                b.andi(8, 8, 0x3ffff);
            }),
        "iCFP confidently poisons the secondary data cache miss because "
        "it can rally back to it the moment it returns; Runahead must "
        "choose between blocking and losing it entirely (Section 2).");

    return 0;
}
