/**
 * @file
 * Independent oracle for a trace's final memory, shared by the suites
 * that check Trace::finalDelta.
 */

#ifndef ICFP_TESTS_TRACE_ORACLE_HH
#define ICFP_TESTS_TRACE_ORACLE_HH

#include <algorithm>
#include <vector>

#include "isa/interpreter.hh"

namespace icfp {

/**
 * The final-memory delta rebuilt without MemOverlay: apply the trace's
 * own St records, in order, to a full copy of the initial image, then
 * compare every word either image holds non-zero.
 */
inline MemDelta
storeReplayDelta(const Trace &trace)
{
    const MemoryImage &initial = trace.program->initialMemory;
    MemoryImage final_image = initial;
    for (const DynInst &di : trace.insts) {
        if (di.isStore())
            final_image.write(di.addr, di.storeValue());
    }
    std::vector<Addr> addrs;
    const MemoryImage *images[] = {&initial, &final_image};
    for (const MemoryImage *image : images) {
        for (const auto &[addr, value] : image->nonZeroWords())
            addrs.push_back(addr);
    }
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
    MemDelta delta;
    for (Addr addr : addrs) {
        if (initial.read(addr) != final_image.read(addr))
            delta.emplace_back(addr, final_image.read(addr));
    }
    return delta;
}

} // namespace icfp

#endif // ICFP_TESTS_TRACE_ORACLE_HH
