/**
 * @file
 * Independent oracle for a trace's final memory, shared by the suites
 * that check Trace::finalDelta.
 */

#ifndef ICFP_TESTS_TRACE_ORACLE_HH
#define ICFP_TESTS_TRACE_ORACLE_HH

#include "isa/interpreter.hh"

namespace icfp {

/**
 * The final-memory delta rebuilt without MemOverlay: apply the trace's
 * own St records, in order, to a full copy of the initial image, then
 * scan the whole image for words that differ.
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
    MemDelta delta;
    const MemoryImage::Words &before = initial.words();
    const MemoryImage::Words &after = final_image.words();
    for (size_t i = 0; i < before.size(); ++i) {
        if (before[i] != after[i])
            delta.emplace_back(static_cast<Addr>(i) * kWordBytes, after[i]);
    }
    return delta;
}

} // namespace icfp

#endif // ICFP_TESTS_TRACE_ORACLE_HH
