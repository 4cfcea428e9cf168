#include "core/inorder_core.hh"

#include "common/logging.hh"
#include "sim/core_registry.hh"

namespace icfp {

RunResult
InOrderCore::run(const Trace &trace)
{
    beginRun(trace);
    SimpleStoreBuffer sb(params_.storeBufferEntries);
    MemOverlay memory(&trace.program->initialMemory);

    size_t idx = 0;

    auto load = [&](const DynInst &di) {
        if (!forwardFromBuffer(sb, di))
            setDstReady(di, mem_.load(di.addr, cycle_).doneAt);
        return IssueStep{};
    };
    auto store = [&](const DynInst &di) { return storeToBuffer(sb, di); };

    while (idx < traceLen_) {
        slots_.reset();
        sb.drain(cycle_, &memory);

        // Idle-cycle fast-forward: when the cycle issues nothing, the
        // first stalled instruction's unblock time is the next cycle
        // anything can change (the store buffer drains purely by
        // completion time, so draining lazily on arrival is identical to
        // draining every cycle).
        Cycle wake = kCycleNever;
        bool issued = false;

        // Issue in order until a hazard stops the cycle.
        while (idx < traceLen_ && slots_.used() < params_.issueWidth) {
            if (cycle_ < fetchReadyAt_) {
                wake = fetchReadyAt_; // front-end bubble (redirect refill)
                break;
            }
            const IssueStep step = issueInOrder(trace[idx], load, store);
            if (step.outcome == IssueStep::Stalled) {
                wake = step.wake;
                break;
            }
            ++idx;
            issued = true;
        }
        advanceClock(issued, wake);
    }

    sb.flush(&memory);
    ICFP_ASSERT(memory.delta() == trace.finalDelta);

    return finishRun();
}

} // namespace icfp

namespace icfp {
namespace {

/** Self-registration with the core-model registry (sim/core_registry.hh). */
const CoreRegistrar registerInOrder(
    CoreKind::InOrder, "in-order", {"inorder", "io"},
    [](const SimConfig &cfg) {
        return makeCoreModel<InOrderCore>(cfg.core, cfg.mem);
    });

} // namespace
} // namespace icfp
