#include "core/inorder_core.hh"

#include "common/logging.hh"
#include "sim/core_registry.hh"

namespace icfp {

RunResult
InOrderCore::run(const Trace &trace)
{
    resetRunState();
    RunResult result;
    result.instructions = trace.size();

    SimpleStoreBuffer sb(params_.storeBufferEntries);
    MemOverlay memory(&trace.program->initialMemory);

    size_t idx = 0;
    const size_t n = trace.size();

    while (idx < n) {
        slots_.reset();
        sb.drain(cycle_, &memory);

        // Idle-cycle fast-forward: when the cycle issues nothing, the
        // first stalled instruction's unblock time is the next cycle
        // anything can change (the store buffer drains purely by
        // completion time, so draining lazily on arrival is identical to
        // draining every cycle). Jump the clock there instead of polling.
        Cycle wake = kCycleNever;
        bool issued = false;

        // Issue in order until a hazard stops the cycle.
        while (idx < n && slots_.used() < params_.issueWidth) {
            const DynInst &di = trace[idx];

            if (cycle_ < fetchReadyAt_) {
                wake = fetchReadyAt_; // front-end bubble (redirect refill)
                break;
            }

            // In-order issue: operands must be ready. This is where the
            // baseline "stalls at the first miss-dependent instruction".
            const Cycle src_ready = srcReadyCycle(di);
            if (src_ready > cycle_) {
                wake = src_ready;
                break;
            }

            const FuClass fu = fuClass(di.op);
            if (!slots_.available(fu)) {
                wake = cycle_ + 1;
                break;
            }

            switch (di.op) {
              case Opcode::Ld: {
                RegVal fwd;
                if (sb.forward(di.addr, &fwd)) {
                    // Store buffer forwarding: same latency as a D$ hit.
                    ICFP_ASSERT(fwd == di.result());
                    setDstReady(di, cycle_ + mem_.params().dcacheHitLatency);
                } else {
                    const MemAccessResult r = mem_.load(di.addr, cycle_);
                    setDstReady(di, r.doneAt);
                }
                break;
              }
              case Opcode::St: {
                if (sb.full()) {
                    // Stall until the head entry's line is written.
                    const Cycle free_at = std::max(sb.headFreeAt(), cycle_ + 1);
                    fetchReadyAt_ = std::max(fetchReadyAt_, free_at);
                    wake = fetchReadyAt_;
                    goto cycle_done;
                }
                const MemAccessResult r = mem_.store(di.addr, cycle_);
                sb.push(di.addr, di.storeValue(), r.doneAt);
                break;
              }
              case Opcode::Beq:
              case Opcode::Bne:
              case Opcode::Blt:
              case Opcode::Jmp:
              case Opcode::Call:
              case Opcode::Ret: {
                const BranchPrediction pred = bpred_.predict(di);
                if (di.op == Opcode::Call)
                    setDstReady(di, cycle_ + 1);
                resolveBranch(di, pred, cycle_);
                break;
              }
              case Opcode::Halt:
              case Opcode::Nop:
                break;
              default: // ALU
                setDstReady(di, cycle_ + fuLatency(di.op));
                break;
            }

            slots_.take(fu);
            ++idx;
            issued = true;
        }

      cycle_done:
        if (issued || wake == kCycleNever)
            ++cycle_;
        else
            cycle_ = std::max(cycle_ + 1, wake);
    }

    sb.flush(&memory);
    ICFP_ASSERT(memory.delta() == trace.finalDelta);

    result.cycles = cycle_;
    finishStats(&result);
    return result;
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
