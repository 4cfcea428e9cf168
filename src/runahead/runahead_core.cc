#include "runahead/runahead_core.hh"

#include "common/logging.hh"
#include "sim/core_registry.hh"

namespace icfp {

RunaheadCore::RunaheadCore(const CoreParams &core_params,
                           const MemParams &mem_params,
                           const RunaheadParams &ra_params)
    : CoreBase("runahead", core_params, mem_params),
      ra_(ra_params),
      rcache_(ra_params.runaheadCacheEntries)
{
}

void
RunaheadCore::enterRunahead(size_t miss_idx, Cycle return_at)
{
    ICFP_ASSERT(!inRunahead_);
    inRunahead_ = true;
    chkIdx_ = miss_idx;
    triggerReturnAt_ = return_at;
    wrongPath_ = false;
    poison_.fill(false);
    raReady_ = regReady_;
    ++result_.advanceEntries;
}

void
RunaheadCore::exitRunahead()
{
    ICFP_ASSERT(inRunahead_);
    inRunahead_ = false;
    wrongPath_ = false;
    rcache_.clear();
    bpred_.squashRas();
    // Everything speculative is discarded; the pipeline restarts from the
    // checkpoint (the triggering load, which now hits).
    fetchReadyAt_ = std::max(fetchReadyAt_, cycle_ + params_.squashPenalty);
    regReady_.fill(cycle_);
    ++result_.squashes;
}

bool
RunaheadCore::advanceOne(const DynInst &di)
{
    // raIdx lives in result_.advanceInsts bookkeeping; the caller passes
    // the instruction and advances the index on success.
    const bool p1 = di.src1 != kNoReg && poison_[di.src1];
    const bool p2 = di.src2 != kNoReg && poison_[di.src2];
    const bool poisoned = p1 || p2;

    Cycle ready = 0;
    if (di.src1 != kNoReg && di.src1 != 0 && !p1)
        ready = std::max(ready, raReady_[di.src1]);
    if (di.src2 != kNoReg && di.src2 != 0 && !p2)
        ready = std::max(ready, raReady_[di.src2]);
    if (ready > cycle_) {
        raWake_ = ready;
        return false;
    }

    const FuClass fu = poisoned ? FuClass::None : fuClass(di.op);
    if (!slots_.available(fu)) {
        raWake_ = cycle_ + 1;
        return false;
    }

    auto set_dst = [&](bool dst_poisoned, Cycle ready_at) {
        if (di.dst == kNoReg || di.dst == 0)
            return;
        poison_[di.dst] = dst_poisoned;
        raReady_[di.dst] = ready_at;
    };

    if (!poisoned) {
        switch (di.op) {
          case Opcode::Ld: {
            const RunaheadCacheResult rc = rcache_.read(di.addr);
            if (rc.hit) {
                set_dst(rc.poisoned,
                        cycle_ + mem_.params().dcacheHitLatency);
                break;
            }
            const MemAccessResult r = mem_.load(di.addr, cycle_);
            if (r.missedL2()) {
                // Generate the prefetch, poison, keep going.
                set_dst(true, cycle_);
            } else if (r.missedDcache() &&
                       ra_.secondaryPolicy == SecondaryMissPolicy::Poison) {
                set_dst(true, cycle_); // "D$-nb"
            } else {
                set_dst(false, r.doneAt); // hit, or "D$-b": wait at use
            }
            break;
          }
          case Opcode::St:
            rcache_.write(di.addr, di.storeValue(), false);
            break;
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Jmp:
          case Opcode::Call:
          case Opcode::Ret: {
            const BranchPrediction pred = bpred_.predict(di);
            if (di.op == Opcode::Call)
                set_dst(false, cycle_ + 1);
            resolveBranch(di, pred, cycle_);
            break;
          }
          case Opcode::Nop:
          case Opcode::Halt:
            break;
          default:
            set_dst(false, cycle_ + fuLatency(di.op));
            break;
        }
    } else {
        // Poison propagation.
        if (di.hasDst())
            set_dst(true, cycle_);
        if (di.isStore()) {
            // Address known? (src1 feeds the address.)
            if (!p1)
                rcache_.write(di.addr, 0, true);
            // Poisoned-address stores are simply skipped: forwarding is
            // best-effort (this is exactly the robustness gap vs. the
            // chained store buffer, Section 3.2).
        }
        if (di.isControl()) {
            const BranchPrediction pred = bpred_.predict(di);
            if (pred.predNextPc != di.nextPc) {
                // Advance is on the wrong path until the episode ends.
                wrongPath_ = true;
                ++result_.wrongPathInsts;
            }
        }
    }

    slots_.take(fu);
    ++result_.advanceInsts;
    return true;
}

RunResult
RunaheadCore::run(const Trace &trace)
{
    resetRunState();
    result_ = RunResult{};
    trace_ = &trace;
    traceLen_ = trace.size();
    result_.instructions = traceLen_;

    SimpleStoreBuffer sb(params_.storeBufferEntries);
    MemOverlay memory(&trace.program->initialMemory);

    size_t idx = 0;       // architectural (normal-mode) position
    size_t ra_idx = 0;    // advance position during an episode
    poison_.fill(false);
    inRunahead_ = false;

    // Normal mode's loads: a triggering miss enters an episode at the
    // load itself, which re-executes (and hits) when the episode ends.
    auto load = [&](const DynInst &di) {
        if (forwardFromBuffer(sb, di))
            return IssueStep{};
        const MemAccessResult r = mem_.load(di.addr, cycle_);
        const bool trig =
            (ra_.trigger == AdvanceTrigger::AnyDcache && r.missedDcache()) ||
            (ra_.trigger == AdvanceTrigger::L2Only && r.missedL2());
        if (!trig) {
            ICFP_ASSERT(memory.read(di.addr) == di.result());
            setDstReady(di, r.doneAt);
            return IssueStep{};
        }
        enterRunahead(idx, r.doneAt);
        ra_idx = idx + 1;
        if (di.dst != kNoReg && di.dst != 0) {
            poison_[di.dst] = true;
            raReady_[di.dst] = cycle_;
        }
        return IssueStep{IssueStep::ModeSwitch};
    };
    auto store = [&](const DynInst &di) { return storeToBuffer(sb, di); };

    while (idx < traceLen_) {
        slots_.reset();
        sb.drain(cycle_, &memory);

        if (inRunahead_ && cycle_ >= triggerReturnAt_) {
            exitRunahead();
            // Resume normal execution at the checkpoint.
        }

        if (inRunahead_) {
            // Idle-skip: the episode ends at triggerReturnAt_ no matter
            // what; in between, the advance stream can only act at its
            // own stall-release times.
            Cycle wake = triggerReturnAt_;
            bool advanced = false;
            if (wrongPath_) {
                // Nothing to do until the episode ends.
            } else if (cycle_ < fetchReadyAt_) {
                wake = std::min(wake, fetchReadyAt_);
            } else {
                while (ra_idx < traceLen_ &&
                       slots_.used() < params_.issueWidth) {
                    raWake_ = kCycleNever;
                    if (!advanceOne(trace[ra_idx])) {
                        wake = std::min(wake, raWake_);
                        break;
                    }
                    advanced = true;
                    ++ra_idx;
                    if (wrongPath_ || cycle_ < fetchReadyAt_)
                        break;
                }
                if (slots_.used() >= params_.issueWidth)
                    wake = std::min(wake, cycle_ + 1);
            }
            advanceClock(advanced, wake);
            continue;
        }

        // ---- normal in-order execution -----------------------------------
        Cycle wake = kCycleNever;
        bool issued = false;
        while (idx < traceLen_ && slots_.used() < params_.issueWidth) {
            if (cycle_ < fetchReadyAt_) {
                wake = fetchReadyAt_;
                break;
            }
            const IssueStep step = issueInOrder(trace[idx], load, store);
            if (step.outcome == IssueStep::Stalled) {
                wake = step.wake;
                break;
            }
            issued = true;
            if (step.outcome == IssueStep::ModeSwitch)
                break; // the pipeline is in advance mode now
            ++idx;
        }
        advanceClock(issued, wake);
    }

    sb.flush(&memory);
    ICFP_ASSERT(memory.delta() == trace.finalDelta);

    result_.cycles = cycle_;
    finishStats(&result_);
    return result_;
}

} // namespace icfp

namespace icfp {
namespace {

/** Self-registration with the core-model registry (sim/core_registry.hh). */
const CoreRegistrar registerRunahead(
    CoreKind::Runahead, "runahead", {"ra"},
    [](const SimConfig &cfg) {
        return makeCoreModel<RunaheadCore>(cfg.core, cfg.mem, cfg.runahead);
    });

} // namespace
} // namespace icfp
