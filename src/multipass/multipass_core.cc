#include "multipass/multipass_core.hh"

#include "common/logging.hh"
#include "sim/core_registry.hh"

namespace icfp {

MultipassCore::MultipassCore(const CoreParams &core_params,
                             const MemParams &mem_params,
                             const MultipassParams &mp_params)
    : CoreBase("multipass", core_params, mem_params),
      mp_(mp_params),
      fcache_(mp_params.forwardCacheEntries)
{
}

void
MultipassCore::enterEpisode(size_t after_idx)
{
    ICFP_ASSERT(!inEpisode_);
    inEpisode_ = true;
    bPos_ = after_idx;
    frontier_ = after_idx;
    window_.clear();
    wrongPath_ = false;
    aRegs_ = AdvanceRegs{{}, regReady_};
    bReady_ = regReady_;
    ++result_.advanceEntries;
}

void
MultipassCore::exitEpisode()
{
    ICFP_ASSERT(inEpisode_ && window_.empty());
    inEpisode_ = false;
    resyncPending_ = false;
    fcache_.clear();
    regReady_ = bReady_;
    ++result_.rallyPasses;
}

void
MultipassCore::resyncAdvance()
{
    ICFP_ASSERT(inEpisode_);
    frontier_ = bPos_;
    window_.clear();
    fcache_.clear();
    wrongPath_ = false;
    resyncPending_ = false;
    aRegs_.ready = bReady_;
    // Registers whose data is still far away stay poisoned for the new
    // pass; everything else carries the committed value.
    const Cycle horizon = cycle_ + mem_.params().l2HitLatency;
    for (int r = 1; r < kNumRegs; ++r)
        aRegs_.poison[r] = bReady_[r] > horizon;
    ++result_.rallyPasses;
}

bool
MultipassCore::commitOne(SimpleStoreBuffer *sb, MemOverlay *memory)
{
    if (window_.empty())
        return false; // state-driven: the A-pipe must refill the window
    const WinEntry entry = window_.front();
    const DynInst &di = trace_->insts[bPos_];

    // Recorded results break dependences: no operand wait. Everything
    // else uses a normal non-blocking scoreboard.
    if (!entry.resolved) {
        Cycle ready = 0;
        if (di.src1 != kNoReg && di.src1 != 0)
            ready = std::max(ready, bReady_[di.src1]);
        if (di.src2 != kNoReg && di.src2 != 0)
            ready = std::max(ready, bReady_[di.src2]);
        if (ready > cycle_) {
            bWake_ = ready;
            return false;
        }
    }

    // The B-pipe is flea-flicker's dedicated second (architectural)
    // pipeline: it has its own issue slots rather than sharing the
    // A-pipe's — that duplicated backend is exactly what Multipass pays
    // area for (Section 5.3).
    const FuClass fu = fuClass(di.op);
    if (!bSlots_.available(fu)) {
        bWake_ = cycle_ + 1;
        return false;
    }

    auto set_dst = [&](Cycle ready_at) {
        if (di.dst != kNoReg && di.dst != 0)
            bReady_[di.dst] = ready_at;
    };

    switch (di.op) {
      case Opcode::Ld: {
        RegVal fwd;
        if (sb->forward(di.addr, &fwd)) {
            ICFP_ASSERT(fwd == di.result());
            set_dst(cycle_ + mem_.params().dcacheHitLatency);
        } else if (entry.resolved) {
            // The A-pipe already executed it (forwarding cache or D$).
            set_dst(cycle_ + mem_.params().dcacheHitLatency);
        } else {
            const MemAccessResult r = mem_.load(di.addr, cycle_);
            ICFP_ASSERT(memory->read(di.addr) == di.result());
            set_dst(r.doneAt);
            // A long miss at the commit point starts another advance
            // pass with up-to-date register state.
            if (r.missedL2())
                resyncPending_ = true;
        }
        break;
      }
      case Opcode::St: {
        if (sb->full()) {
            const Cycle free_at = std::max(sb->headFreeAt(), cycle_ + 1);
            if (free_at > cycle_) {
                bWake_ = free_at; // the head drain frees a slot then
                return false;
            }
        }
        const MemAccessResult r = mem_.store(di.addr, cycle_);
        sb->push(di.addr, di.storeValue(), r.doneAt);
        break;
      }
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Jmp:
      case Opcode::Call:
      case Opcode::Ret: {
        if (di.op == Opcode::Call)
            set_dst(cycle_ + 1);
        if (!entry.resolved) {
            // A poisoned branch the A-pipe could only predict: verify.
            const bool correct = entry.pred.predNextPc == di.nextPc;
            bpred_.resolve(di, entry.pred);
            if (!correct) {
                // Everything the A-pipe did past this branch was
                // wrong-path (in this trace-driven model the A-pipe
                // halted there); redirect and resume advancing.
                ICFP_ASSERT(bPos_ + 1 == frontier_);
                wrongPath_ = false;
                fetchReadyAt_ = std::max(
                    fetchReadyAt_, cycle_ + params_.mispredictPenalty);
                ++result_.squashes;
            }
        }
        break;
      }
      case Opcode::Nop:
      case Opcode::Halt:
        break;
      default:
        set_dst(cycle_ + (entry.resolved ? 1 : fuLatency(di.op)));
        break;
    }

    window_.pop_front();
    ++bPos_;
    bSlots_.take(fu);
    ++result_.rallyInsts;
    return true;
}

RunResult
MultipassCore::run(const Trace &trace)
{
    beginRun(trace);
    SimpleStoreBuffer sb(params_.storeBufferEntries);
    MemOverlay memory(&trace.program->initialMemory);

    size_t idx = 0;
    inEpisode_ = false;

    // Normal mode's loads: a triggering miss un-blocks the pipeline by
    // buffering everything after the load for the B-pipe, with the A-pipe
    // running ahead.
    auto load = [&](const DynInst &di) {
        if (forwardFromBuffer(sb, di))
            return IssueStep{};
        const MemAccessResult r = mem_.load(di.addr, cycle_);
        const bool trig =
            (mp_.trigger == AdvanceTrigger::AnyDcache && r.missedDcache()) ||
            (mp_.trigger == AdvanceTrigger::L2Only && r.missedL2());
        ICFP_ASSERT(memory.read(di.addr) == di.result());
        setDstReady(di, r.doneAt);
        if (!trig)
            return IssueStep{};
        enterEpisode(idx + 1);
        triggerReturnAt_ = r.doneAt;
        // The A-pipe advances past the miss by poisoning its result; the
        // B-pipe waits for the real data (its timing copies regReady_).
        aRegs_.set(di.dst, 1, cycle_);
        return IssueStep{IssueStep::ModeSwitch};
    };
    auto store = [&](const DynInst &di) { return storeToBuffer(sb, di); };

    // A-pipe loads forward from the forwarding cache, else prefetch: an L2
    // miss poisons, and a secondary D$ miss blocks (waits at use). A-pipe
    // stores fill the forwarding cache; each advanced instruction joins
    // the window with its result recorded unless it was poisoned.
    auto advance_load = [&](const DynInst &di) {
        const RunaheadCacheResult fc = fcache_.read(di.addr);
        if (fc.hit)
            return AdvanceValue{fc.poisoned,
                                cycle_ + mem_.params().dcacheHitLatency};
        const MemAccessResult r = mem_.load(di.addr, cycle_);
        return AdvanceValue{r.missedL2(), r.doneAt};
    };
    auto advance_store = [&](const DynInst &di, PoisonMask data) {
        fcache_.write(di.addr, data != 0);
    };
    auto record = [&](const AdvanceStep &step) {
        window_.push_back(WinEntry{!step.poisoned, step.pred});
    };

    while (idx < traceLen_ || inEpisode_) {
        slots_.reset();
        sb.drain(cycle_, &memory);

        if (inEpisode_) {
            const bool resynced = resyncPending_;
            if (resyncPending_)
                resyncAdvance();
            Cycle wake = kCycleNever;
            bool did_work = resynced;
            // B-pipe (architectural, dedicated pipeline)...
            bSlots_.reset();
            while (bSlots_.used() < params_.issueWidth) {
                bWake_ = kCycleNever;
                if (!commitOne(&sb, &memory)) {
                    wake = std::min(wake, bWake_);
                    break;
                }
                did_work = true;
            }
            if (bSlots_.used() >= params_.issueWidth)
                wake = std::min(wake, cycle_ + 1);
            // ...then the A-pipe advances into the free window, on its
            // own slots. A full window (state-driven) waits for the B-pipe
            // to drain it, and so does a wrong-path A-pipe: the B-pipe
            // verifies the bad branch.
            const size_t window_end =
                std::min(traceLen_, bPos_ + mp_.instBufferEntries);
            if (advanceStream(aRegs_, &frontier_, window_end, &wrongPath_,
                              &wake, advance_load, advance_store, record))
                did_work = true;
            // The episode ends when the B-pipe has caught the frontier
            // after the triggering miss has returned AND no memory-class
            // data is still outstanding — ending mid-miss would forfeit
            // the lookahead, while lingering past the last miss would
            // just double the issue-bandwidth demand.
            if (window_.empty()) {
                if (cycle_ < triggerReturnAt_) {
                    wake = std::min(wake, triggerReturnAt_);
                } else {
                    Cycle max_ready = 0;
                    for (int r = 1; r < kNumRegs; ++r)
                        max_ready = std::max(max_ready, bReady_[r]);
                    const Cycle horizon =
                        cycle_ + mem_.params().l2HitLatency;
                    if (max_ready <= horizon) {
                        idx = bPos_;
                        exitEpisode();
                        did_work = true;
                    } else {
                        // With frozen state the idle test first passes
                        // when the horizon reaches the latest bReady.
                        wake = std::min(
                            wake, max_ready - mem_.params().l2HitLatency);
                    }
                }
            }
            advanceClock(did_work, wake);
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
            ++idx;
            issued = true;
            if (step.outcome == IssueStep::ModeSwitch)
                break; // the episode has begun past this load
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
const CoreRegistrar registerMultipass(
    CoreKind::Multipass, "multipass", {"mp"},
    [](const SimConfig &cfg) {
        return makeCoreModel<MultipassCore>(cfg.core, cfg.mem, cfg.multipass);
    });

} // namespace
} // namespace icfp
