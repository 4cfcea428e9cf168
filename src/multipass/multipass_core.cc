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
    poison_.fill(false);
    aReady_ = regReady_;
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
    poison_.fill(false);
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
    aReady_ = bReady_;
    // Registers whose data is still far away stay poisoned for the new
    // pass; everything else carries the committed value.
    const Cycle horizon = cycle_ + mem_.params().l2HitLatency;
    for (int r = 1; r < kNumRegs; ++r) {
        if (bReady_[r] > horizon) {
            poison_[r] = true;
            aReady_[r] = cycle_;
        } else {
            poison_[r] = false;
        }
    }
    ++result_.rallyPasses;
}

bool
MultipassCore::advanceOne(const DynInst &di)
{
    if (window_.size() >= mp_.instBufferEntries)
        return false; // instruction buffer full: the A-pipe stalls
                      // (state-driven: the B-pipe must drain the window)

    const bool p1 = di.src1 != kNoReg && poison_[di.src1];
    const bool p2 = di.src2 != kNoReg && poison_[di.src2];
    const bool poisoned = p1 || p2;

    Cycle ready = 0;
    if (di.src1 != kNoReg && di.src1 != 0 && !p1)
        ready = std::max(ready, aReady_[di.src1]);
    if (di.src2 != kNoReg && di.src2 != 0 && !p2)
        ready = std::max(ready, aReady_[di.src2]);
    if (ready > cycle_) {
        aWake_ = ready;
        return false;
    }

    const FuClass fu = poisoned ? FuClass::None : fuClass(di.op);
    if (!slots_.available(fu)) {
        aWake_ = cycle_ + 1;
        return false;
    }

    WinEntry entry;
    entry.resolved = !poisoned;

    auto set_dst = [&](bool dst_poisoned, Cycle ready_at) {
        if (di.dst == kNoReg || di.dst == 0)
            return;
        poison_[di.dst] = dst_poisoned;
        aReady_[di.dst] = ready_at;
    };

    if (!poisoned) {
        switch (di.op) {
          case Opcode::Ld: {
            const RunaheadCacheResult fc = fcache_.read(di.addr);
            if (fc.hit) {
                set_dst(fc.poisoned,
                        cycle_ + mem_.params().dcacheHitLatency);
                entry.resolved = !fc.poisoned;
                break;
            }
            const MemAccessResult r = mem_.load(di.addr, cycle_);
            if (r.missedL2()) {
                // Prefetch generated; the B-pipe will pick up the data.
                set_dst(true, cycle_);
                entry.resolved = false;
            } else {
                // D$ hit — or a secondary D$ miss, which Multipass blocks
                // on (stall-at-use).
                set_dst(false, r.doneAt);
            }
            break;
          }
          case Opcode::St:
            fcache_.write(di.addr, di.storeValue(), false);
            break;
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Jmp:
          case Opcode::Call:
          case Opcode::Ret: {
            entry.pred = bpred_.predict(di);
            if (di.op == Opcode::Call)
                set_dst(false, cycle_ + 1);
            resolveBranch(di, entry.pred, cycle_);
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
        if (di.hasDst())
            set_dst(true, cycle_);
        if (di.isStore() && !p1)
            fcache_.write(di.addr, 0, true);
        if (di.isControl()) {
            entry.pred = bpred_.predict(di);
            if (entry.pred.predNextPc != di.nextPc) {
                // Wrong path until the B-pipe verifies this branch.
                wrongPath_ = true;
                ++result_.wrongPathInsts;
            }
        }
    }

    window_.push_back(entry);
    slots_.take(fu);
    ++frontier_;
    ++result_.advanceInsts;
    return true;
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
    resetRunState();
    result_ = RunResult{};
    trace_ = &trace;
    traceLen_ = trace.size();
    result_.instructions = traceLen_;

    SimpleStoreBuffer sb(params_.storeBufferEntries);
    MemOverlay memory(&trace.program->initialMemory);

    size_t idx = 0;
    inEpisode_ = false;
    poison_.fill(false);
#ifdef ICFP_DEBUG_MP
    uint64_t dbgAStarved = 0, dbgBWait = 0;
#endif

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
        if (di.dst != kNoReg && di.dst != 0) {
            // The A-pipe advances past the miss by poisoning its result;
            // the B-pipe waits for the real data.
            poison_[di.dst] = true;
            aReady_[di.dst] = cycle_;
            bReady_[di.dst] = r.doneAt;
        }
        return IssueStep{IssueStep::ModeSwitch};
    };
    auto store = [&](const DynInst &di) { return storeToBuffer(sb, di); };

    while (idx < traceLen_ || inEpisode_) {
        slots_.reset();
        sb.drain(cycle_, &memory);

        if (inEpisode_) {
            const bool resynced = resyncPending_;
            if (resyncPending_)
                resyncAdvance();
            Cycle wake = kCycleNever;
            bool did_work = resynced;
#ifdef ICFP_DEBUG_MP
            if (window_.empty()) ++dbgAStarved;
            else {
                const DynInst &dd = trace[bPos_];
                Cycle rdy = 0;
                if (!window_.front().resolved) {
                    if (dd.src1 != kNoReg && dd.src1 != 0) rdy = std::max(rdy, bReady_[dd.src1]);
                    if (dd.src2 != kNoReg && dd.src2 != 0) rdy = std::max(rdy, bReady_[dd.src2]);
                }
                if (rdy > cycle_) ++dbgBWait;
            }
            if (cycle_ % 100000 == 99999)
                std::fprintf(stderr, "MPDBG c=%lu starved=%lu bwait=%lu win=%zu bPos=%zu front=%zu\n",
                             cycle_, dbgAStarved, dbgBWait, window_.size(), bPos_, frontier_);
#endif
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
            // ...then the A-pipe advances with the leftover slots.
            if (wrongPath_) {
                // State-driven: the B-pipe resolves the bad branch.
            } else if (cycle_ < fetchReadyAt_) {
                wake = std::min(wake, fetchReadyAt_);
            } else {
                while (frontier_ < traceLen_ &&
                       slots_.used() < params_.issueWidth) {
                    aWake_ = kCycleNever;
                    if (!advanceOne(trace[frontier_])) {
                        wake = std::min(wake, aWake_);
                        break;
                    }
                    did_work = true;
                    if (wrongPath_ || cycle_ < fetchReadyAt_)
                        break;
                }
                if (slots_.used() >= params_.issueWidth)
                    wake = std::min(wake, cycle_ + 1);
            }
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

    result_.cycles = cycle_;
    finishStats(&result_);
    return result_;
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
