/**
 * @file
 * The deferred-slice core that SLTP and iCFP share (Figure 7 builds iCFP
 * up from SLTP). At a miss the core opens an epoch; miss-dependent
 * instructions divert into the slice buffer with their side inputs
 * captured, poisoning their destinations, and a rally re-executes them.
 * This base holds the state both schemes keep and the steps they take
 * the same way: epoch entry and exit, slice-entry capture, the
 * normal-mode tail loop, the rally's result publish, the run preamble
 * and the final check against the golden state. Each scheme passes its
 * own divert, Ld and St steps to the tail loop as callables.
 */

#ifndef ICFP_ICFP_SLICE_CORE_HH
#define ICFP_ICFP_SLICE_CORE_HH

#include <algorithm>
#include <string>
#include <utility>

#include "core/core_base.hh"
#include "core/register_file.hh"
#include "icfp/poison.hh"
#include "icfp/slice_buffer.hh"

namespace icfp {

/** Base of the cores that defer miss-dependent slices (SLTP, iCFP). */
class SliceCore : public CoreBase
{
  protected:
    SliceCore(std::string name, const CoreParams &core_params,
              const MemParams &mem_params, unsigned slice_entries)
        : CoreBase(std::move(name), core_params, mem_params),
          slice_(slice_entries)
    {
    }

    /** beginRun() plus the slice state; the tail starts outside an epoch. */
    void
    beginSliceRun(const Trace &trace)
    {
        beginRun(trace);
        memImage_.reset(&trace.program->initialMemory);
        rf0_.clearAll();
        slice_.clear();
        pending_.clear();
        tailIdx_ = 0;
        inEpoch_ = false;
        wrongPath_ = false;
        rallyBlockedUntil_ = 0;
    }

    /**
     * Functional verification against the golden interpreter: the final
     * registers and memory must equal the trace's. Then finishRun().
     */
    const RunResult &
    finishSliceRun()
    {
        ICFP_ASSERT(!rf0_.anyPoisoned());
        const RegFileState final_regs = rf0_.values();
        for (int r = 1; r < kNumRegs; ++r)
            ICFP_ASSERT(final_regs[r] == trace_->finalRegs[r]);
        ICFP_ASSERT(memImage_.delta() == trace_->finalDelta);
        return finishRun();
    }

    /** Open an epoch at the miss at trace index @p miss_idx. */
    void
    enterEpoch(size_t miss_idx)
    {
        ICFP_ASSERT(!inEpoch_);
        chkIdx_ = miss_idx;
        inEpoch_ = true;
        ++result_.advanceEntries;
    }

    /** Close the epoch; the rally has left nothing poisoned. */
    void
    endEpoch()
    {
        ICFP_ASSERT(inEpoch_);
        ICFP_ASSERT(slice_.noneActive());
        ICFP_ASSERT(!rf0_.anyPoisoned());
        inEpoch_ = false;
        wrongPath_ = false;
        pending_.clear();
    }

    /**
     * The normal-mode tail: issue from tailIdx_ until the issue width is
     * used, a step stalls, a poisoned branch mispredicts or a redirect
     * opens a front-end bubble. A tail on the wrong path stays idle until
     * the rally resolves the bad branch. Each instruction goes through
     * issueOrDefer() with the scheme's @p defer, @p load and @p store, and
     * counts in advanceInsts if it issued in an epoch. @p wake takes the
     * next cycle a retry can succeed.
     * @return true iff anything issued
     */
    template <typename Defer, typename Load, typename Store>
    bool
    tailIssue(Cycle *wake, Defer &&defer, Load &&load, Store &&store)
    {
        if (wrongPath_)
            return false; // state-driven: the rally resolves the branch
        if (cycle_ < fetchReadyAt_) {
            *wake = std::min(*wake, fetchReadyAt_);
            return false;
        }
        bool issued = false;
        while (tailIdx_ < traceLen_ && slots_.used() < params_.issueWidth) {
            const IssueStep step =
                issueOrDefer(trace_->insts[tailIdx_], defer, load, store);
            if (step.outcome == IssueStep::Stalled) {
                *wake = std::min(*wake, step.wake);
                break;
            }
            ++tailIdx_;
            if (inEpoch_)
                ++result_.advanceInsts;
            issued = true;
            if (wrongPath_ || cycle_ < fetchReadyAt_)
                break;
        }
        if (slots_.used() >= params_.issueWidth)
            *wake = std::min(*wake, cycle_ + 1); // width, not a hazard
        return issued;
    }

    /**
     * One tail attempt for @p di, trace instruction tailIdx_. In an
     * epoch, an instruction with a poisoned source goes to @p defer
     * (`IssueStep(const DynInst &, PoisonMask)`) in an FuClass::None slot
     * once its other sources are ready to be captured at the latch.
     * Anything else issues in order, writing its control or ALU value
     * into RF0.
     */
    template <typename Defer, typename Load, typename Store>
    IssueStep
    issueOrDefer(const DynInst &di, Defer &&defer, Load &&load, Store &&store)
    {
        PoisonMask poison = 0;
        if (inEpoch_) {
            for (const RegId src : {di.src1, di.src2}) {
                if (src != kNoReg)
                    poison |= rf0_.poison(src);
            }
        }
        if (poison == 0) {
            return issueInOrder(di, load, store, [&](const DynInst &inst) {
                rf0_.write(inst.dst, inst.result(), tailIdx_);
            });
        }

        Cycle side_ready = 0;
        for (const RegId src : {di.src1, di.src2}) {
            if (src != kNoReg && src != 0 && rf0_.poison(src) == 0)
                side_ready = std::max(side_ready, regReady_[src]);
        }
        if (side_ready > cycle_)
            return {IssueStep::Stalled, side_ready};
        if (!slots_.available(FuClass::None))
            return {IssueStep::Stalled, cycle_ + 1};
        const IssueStep step = defer(di, poison);
        if (step.outcome != IssueStep::Stalled)
            slots_.take(FuClass::None);
        return step;
    }

    /**
     * A slice entry for @p di as trace instruction @p seq. An unpoisoned
     * source's value is captured from RF0 (a side input); a poisoned one
     * links to its last writer, an older entry still deferred.
     */
    SliceEntry
    captureEntry(const DynInst &di, SeqNum seq) const
    {
        ICFP_ASSERT(inEpoch_);
        SliceEntry entry = SliceEntry::of(di, seq);
        entry.src1Captured = di.src1 == kNoReg || rf0_.poison(di.src1) == 0;
        if (entry.src1Captured && di.src1 != kNoReg)
            entry.src1Val = rf0_.read(di.src1);
        else if (!entry.src1Captured)
            entry.src1Producer = rf0_.lastWriter(di.src1);
        entry.src2Captured = di.src2 == kNoReg || rf0_.poison(di.src2) == 0;
        if (entry.src2Captured && di.src2 != kNoReg)
            entry.src2Val = rf0_.read(di.src2);
        else if (!entry.src2Captured)
            entry.src2Producer = rf0_.lastWriter(di.src2);
        return entry;
    }

    /**
     * Push @p entry, @p di's capture, onto the slice waiting on
     * @p poison. A poisoned branch is predicted now and verified in the
     * rally; a mispredict puts the tail on the wrong path, where it does
     * no useful work until the rally resolves the branch (trace-driven
     * wrong-path approximation). The destination is poisoned with @p di
     * as its last writer.
     */
    IssueStep
    divert(SliceEntry entry, const DynInst &di, PoisonMask poison)
    {
        if (di.isControl()) {
            entry.pred = bpred_.predict(di);
            if (entry.pred.predNextPc != di.nextPc)
                wrongPath_ = true;
        }
        if (di.hasDst())
            rf0_.writePoisoned(di.dst, poison, entry.seq);
        slice_.push(entry, poison);
        ++result_.slicedInsts;
        return {};
    }

    /** Defer tail load @p di (trace instruction @p seq) on @p mask. */
    void
    deferLoad(const DynInst &di, SeqNum seq, PoisonMask mask)
    {
        divert(captureEntry(di, seq), di, mask);
    }

    /** A tail load's value, forwarded or read, usable at @p ready_at. */
    void
    writeLoad(const DynInst &di, RegVal value, Cycle ready_at)
    {
        ICFP_ASSERT(value == di.result());
        rf0_.write(di.dst, value, tailIdx_);
        setDstReady(di, ready_at);
    }

    /**
     * The rally resolved the slice entry at @p pos, @p di, to @p value,
     * usable at @p ready_at. Publish it to younger slice consumers (the
     * scratch register file RF1 and the bypass network): deliver it
     * straight into every buffered entry that recorded this instruction
     * as a source producer. New consumers can never want it later: a
     * register stays poisoned only while its last writer is still
     * deferred, so anything diverted after this point captures from RF0
     * instead. Then merge into RF0, sequence-gated so the value lands
     * only if this instruction is still the register's last writer
     * (Figure 3).
     */
    void
    resolveEntry(SliceEntry &entry, size_t pos, const DynInst &di,
                 RegVal value, Cycle ready_at)
    {
        if (di.hasDst()) {
            slice_.deliverFrom(pos, value, ready_at);
            if (rf0_.writeGated(di.dst, value, entry.seq))
                regReady_[di.dst] = ready_at;
        }
        slice_.resolve(pos);
        ++result_.rallyInsts;
    }

    MemOverlay memImage_;
    RegisterFile rf0_; ///< main register file
    SliceBuffer slice_;
    PendingMissQueue pending_; ///< outstanding misses the epoch waits on

    size_t tailIdx_ = 0; ///< next trace instruction for the tail
    size_t chkIdx_ = 0;  ///< trace index of the epoch's checkpoint
    bool inEpoch_ = false;
    bool wrongPath_ = false;      ///< the tail is past a bad poisoned branch
    Cycle rallyBlockedUntil_ = 0; ///< blocking-rally load wait
};

} // namespace icfp

#endif // ICFP_ICFP_SLICE_CORE_HH
