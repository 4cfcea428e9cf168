/**
 * @file
 * Shared machinery for all timing core models: the per-cycle issue-slot
 * accounting (2-way: 2 int, 1 fp/mem/branch), the register timing
 * scoreboard, front-end redirect bookkeeping, the small associative
 * store buffer used by the baseline (Table 1: 32-entry), the baseline's
 * in-order issue step every in-order-pipeline scheme reuses, the
 * non-committing advance step of Runahead, Multipass and iCFP's simple
 * runahead, the per-run result and the idle-cycle clock rule.
 *
 * Every core model replays a golden Trace (isa/interpreter.hh): the trace
 * supplies resolved addresses, values and branch outcomes, while the model
 * decides *when* each instruction can issue and carries its own
 * architectural state through its scheme-specific mechanisms.
 */

#ifndef ICFP_CORE_CORE_BASE_HH
#define ICFP_CORE_CORE_BASE_HH

#include <algorithm>
#include <array>
#include <deque>
#include <string>

#include "bpred/branch_unit.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "core/params.hh"
#include "core/register_file.hh"
#include "isa/interpreter.hh"
#include "mem/hierarchy.hh"

namespace icfp {

/** Per-cycle issue-slot accounting. */
class IssueSlots
{
  public:
    explicit IssueSlots(const CoreParams &params) : params_(&params) {}

    void
    reset()
    {
        used_ = 0;
        intAlu_ = 0;
        memFpBr_ = 0;
    }

    /** Can an instruction of class @p fu issue this cycle? */
    bool
    available(FuClass fu) const
    {
        if (used_ >= params_->issueWidth)
            return false;
        switch (fu) {
          case FuClass::IntAlu:
            return intAlu_ < params_->intAluSlots;
          case FuClass::IntMul:
          case FuClass::FpAdd:
          case FuClass::FpMul:
          case FuClass::Mem:
          case FuClass::Branch:
            return memFpBr_ < params_->memFpBrSlots;
          case FuClass::None:
            return true;
        }
        return false;
    }

    /** Claim a slot. @pre available(fu) */
    void
    take(FuClass fu)
    {
        ++used_;
        if (fu == FuClass::IntAlu)
            ++intAlu_;
        else if (fu != FuClass::None)
            ++memFpBr_;
    }

    unsigned used() const { return used_; }

  private:
    const CoreParams *params_;
    unsigned used_ = 0;
    unsigned intAlu_ = 0;
    unsigned memFpBr_ = 0;
};

/**
 * Small fully-associative store buffer (the baseline's, Table 1:
 * 32-entry). Entries drain to the data cache in program order at one store
 * per cycle once their line is present.
 */
class SimpleStoreBuffer
{
  public:
    explicit SimpleStoreBuffer(unsigned entries) : capacity_(entries) {}

    bool full() const { return queue_.size() >= capacity_; }
    bool empty() const { return queue_.empty(); }
    size_t size() const { return queue_.size(); }

    /** Append a completed store; @p done_at is when its line is written. */
    void
    push(Addr addr, RegVal value, Cycle done_at)
    {
        queue_.push_back(Entry{addr, value, done_at});
    }

    /**
     * Youngest matching store for a load (associative search).
     * @return true and the value if found
     */
    bool
    forward(Addr addr, RegVal *value) const
    {
        for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
            if (it->addr == addr) {
                *value = it->value;
                return true;
            }
        }
        return false;
    }

    /** Retire entries whose stores have completed, writing @p mem. */
    void
    drain(Cycle now, MemOverlay *mem)
    {
        while (!queue_.empty() && queue_.front().doneAt <= now) {
            mem->write(queue_.front().addr, queue_.front().value);
            queue_.pop_front();
        }
    }

    /** When the oldest entry will free (for stall-on-full timing). */
    Cycle
    headFreeAt() const
    {
        return queue_.empty() ? 0 : queue_.front().doneAt;
    }

    /** Flush everything into @p mem (end of run). */
    void
    flush(MemOverlay *mem)
    {
        for (const Entry &entry : queue_)
            mem->write(entry.addr, entry.value);
        queue_.clear();
    }

  private:
    struct Entry
    {
        Addr addr;
        RegVal value;
        Cycle doneAt;
    };

    std::deque<Entry> queue_;
    unsigned capacity_;
};

/** How one issue attempt ended (issueInOrder, SliceCore::issueOrDefer). */
struct IssueStep
{
    enum Outcome : uint8_t {
        Issued,     ///< took its slot; the next instruction may follow
        ModeSwitch, ///< took its slot and left normal mode: stop issuing
        Stalled,    ///< did not issue
    };

    Outcome outcome = Issued;
    /** Stalled only: the next cycle a retry can succeed (kCycleNever =
     *  state-driven, some other event must unblock it). */
    Cycle wake = kCycleNever;
};

/**
 * A non-committing advance stream's scratch registers. A nonzero poison
 * marks a value the stream does not have (advance modes only ever test it
 * for zero); an unpoisoned value is usable from its ready cycle on.
 */
struct AdvanceRegs
{
    std::array<PoisonMask, kNumRegs> poison{};
    std::array<Cycle, kNumRegs> ready{};

    /** Write @p r; register 0 and kNoReg are never written. */
    void
    set(RegId r, PoisonMask bits, Cycle ready_at)
    {
        if (r != kNoReg && r != 0) {
            poison[r] = bits;
            ready[r] = ready_at;
        }
    }
};

/** An advance load's destination: poisoned, or ready at readyAt. */
struct AdvanceValue
{
    PoisonMask poison = 0;
    Cycle readyAt = 0;
};

/** How one advance attempt ended (CoreBase::advanceInOrder). */
struct AdvanceStep
{
    enum Outcome : uint8_t {
        Advanced,  ///< took its slot; the next instruction may follow
        WrongPath, ///< took its slot as a mispredicted poisoned branch:
                   ///< the stream is on the wrong path from here on
        Stalled,   ///< did not advance
    };

    Outcome outcome = Advanced;
    /** Stalled only: as IssueStep::wake. */
    Cycle wake = kCycleNever;
    /** A source or the loaded value was poisoned: no result recorded. */
    bool poisoned = false;
    BranchPrediction pred{}; ///< control only: the fetch-time prediction
};

/** Base class holding the state every timing core shares. */
class CoreBase
{
  public:
    CoreBase(std::string name, const CoreParams &core_params,
             const MemParams &mem_params);
    virtual ~CoreBase() = default;

    /** Replay @p trace to completion and return the statistics. */
    virtual RunResult run(const Trace &trace) = 0;

    const std::string &name() const { return name_; }

  protected:
    /** issueInOrder()'s write_value for cores that track timing only. */
    struct NoValueWrite
    {
        void operator()(const DynInst &) const {}
    };

    /** Livelock guard for every cycle loop (a simulator-bug detector). */
    static constexpr Cycle kMaxRunCycles = Cycle{1} << 36;

    /**
     * End the cycle. A cycle that did work steps the clock by one; an
     * idle cycle changes no state but the clock, so it jumps straight to
     * @p wake, the next cycle at which anything can change (kCycleNever:
     * no time-driven event is known, so step by one). Every cycle count
     * is exactly what per-cycle polling would produce.
     */
    void
    advanceClock(bool did_work, Cycle wake)
    {
        cycle_ = did_work || wake == kCycleNever ? cycle_ + 1
                                                 : std::max(cycle_ + 1, wake);
        ICFP_ASSERT(cycle_ < kMaxRunCycles);
    }

    /**
     * One non-speculative attempt to issue @p di down the 2-way in-order
     * pipeline: wait for the operands (this is where the baseline "stalls
     * at the first miss-dependent instruction") and for a free slot, then
     * execute control, Nop/Halt and ALU instructions and take the slot.
     * Loads and stores are the schemes' own: @p load and @p store are
     * called as `IssueStep(const DynInst &)`, and @p write_value
     * (`void(const DynInst &)`) lets a core that carries register values
     * record a control or ALU result. The caller owns the front-end
     * bubble check, its trace position and any mode switch.
     */
    template <typename Load, typename Store,
              typename WriteValue = NoValueWrite>
    IssueStep
    issueInOrder(const DynInst &di, Load &&load, Store &&store,
                 WriteValue &&write_value = NoValueWrite{})
    {
        const Cycle src_ready = srcReadyCycle(di);
        if (src_ready > cycle_)
            return {IssueStep::Stalled, src_ready};
        const FuClass fu = fuClass(di.op);
        if (!slots_.available(fu))
            return {IssueStep::Stalled, cycle_ + 1};

        IssueStep step;
        switch (di.op) {
          case Opcode::Ld:
            step = load(di);
            break;
          case Opcode::St:
            step = store(di);
            break;
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Jmp:
          case Opcode::Call:
          case Opcode::Ret: {
            const BranchPrediction pred = bpred_.predict(di);
            if (di.op == Opcode::Call) {
                write_value(di);
                setDstReady(di, cycle_ + 1);
            }
            resolveBranch(di, pred, cycle_);
            break;
          }
          case Opcode::Halt:
          case Opcode::Nop:
            break;
          default: // ALU
            write_value(di);
            setDstReady(di, cycle_ + fuLatency(di.op));
            break;
        }
        if (step.outcome != IssueStep::Stalled)
            slots_.take(fu);
        return step;
    }

    /**
     * One non-committing advance attempt for @p di on the scratch
     * registers @p regs: propagate poison, prefetch through @p load,
     * predict branches and resolve the unpoisoned ones. An instruction
     * with a poisoned source takes an FuClass::None slot and waits for
     * nothing else; a mispredicted poisoned branch ends in WrongPath.
     * @p load (`AdvanceValue(const DynInst &)`) runs an unpoisoned load;
     * @p store (`void(const DynInst &, PoisonMask data)`) sees every store
     * whose address is known. Counts Advanced steps in advanceInsts.
     */
    template <typename Load, typename Store>
    AdvanceStep
    advanceInOrder(const DynInst &di, AdvanceRegs &regs, Load &&load,
                   Store &&store)
    {
        PoisonMask poison = 0;
        Cycle ready = 0;
        for (const RegId src : {di.src1, di.src2}) {
            if (src == kNoReg || src == 0)
                continue;
            poison |= regs.poison[src];
            if (regs.poison[src] == 0)
                ready = std::max(ready, regs.ready[src]);
        }
        if (ready > cycle_)
            return {AdvanceStep::Stalled, ready};
        const FuClass fu = poison != 0 ? FuClass::None : fuClass(di.op);
        if (!slots_.available(fu))
            return {AdvanceStep::Stalled, cycle_ + 1};

        AdvanceStep step;
        step.poisoned = poison != 0;
        if (di.isStore()) {
            // A poisoned address (src1) leaves nothing to forward from.
            if (di.src1 == kNoReg || regs.poison[di.src1] == 0)
                store(di, poison);
        } else if (di.isControl()) {
            step.pred = bpred_.predict(di);
            if (poison != 0) {
                regs.set(di.dst, poison, cycle_);
                if (step.pred.predNextPc != di.nextPc)
                    step.outcome = AdvanceStep::WrongPath;
            } else {
                if (di.op == Opcode::Call)
                    regs.set(di.dst, 0, cycle_ + 1);
                resolveBranch(di, step.pred, cycle_);
            }
        } else if (poison != 0) {
            regs.set(di.dst, poison, cycle_);
        } else if (di.op == Opcode::Ld) {
            const AdvanceValue value = load(di);
            regs.set(di.dst, value.poison, value.readyAt);
            step.poisoned = value.poison != 0;
        } else if (di.op != Opcode::Nop && di.op != Opcode::Halt) {
            regs.set(di.dst, 0, cycle_ + fuLatency(di.op));
        }
        slots_.take(fu);
        if (step.outcome == AdvanceStep::Advanced)
            ++result_.advanceInsts;
        return step;
    }

    /**
     * Runahead's episode and Multipass's A-pipe: advance the stream at
     * trace position @p pos (bounded by @p end) on @p regs until the issue
     * width is used, a step stalls, the stream turns onto a wrong path or
     * a redirect opens a front-end bubble. A stream on the wrong path
     * stays idle until its owner clears @p wrong_path. @p record
     * (`void(const AdvanceStep &)`) sees each instruction that advanced,
     * and @p wake takes the next cycle a retry can succeed.
     * @return true iff anything advanced
     */
    template <typename Load, typename Store, typename Record>
    bool
    advanceStream(AdvanceRegs &regs, size_t *pos, size_t end,
                  bool *wrong_path, Cycle *wake, Load &&load, Store &&store,
                  Record &&record)
    {
        if (*wrong_path)
            return false; // state-driven: the owner resolves the branch
        if (cycle_ < fetchReadyAt_) {
            *wake = std::min(*wake, fetchReadyAt_);
            return false;
        }
        bool advanced = false;
        while (*pos < end && slots_.used() < params_.issueWidth) {
            const AdvanceStep step =
                advanceInOrder(trace_->insts[*pos], regs, load, store);
            if (step.outcome == AdvanceStep::Stalled) {
                *wake = std::min(*wake, step.wake);
                break;
            }
            record(step);
            ++*pos;
            advanced = true;
            if (step.outcome == AdvanceStep::WrongPath) {
                // The bad branch advanced too (iCFP's simple runahead,
                // which has its own loop, does not count it).
                ++result_.advanceInsts;
                *wrong_path = true;
                break;
            }
            if (cycle_ < fetchReadyAt_)
                break;
        }
        if (slots_.used() >= params_.issueWidth)
            *wake = std::min(*wake, cycle_ + 1);
        return advanced;
    }

    /**
     * A load's baseline store-buffer lookup: a match forwards its value at
     * D$-hit latency. @return true iff @p sb forwarded
     */
    bool
    forwardFromBuffer(const SimpleStoreBuffer &sb, const DynInst &di)
    {
        RegVal fwd;
        if (!sb.forward(di.addr, &fwd))
            return false;
        ICFP_ASSERT(fwd == di.result());
        setDstReady(di, cycle_ + mem_.params().dcacheHitLatency);
        return true;
    }

    /**
     * The baseline store: write the line and retire into @p sb, or, while
     * @p sb is full, stall the front end until its head entry frees.
     */
    IssueStep
    storeToBuffer(SimpleStoreBuffer &sb, const DynInst &di)
    {
        if (sb.full()) {
            const Cycle free_at = std::max(sb.headFreeAt(), cycle_ + 1);
            fetchReadyAt_ = std::max(fetchReadyAt_, free_at);
            return {IssueStep::Stalled, fetchReadyAt_};
        }
        const MemAccessResult r = mem_.store(di.addr, cycle_);
        sb.push(di.addr, di.storeValue(), r.doneAt);
        return {};
    }

    /** Earliest cycle at which all of @p di's sources are timing-ready. */
    Cycle
    srcReadyCycle(const DynInst &di) const
    {
        Cycle ready = 0;
        if (di.src1 != kNoReg && di.src1 != 0)
            ready = std::max(ready, regReady_[di.src1]);
        if (di.src2 != kNoReg && di.src2 != 0)
            ready = std::max(ready, regReady_[di.src2]);
        return ready;
    }

    void
    setDstReady(const DynInst &di, Cycle at)
    {
        if (di.dst != kNoReg && di.dst != 0)
            regReady_[di.dst] = at;
    }

    /** Start replaying @p trace: reset the per-run state and result_. */
    void beginRun(const Trace &trace);

    /** End the run: stamp the cycles and the shared stats into result_. */
    const RunResult &finishRun();

    /**
     * Resolve a control instruction against its fetch-time prediction and
     * apply the redirect penalty to the front end on a mispredict.
     * @return true iff predicted correctly
     */
    bool resolveBranch(const DynInst &di, const BranchPrediction &pred,
                       Cycle resolve_cycle);

    std::string name_;
    CoreParams params_;
    MemHierarchy mem_;
    BranchUnit bpred_;
    IssueSlots slots_;

    std::array<Cycle, kNumRegs> regReady_{};
    Cycle cycle_ = 0;
    Cycle fetchReadyAt_ = 0; ///< front end can deliver from this cycle on

    const Trace *trace_ = nullptr; ///< the trace being replayed
    size_t traceLen_ = 0;
    RunResult result_; ///< the run's statistics
};

} // namespace icfp

#endif // ICFP_CORE_CORE_BASE_HH
