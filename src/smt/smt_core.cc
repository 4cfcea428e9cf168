#include "smt/smt_core.hh"

#include <utility>

#include "common/logging.hh"

namespace icfp {

bool
SmtInOrderCore::issueOne(unsigned tid, ThreadContext &thread)
{
    if (tid != active_) {
        // Park the other thread's one-thread state; take this one's.
        std::swap(regReady_, parked_.regReady);
        std::swap(fetchReadyAt_, parked_.fetchReadyAt);
        std::swap(bpred_, parked_.bpred);
        active_ = tid;
    }
    if (cycle_ < fetchReadyAt_)
        return false;

    // The buffer holds architectural addresses; the shared hierarchy sees
    // them tagged with the thread's address space.
    const Addr tag = Addr{tid} << 40;
    auto load = [&](const DynInst &di) {
        if (!forwardFromBuffer(thread.sb, di)) {
            setDstReady(di, mem_.load(di.addr | tag, cycle_).doneAt);
            ICFP_ASSERT(thread.memory.read(di.addr) == di.result());
        }
        return IssueStep{};
    };
    auto store = [&](const DynInst &di) {
        // A full buffer retries next cycle; the front end does not stall.
        if (thread.sb.full())
            return IssueStep{IssueStep::Stalled, cycle_ + 1};
        const MemAccessResult r = mem_.store(di.addr | tag, cycle_);
        thread.sb.push(di.addr, di.storeValue(), r.doneAt);
        return IssueStep{};
    };
    if (issueInOrder((*thread.trace)[thread.idx], load, store).outcome ==
        IssueStep::Stalled)
        return false;
    if (++thread.idx == thread.trace->size())
        thread.finishedAt = cycle_ + 1;
    return true;
}

SmtRunResult
SmtInOrderCore::run(const Trace &t0, const Trace &t1)
{
    // Reset CoreBase's run state; t0's is the RunResult run(t0) reports.
    beginRun(t0);
    bpred_ = BranchUnit(params_.bpred);
    parked_ = ParkedState{{}, 0, BranchUnit(params_.bpred)};
    active_ = 0;
    std::array<ThreadContext, 2> threads{
        {{t0, params_.storeBufferEntries}, {t1, params_.storeBufferEntries}}};

    unsigned priority = 0; // round-robin arbitration seed
    while (!threads[0].done() || !threads[1].done()) {
        slots_.reset();
        for (ThreadContext &thread : threads)
            thread.sb.drain(cycle_, &thread.memory);

        // Issue across both threads, one instruction per turn, until
        // neither can (issueInOrder refuses once the width is used),
        // alternating which thread gets first pick each cycle (ICOUNT-less
        // round-robin).
        bool issued = false;
        for (bool progressed = true; progressed;) {
            progressed = false;
            for (unsigned n = 0; n < 2; ++n) {
                const unsigned tid = (priority + n) % 2;
                if (!threads[tid].done() && issueOne(tid, threads[tid]))
                    progressed = issued = true;
            }
        }
        priority ^= 1;
        // Step one cycle even when idle: the priority flip is state.
        advanceClock(issued, kCycleNever);
    }

    SmtRunResult result;
    result.cycles = cycle_;
    for (unsigned tid = 0; tid < 2; ++tid) {
        ThreadContext &thread = threads[tid];
        thread.sb.flush(&thread.memory);
        ICFP_ASSERT(thread.memory.delta() == thread.trace->finalDelta);
        result.instructions[tid] = thread.trace->size();
        result.finishedAt[tid] = thread.finishedAt;
    }
    return result;
}

RunResult
SmtInOrderCore::run(const Trace &trace)
{
    // An empty trace never issues, so CoreBase's state stays thread 0's.
    Trace idle;
    idle.program = std::make_shared<const Program>();
    run(trace, idle);
    return finishRun();
}

} // namespace icfp
