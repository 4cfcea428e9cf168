#include "smt/smt_core.hh"

#include <algorithm>

#include "common/logging.hh"

namespace icfp {

SmtInOrderCore::SmtInOrderCore(const CoreParams &core_params,
                               const MemParams &mem_params)
    : params_(core_params), mem_(mem_params), slots_(params_)
{
}

bool
SmtInOrderCore::issueOne(unsigned tid, ThreadContext *thread)
{
    const DynInst &di = (*thread->trace)[thread->idx];

    if (cycle_ < thread->fetchReadyAt)
        return false;

    // In-order scoreboard: all sources must be ready.
    Cycle ready = 0;
    if (di.src1 != kNoReg && di.src1 != 0)
        ready = std::max(ready, thread->regReady[di.src1]);
    if (di.src2 != kNoReg && di.src2 != 0)
        ready = std::max(ready, thread->regReady[di.src2]);
    if (ready > cycle_)
        return false;

    const FuClass fu = fuClass(di.op);
    if (!slots_.available(fu))
        return false;

    auto set_dst = [&](Cycle at) {
        if (di.dst != kNoReg && di.dst != 0)
            thread->regReady[di.dst] = at;
    };

    switch (di.op) {
      case Opcode::Ld: {
        RegVal fwd;
        if (thread->sb->forward(taggedAddr(tid, di.addr), &fwd)) {
            ICFP_ASSERT(fwd == di.result());
            set_dst(cycle_ + mem_.params().dcacheHitLatency);
        } else {
            const MemAccessResult r =
                mem_.load(taggedAddr(tid, di.addr), cycle_);
            ICFP_ASSERT(thread->memory.read(di.addr) == di.result());
            set_dst(r.doneAt);
        }
        break;
      }
      case Opcode::St: {
        if (thread->sb->full())
            return false; // retry when the head entry drains
        const MemAccessResult r =
            mem_.store(taggedAddr(tid, di.addr), cycle_);
        thread->sb->push(taggedAddr(tid, di.addr), di.storeValue(),
                         r.doneAt);
        break;
      }
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Jmp:
      case Opcode::Call:
      case Opcode::Ret: {
        const BranchPrediction pred = thread->bpred->predict(di);
        if (di.op == Opcode::Call)
            set_dst(cycle_ + 1);
        if (!thread->bpred->resolve(di, pred)) {
            thread->fetchReadyAt = std::max(
                thread->fetchReadyAt,
                cycle_ + params_.mispredictPenalty);
        }
        break;
      }
      case Opcode::Halt:
      case Opcode::Nop:
        break;
      default:
        set_dst(cycle_ + fuLatency(di.op));
        break;
    }

    slots_.take(fu);
    ++thread->idx;
    if (thread->done())
        thread->finishedAt = cycle_ + 1;
    return true;
}

SmtRunResult
SmtInOrderCore::run(const Trace &t0, const Trace &t1)
{
    cycle_ = 0;
    for (unsigned tid = 0; tid < 2; ++tid) {
        ThreadContext &thread = threads_[tid];
        thread.trace = tid == 0 ? &t0 : &t1;
        thread.idx = 0;
        thread.regReady.fill(0);
        thread.fetchReadyAt = 0;
        thread.bpred = std::make_unique<BranchUnit>(params_.bpred);
        thread.sb = std::make_unique<SimpleStoreBuffer>(
            params_.storeBufferEntries);
        thread.memory.reset(&thread.trace->program->initialMemory);
        thread.finishedAt = 0;
    }

    unsigned priority = 0; // round-robin arbitration seed
    while (!threads_[0].done() || !threads_[1].done()) {
        slots_.reset();
        // Drain store buffers into each thread's own image. Entries hold
        // tagged addresses, but MemoryImage::wrap masks the tag off (the
        // tag bit is far above any segment size), so the write lands at
        // the architectural address.
        for (unsigned tid = 0; tid < 2; ++tid)
            threads_[tid].sb->drain(cycle_, &threads_[tid].memory);

        // Issue up to issueWidth across both threads, alternating which
        // thread gets first pick each cycle (ICOUNT-less round-robin).
        bool progressed = true;
        while (slots_.used() < params_.issueWidth && progressed) {
            progressed = false;
            for (unsigned n = 0; n < 2; ++n) {
                const unsigned tid = (priority + n) % 2;
                ThreadContext &thread = threads_[tid];
                if (thread.done())
                    continue;
                if (slots_.used() >= params_.issueWidth)
                    break;
                if (issueOne(tid, &thread))
                    progressed = true;
            }
        }
        priority ^= 1;
        ++cycle_;
    }

    SmtRunResult result;
    result.cycles = cycle_;
    for (unsigned tid = 0; tid < 2; ++tid) {
        ThreadContext &thread = threads_[tid];
        thread.sb->drain(kCycleNever - 1, &thread.memory);
        ICFP_ASSERT(thread.memory.delta() == thread.trace->finalDelta);
        result.instructions[tid] = thread.trace->size();
        result.finishedAt[tid] = thread.finishedAt;
    }
    return result;
}

} // namespace icfp
