#include "ooo/ooo_core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/core_registry.hh"

namespace icfp {

OooCore::OooCore(const CoreParams &core_params, const MemParams &mem_params,
                 const OooParams &ooo_params)
    : CoreBase("ooo", core_params, mem_params),
      ooo_(ooo_params),
      postCommitSb_(core_params.storeBufferEntries)
{
    ICFP_ASSERT(ooo_.robEntries >= 2 && ooo_.iqEntries >= 1);
}

void
OooCore::resetWindow(size_t trace_size)
{
    doneAt_.assign(trace_size, kCycleNever);
    lastWriter_.fill(kNoProducer);
    storeQueue_.clear();
    rob_.clear();
    iqUsed_ = 0;
    lqUsed_ = 0;
    sqUsed_ = 0;
    peakRob_ = 0;
    fetchStalled_ = false;
}

void
OooCore::captureProducers(const DynInst &di, Entry *entry) const
{
    if (di.src1 != kNoReg && di.src1 != 0)
        entry->prod1 = lastWriter_[di.src1];
    if (di.src2 != kNoReg && di.src2 != 0)
        entry->prod2 = lastWriter_[di.src2];
}

size_t
OooCore::findForwardingStore(size_t load_idx, Addr addr) const
{
    for (auto it = storeQueue_.rbegin(); it != storeQueue_.rend(); ++it) {
        if (*it >= load_idx)
            continue; // younger than the load
        if ((*trace_)[*it].addr == addr)
            return *it;
    }
    return kNoProducer;
}

void
OooCore::executeEntry(const Trace &trace, Entry *entry)
{
    const DynInst &di = trace[entry->idx];
    entry->issued = true;
    entry->issuedAt = cycle_;
    if (entry->inIq) {
        entry->inIq = false;
        ICFP_ASSERT(iqUsed_ > 0);
        --iqUsed_;
    }

    Cycle done = cycle_ + 1;
    switch (di.op) {
      case Opcode::Ld:
        if (entry->forwardFrom != kNoProducer) {
            // Store-queue forwarding: D$-hit latency once the data is
            // ready (issue already waited for the producer store).
            ICFP_ASSERT(trace[entry->forwardFrom].storeValue() == di.result());
            done = cycle_ + mem_.params().dcacheHitLatency;
        } else if (RegVal fwd; postCommitSb_.forward(di.addr, &fwd)) {
            // The producing store committed but its line has not been
            // written yet; the post-commit buffer forwards.
            ICFP_ASSERT(fwd == di.result());
            done = cycle_ + mem_.params().dcacheHitLatency;
        } else {
            done = mem_.load(di.addr, cycle_).doneAt;
        }
        break;
      case Opcode::St:
        // Address/value are ready; the cache access happens at commit
        // through the post-commit store buffer.
        done = cycle_ + 1;
        break;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Jmp:
      case Opcode::Call:
      case Opcode::Ret:
        resolveBranch(di, entry->pred, cycle_);
        if (entry->mispredicted)
            fetchStalled_ = false; // correct-path fetch restarts
        done = cycle_ + 1;
        break;
      case Opcode::Halt:
      case Opcode::Nop:
        break;
      default: // ALU / FP
        done = cycle_ + fuLatency(di.op);
        break;
    }
    doneAt_[entry->idx] = done;
}

RunResult
OooCore::run(const Trace &trace)
{
    resetRunState();
    resetWindow(trace.size());
    trace_ = &trace;

    RunResult result;
    result.instructions = trace.size();

    postCommitSb_ = SimpleStoreBuffer(params_.storeBufferEntries);
    MemOverlay memory(&trace.program->initialMemory);

    size_t fetchIdx = 0;   // next trace instruction to dispatch
    size_t commitIdx = 0;  // next trace instruction to commit
    const size_t n = trace.size();

    while (commitIdx < n) {
        postCommitSb_.drain(cycle_, &memory);

        // ------------------------------------------------------ commit
        unsigned committed = 0;
        while (!rob_.empty() && committed < ooo_.commitWidth) {
            Entry &head = rob_.front();
            if (!head.issued || doneAt_[head.idx] > cycle_)
                break;
            const DynInst &di = trace[head.idx];
            if (head.isStore) {
                if (postCommitSb_.full())
                    break; // retire stalls until the store buffer frees
                const MemAccessResult r = mem_.store(di.addr, cycle_);
                postCommitSb_.push(di.addr, di.storeValue(), r.doneAt);
                ICFP_ASSERT(!storeQueue_.empty() &&
                            storeQueue_.front() == head.idx);
                storeQueue_.pop_front();
                ICFP_ASSERT(sqUsed_ > 0);
                --sqUsed_;
            }
            if (head.isLoad) {
                ICFP_ASSERT(lqUsed_ > 0);
                --lqUsed_;
            }
            rob_.pop_front();
            ++commitIdx;
            ++committed;
        }

        // ------------------------------------------------------- issue
        slots_.reset();
        for (Entry &entry : rob_) {
            if (slots_.used() >= params_.issueWidth)
                break;
            if (entry.issued)
                continue;
            if (!sourcesReady(entry, cycle_))
                continue;
            const FuClass fu = fuClass(trace[entry.idx].op);
            if (!slots_.available(fu))
                continue;
            slots_.take(fu);
            executeEntry(trace, &entry);
        }

        // ---------------------------------------------------- dispatch
        unsigned dispatched = 0;
        while (fetchIdx < n && dispatched < ooo_.dispatchWidth &&
               !fetchStalled_ && cycle_ >= fetchReadyAt_ &&
               rob_.size() < ooo_.robEntries && iqUsed_ < ooo_.iqEntries) {
            const DynInst &di = trace[fetchIdx];
            const bool is_load = di.isLoad();
            const bool is_store = di.isStore();
            if (is_load && lqUsed_ >= ooo_.lqEntries)
                break;
            if (is_store && sqUsed_ >= ooo_.sqEntries)
                break;

            Entry entry;
            entry.idx = fetchIdx;
            entry.dispatchedAt = cycle_;
            entry.inIq = true;
            entry.isLoad = is_load;
            entry.isStore = is_store;
            captureProducers(di, &entry);

            if (is_load) {
                ++lqUsed_;
                // Oracle memory disambiguation: take the forwarding store
                // (if any) as an extra producer so the load issues only
                // once the data it must forward is ready.
                const size_t st = findForwardingStore(fetchIdx, di.addr);
                if (st != kNoProducer) {
                    entry.forwardFrom = st;
                    if (entry.prod2 == kNoProducer)
                        entry.prod2 = st;
                    else if (entry.prod1 == kNoProducer)
                        entry.prod1 = st;
                    else
                        entry.prod2 = std::max(entry.prod2, st);
                }
            }
            if (is_store) {
                ++sqUsed_;
                storeQueue_.push_back(fetchIdx);
            }
            if (di.isControl()) {
                entry.pred = bpred_.predict(di);
                entry.mispredicted = entry.pred.predNextPc != di.nextPc;
                if (entry.mispredicted)
                    fetchStalled_ = true;
            }
            if (di.hasDst())
                lastWriter_[di.dst] = fetchIdx;

            ++iqUsed_;
            rob_.push_back(entry);
            peakRob_ = std::max<unsigned>(peakRob_, rob_.size());
            ++fetchIdx;
            ++dispatched;
            if (entry.mispredicted)
                break; // nothing younger is on the correct path yet
        }

        ++cycle_;
    }

    postCommitSb_.flush(&memory);
    ICFP_ASSERT(memory.delta() == trace.finalDelta);

    result.cycles = cycle_;
    finishStats(&result);
    trace_ = nullptr;
    return result;
}

} // namespace icfp

namespace icfp {
namespace {

/** Self-registration with the core-model registry (sim/core_registry.hh). */
const CoreRegistrar registerOoo(
    CoreKind::Ooo, "ooo", {"out-of-order"},
    [](const SimConfig &cfg) {
        return makeCoreModel<OooCore>(cfg.core, cfg.mem, cfg.ooo);
    });

} // namespace
} // namespace icfp
