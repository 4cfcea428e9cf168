#include "ooo/cfp_core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/core_registry.hh"

namespace icfp {

CfpCore::CfpCore(const CoreParams &core_params, const MemParams &mem_params,
                 const CfpParams &cfp_params)
    : OooCore(core_params, mem_params, cfp_params.ooo), cfp_(cfp_params)
{
    name_ = "cfp";
    ICFP_ASSERT(cfp_.rallyWidth >= 1);
    ICFP_ASSERT(cfp_.rallyScanWidth >= cfp_.rallyWidth);
}

bool
CfpCore::sourceDeferred(size_t prod, Cycle now) const
{
    if (prod == kNoProducer)
        return false;
    if (sliced_[prod] && doneAt_[prod] == kCycleNever)
        return true; // waiting in the slice buffer
    return missDeferred_[prod] && doneAt_[prod] > now;
}

bool
CfpCore::anySourceDeferred(const Entry &entry, Cycle now) const
{
    return sourceDeferred(entry.prod1, now) ||
           sourceDeferred(entry.prod2, now);
}

void
CfpCore::sliceOut(Entry *entry, bool from_iq)
{
    if (from_iq && entry->inIq) {
        entry->inIq = false;
        ICFP_ASSERT(iqUsed_ > 0);
        --iqUsed_;
    }
    if (entry->isLoad && from_iq) {
        ICFP_ASSERT(lqUsed_ > 0);
        --lqUsed_;
    }
    if (entry->isStore && from_iq) {
        ICFP_ASSERT(sqUsed_ > 0);
        --sqUsed_;
    }
    entry->sliced = true;
    sliced_[entry->idx] = true;
    ++slicedInsts_;
    unschedule(*entry);

    // Window consumers linked to this entry now wait on a slice entry:
    // park them until a rally executes it (wakeParked validates them).
    takeConsumers(entry->idx, [&](const Entry &consumer) {
        parked_.push_back(consumer.idx);
    });

    // Keep the slice buffer in program order so a deferred instruction's
    // producers are always closer to the head than it is (rally scans
    // from the head, so this also guarantees forward progress).
    Entry copy = *entry;
    copy.inIq = false;
    auto pos = std::lower_bound(
        slice_.begin(), slice_.end(), copy.idx,
        [](const Entry &e, size_t idx) { return e.idx < idx; });
    slice_.insert(pos, copy);
}

void
CfpCore::drainDependents(size_t from)
{
    for (size_t i = std::max(from + 1, commitIdx_); i < fetchIdx_; ++i) {
        Entry &entry = robAt(i);
        if (entry.issued || entry.sliced)
            continue;
        if (slice_.size() >= cfp_.sliceEntries) {
            // Slice buffer exhausted: the dependent simply stays in the
            // issue queue and blocks there (graceful degradation).
            return;
        }
        if (anySourceDeferred(entry, cycle_))
            sliceOut(&entry, /*from_iq=*/true);
    }
}

void
CfpCore::wakeParked()
{
    size_t kept = 0;
    for (const size_t idx : parked_) {
        if (!inRob(idx))
            continue;
        Entry &entry = robAt(idx);
        if (entry.issued || entry.sliced || entry.readyAt != kCycleNever)
            continue;
        const Cycle ready = operandsReadyAt(entry);
        if (ready != kCycleNever)
            schedule(&entry, ready);
        else
            parked_[kept++] = idx;
    }
    parked_.resize(kept);
}

void
CfpCore::rallyExecute(const Trace &trace, Entry *entry)
{
    // Copy everything needed up front: drainDependents (called on a
    // dependent miss) inserts into slice_, which invalidates @p entry.
    const size_t idx = entry->idx;
    const size_t fwd_from = entry->forwardFrom;
    const bool mispredicted = entry->mispredicted;
    const BranchPrediction pred = entry->pred;
    const DynInst &di = trace[idx];
    entry->issued = true;
    entry = nullptr;
    ++rallyInsts_;

    Cycle done = cycle_ + 1;
    bool dependent_miss = false;
    switch (di.op) {
      case Opcode::Ld:
        if (fwd_from != kNoProducer) {
            ICFP_ASSERT(trace[fwd_from].storeValue() == di.result());
            done = cycle_ + mem_.params().dcacheHitLatency;
        } else if (RegVal fwd; postCommitSb_.forward(di.addr, &fwd)) {
            ICFP_ASSERT(fwd == di.result());
            done = cycle_ + mem_.params().dcacheHitLatency;
        } else {
            const MemAccessResult r = mem_.load(di.addr, cycle_);
            done = r.doneAt;
            dependent_miss = r.missedL2();
        }
        break;
      case Opcode::St:
        storeExecuted_[idx] = true;
        done = cycle_ + 1;
        break;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Jmp:
      case Opcode::Call:
      case Opcode::Ret:
        resolveBranch(di, pred, cycle_);
        if (mispredicted) {
            // Squash-to-checkpoint: the discarded post-branch work is
            // charged as the full pipeline refill (see file comment).
            fetchStalled_ = false;
            fetchReadyAt_ = std::max(fetchReadyAt_,
                                     cycle_ + params_.squashPenalty);
            ++sliceSquashes_;
        }
        done = cycle_ + 1;
        break;
      case Opcode::Halt:
      case Opcode::Nop:
        break;
      default:
        done = cycle_ + fuLatency(di.op);
        break;
    }
    doneAt_[idx] = done;
    if (!parked_.empty())
        wakeParked();
    if (dependent_miss) {
        // Dependent miss: re-defer. The entry's own result time is the
        // new fill; its slice consumers wait on it via dataflow, giving
        // multi-pass behaviour for free.
        missDeferred_[idx] = true;
        drainDependents(idx);
    }
}

unsigned
CfpCore::drainStores(const Trace &trace, MemOverlay *memory)
{
    postCommitSb_.drain(cycle_, memory);
    unsigned drained = 0;
    while (!pendingStores_.empty() && drained < ooo_.commitWidth) {
        const PendingStore &head = pendingStores_.front();
        if (!storeExecuted_[head.idx] || doneAt_[head.idx] > cycle_)
            break;
        if (postCommitSb_.full())
            break;
        const DynInst &di = trace[head.idx];
        const MemAccessResult r = mem_.store(di.addr, cycle_);
        postCommitSb_.push(di.addr, di.storeValue(), r.doneAt);
        pendingStores_.pop_front();
        ++drained;
    }
    return drained;
}

Cycle
CfpCore::nextEventCycle() const
{
    Cycle wake = OooCore::nextEventCycle();
    if (!pendingStores_.empty()) {
        const size_t store = pendingStores_.front().idx;
        if (storeExecuted_[store])
            wake = std::min(wake, doneAt_[store]);
    }
    // Only the rally's scan window can execute without a new event.
    const size_t scan = std::min<size_t>(slice_.size(), cfp_.rallyScanWidth);
    for (size_t i = 0; i < scan; ++i) {
        if (!slice_[i].issued)
            wake = std::min(wake, operandsReadyAt(slice_[i]));
    }
    return wake;
}

RunResult
CfpCore::run(const Trace &trace)
{
    beginRun(trace);
    resetWindow(traceLen_);

    missDeferred_.assign(trace.size(), false);
    sliced_.assign(trace.size(), false);
    storeExecuted_.assign(trace.size(), false);
    slice_.clear();
    pendingStores_.clear();
    parked_.clear();
    slicedInsts_ = 0;
    rallyInsts_ = 0;
    sliceSquashes_ = 0;

    postCommitSb_ = SimpleStoreBuffer(params_.storeBufferEntries);
    MemOverlay memory(&trace.program->initialMemory);

    const size_t n = trace.size();

    while (commitIdx_ < n || !slice_.empty() || !pendingStores_.empty()) {
        ICFP_ASSERT(cycle_ < cycleLimit_);
        promoteDue();

        const unsigned drained = drainStores(trace, &memory);

        // ------------------------------------------------------ commit
        unsigned committed = 0;
        while (robSize() > 0 && committed < ooo_.commitWidth) {
            Entry &head = robAt(commitIdx_);
            // A deferred (L2-missing) load pseudo-commits just like a
            // sliced instruction: the checkpoint covers recovery and its
            // value merges when the miss returns.
            const bool pseudo =
                head.sliced ||
                (head.issued && head.isLoad && missDeferred_[head.idx]);
            if (!pseudo &&
                (!head.issued || doneAt_[head.idx] > cycle_)) {
                break;
            }
            if (!head.sliced) {
                if (head.isStore) {
                    ICFP_ASSERT(sqUsed_ > 0);
                    --sqUsed_;
                }
                if (head.isLoad) {
                    ICFP_ASSERT(lqUsed_ > 0);
                    --lqUsed_;
                }
            }
            ++commitIdx_;
            ++committed;
        }

        // ------------------------------------------------------- rally
        unsigned executed = 0;
        {
            unsigned scanned = 0;
            // Index-based: rallyExecute can drain new dependents into
            // slice_ (always at positions beyond the current one, since
            // the buffer is sorted and dependents are younger).
            for (size_t i = 0; i < slice_.size(); ++i) {
                if (executed >= cfp_.rallyWidth ||
                    scanned >= cfp_.rallyScanWidth) {
                    break;
                }
                ++scanned;
                if (slice_[i].issued)
                    continue;
                if (!sourcesReady(slice_[i], cycle_))
                    continue;
                rallyExecute(trace, &slice_[i]);
                ++executed;
            }
            while (!slice_.empty() && slice_.front().issued)
                slice_.pop_front();
        }

        // ------------------------------------------------------- issue
        // Sliced entries are never candidates: sliceOut clears their bit
        // (also when drainDependents slices one later in this walk).
        slots_.reset();
        for (size_t i = nextIssuable(commitIdx_); i < fetchIdx_;
             i = nextIssuable(i + 1)) {
            if (slots_.used() >= params_.issueWidth)
                break;
            Entry &entry = robAt(i);
            slots_.take(entry.fu);
            clearReady(entry);

            const DynInst &di = trace[i];
            if (di.isLoad() && entry.forwardFrom == kNoProducer) {
                RegVal fwd;
                if (!postCommitSb_.forward(di.addr, &fwd)) {
                    // Execute here so we can see the miss and drain the
                    // forward slice in the same cycle.
                    entry.issued = true;
                    if (entry.inIq) {
                        entry.inIq = false;
                        --iqUsed_;
                    }
                    const MemAccessResult r = mem_.load(di.addr, cycle_);
                    doneAt_[entry.idx] = r.doneAt;
                    wakeConsumers(entry.idx);
                    if (r.missedL2()) {
                        missDeferred_[entry.idx] = true;
                        drainDependents(entry.idx);
                    }
                    continue;
                }
            }
            executeEntry(trace, &entry);
            if (entry.isStore)
                storeExecuted_[entry.idx] = true;
        }

        // ---------------------------------------------------- dispatch
        unsigned dispatched = 0;
        while (fetchIdx_ < n && dispatched < ooo_.dispatchWidth &&
               !fetchStalled_ && cycle_ >= fetchReadyAt_ &&
               robSize() < ooo_.robEntries) {
            const DynInst &di = trace[fetchIdx_];
            const bool is_load = di.isLoad();
            const bool is_store = di.isStore();

            Entry &entry = stageEntry();
            entry.isLoad = is_load;
            entry.isStore = is_store;
            captureProducers(di, &entry);

            if (is_load) {
                // Oracle forwarding across the program-order drain queue
                // (covers both live and deferred stores).
                for (auto it = pendingStores_.rbegin();
                     it != pendingStores_.rend(); ++it) {
                    if (it->idx >= fetchIdx_)
                        continue;
                    if (trace[it->idx].addr == di.addr) {
                        entry.forwardFrom = it->idx;
                        if (entry.prod2 == kNoProducer)
                            entry.prod2 = it->idx;
                        else if (entry.prod1 == kNoProducer)
                            entry.prod1 = it->idx;
                        else
                            entry.prod2 = std::max(entry.prod2, it->idx);
                        break;
                    }
                }
            }
            // Decide resources *before* any side effect (predictor
            // state, last-writer table): a blocked dispatch retries next
            // cycle and must behave as if this attempt never happened.
            const bool defer = anySourceDeferred(entry, cycle_) &&
                               slice_.size() < cfp_.sliceEntries;
            if (!defer) {
                if (iqUsed_ >= ooo_.iqEntries)
                    break;
                if (is_load && lqUsed_ >= ooo_.lqEntries)
                    break;
                if (is_store && sqUsed_ >= ooo_.sqEntries)
                    break;
                entry.inIq = true;
                ++iqUsed_;
                if (is_load)
                    ++lqUsed_;
                if (is_store)
                    ++sqUsed_;
            }
            if (di.isControl()) {
                entry.pred = bpred_.predict(di);
                entry.mispredicted = entry.pred.predNextPc != di.nextPc;
                if (entry.mispredicted)
                    fetchStalled_ = true;
            }
            if (di.hasDst())
                lastWriter_[di.dst] = fetchIdx_;
            if (is_store)
                pendingStores_.push_back(PendingStore{fetchIdx_});

            pushRob();
            if (defer)
                sliceOut(&entry, /*from_iq=*/false);
            else if (enlist(&entry))
                parked_.push_back(entry.idx);
            ++dispatched;
            if (entry.mispredicted)
                break;
        }

        advanceClock(drained > 0 || committed > 0 || executed > 0 ||
                     slots_.used() > 0 || dispatched > 0);
    }

    postCommitSb_.flush(&memory);
    ICFP_ASSERT(memory.delta() == trace.finalDelta);

    result_.slicedInsts = slicedInsts_;
    result_.rallyInsts = rallyInsts_;
    result_.squashes = sliceSquashes_;
    return finishRun();
}

} // namespace icfp

namespace icfp {
namespace {

/** Self-registration with the core-model registry (sim/core_registry.hh). */
const CoreRegistrar registerCfp(
    CoreKind::Cfp, "cfp", {},
    [](const SimConfig &cfg) {
        return makeCoreModel<CfpCore>(cfg.core, cfg.mem, cfg.cfp);
    });

} // namespace
} // namespace icfp
