#include "ooo/ooo_core.hh"

#include <algorithm>
#include <bit>
#include <functional>

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

    const size_t slots = std::bit_ceil(size_t{ooo_.robEntries});
    robSlots_.assign(slots, Entry{});
    robMask_ = slots - 1;
    commitIdx_ = 0;
    fetchIdx_ = 0;
    bitWords_ = (slots + 63) / 64;
    readyBits_.assign(bitWords_, 0);
    intAluBits_.assign(bitWords_, 0);
    sharedBits_.assign(bitWords_, 0);
    consumerBits_.assign(slots * bitWords_, 0);
    wheel_.assign(kWheelCycles * bitWords_, 0);
    wheelBusy_ = 0;
    promotedTo_ = 0;
    farReady_.clear();

    iqUsed_ = 0;
    lqUsed_ = 0;
    sqUsed_ = 0;
    peakRob_ = 0;
    fetchStalled_ = false;
    cycleLimit_ = 1000 * (trace_size + 1) + 10'000'000;
}

OooCore::Entry &
OooCore::stageEntry()
{
    ICFP_ASSERT(robSize() < robSlots_.size());
    Entry &entry = robSlots_[fetchIdx_ & robMask_];
    entry = Entry{};
    entry.idx = fetchIdx_;
    entry.fu = fuClass((*trace_)[fetchIdx_].op);
    return entry;
}

void
OooCore::pushRob()
{
    const size_t slot = fetchIdx_ & robMask_;
    const FuClass fu = robSlots_[slot].fu;
    clearSlot(intAluBits_.data(), slot);
    clearSlot(sharedBits_.data(), slot);
    if (fu == FuClass::IntAlu)
        setSlot(intAluBits_.data(), slot);
    else if (fu != FuClass::None)
        setSlot(sharedBits_.data(), slot);
    std::fill_n(consumerBits_.begin() + slot * bitWords_, bitWords_, 0);
    ++fetchIdx_;
    peakRob_ = std::max<unsigned>(peakRob_, robSize());
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

bool
OooCore::enlist(Entry *entry)
{
    const Cycle ready = operandsReadyAt(*entry);
    if (ready != kCycleNever) {
        schedule(entry, ready);
        return false;
    }
    bool unlinked = false;
    const size_t slot = entry->idx & robMask_;
    for (const size_t prod : {entry->prod1, entry->prod2}) {
        if (producerDoneAt(prod) != kCycleNever)
            continue;
        if (!inRob(prod) || robAt(prod).sliced) {
            unlinked = true;
            continue;
        }
        setSlot(&consumerBits_[(prod & robMask_) * bitWords_], slot);
    }
    return unlinked;
}

void
OooCore::schedule(Entry *entry, Cycle ready_at)
{
    entry->readyAt = ready_at;
    const size_t slot = entry->idx & robMask_;
    if (ready_at <= cycle_) {
        setSlot(readyBits_.data(), slot);
    } else if (ready_at - cycle_ < kWheelCycles) {
        const size_t bucket = ready_at % kWheelCycles;
        setSlot(&wheel_[bucket * bitWords_], slot);
        wheelBusy_ |= uint64_t{1} << bucket;
    } else {
        farReady_.emplace_back(ready_at, entry->idx);
        std::push_heap(farReady_.begin(), farReady_.end(), std::greater<>{});
    }
}

void
OooCore::unschedule(const Entry &entry)
{
    clearReady(entry);
    // A wheel bucket bit for this slot can only be this entry's; a heap
    // item is dropped when it comes due (promoteDue skips sliced entries).
    if (entry.readyAt != kCycleNever && entry.readyAt > cycle_ &&
        entry.readyAt - cycle_ < kWheelCycles) {
        clearSlot(&wheel_[(entry.readyAt % kWheelCycles) * bitWords_],
                  entry.idx & robMask_);
    }
}

void
OooCore::wakeConsumers(size_t producer)
{
    if (!inRob(producer))
        return;
    takeConsumers(producer, [&](Entry &consumer) {
        // The slot may hold a sliced-out consumer's unrelated successor.
        if (!inRob(consumer.idx) || consumer.issued || consumer.sliced ||
            consumer.readyAt != kCycleNever ||
            (consumer.prod1 != producer && consumer.prod2 != producer)) {
            return;
        }
        const Cycle ready = operandsReadyAt(consumer);
        if (ready != kCycleNever)
            schedule(&consumer, ready);
    });
}

void
OooCore::promoteDue()
{
    const Cycle from = promotedTo_;
    promotedTo_ = cycle_;
    // The buckets of cycles (from, cycle_]; a jump of a whole wheel span
    // or more covers every bucket.
    const Cycle span = std::min(cycle_ - from, kWheelCycles);
    for (Cycle c = cycle_ + 1 - span; c <= cycle_ && wheelBusy_ != 0; ++c) {
        const size_t bucket = c % kWheelCycles;
        if (!(wheelBusy_ >> bucket & 1))
            continue;
        wheelBusy_ &= ~(uint64_t{1} << bucket);
        uint64_t *bits = &wheel_[bucket * bitWords_];
        for (size_t w = 0; w < bitWords_; ++w)
            readyBits_[w] |= std::exchange(bits[w], 0);
    }

    while (!farReady_.empty() && farReady_.front().first <= cycle_) {
        const size_t idx = farReady_.front().second;
        std::pop_heap(farReady_.begin(), farReady_.end(), std::greater<>{});
        farReady_.pop_back();
        // Entries sliced out after they were queued are dropped here.
        if (inRob(idx) && !robAt(idx).sliced)
            setSlot(readyBits_.data(), idx & robMask_);
    }
}

size_t
OooCore::nextIssuable(size_t from) const
{
    // Entries whose FU class is out of slots are skipped wholesale; an
    // FuClass::None entry only needs the issue width the caller checks.
    const bool int_full = !slots_.available(FuClass::IntAlu);
    const bool shared_full = !slots_.available(FuClass::Mem);
    // Slots are contiguous in age order within a word (rings smaller
    // than a word use its low robSlots_.size() bits), so each probe
    // either finds the oldest candidate in the rest of its word or
    // moves on to the next word, wrapping at the end of the ring.
    const size_t span = std::min<size_t>(64, robSlots_.size());
    size_t pos = from;
    while (pos < fetchIdx_) {
        const size_t slot = pos & robMask_;
        const size_t bit = slot & 63;
        uint64_t word = readyBits_[slot >> 6];
        if (int_full)
            word &= ~intAluBits_[slot >> 6];
        if (shared_full)
            word &= ~sharedBits_[slot >> 6];
        word >>= bit;
        if (word != 0)
            return std::min(pos + std::countr_zero(word), fetchIdx_);
        pos += span - bit;
    }
    return fetchIdx_;
}

Cycle
OooCore::nextEventCycle() const
{
    for (const uint64_t word : readyBits_) {
        if (word != 0)
            return cycle_ + 1;
    }
    Cycle wake = farReady_.empty() ? kCycleNever : farReady_.front().first;
    if (wheelBusy_ != 0) {
        // Pending wheel entries are ready in (cycle_, cycle_ + span).
        const uint64_t from_next =
            std::rotr(wheelBusy_, int((cycle_ + 1) % kWheelCycles));
        wake = std::min(wake, cycle_ + 1 + std::countr_zero(from_next));
    }
    if (robSize() > 0) {
        const Entry &head = robSlots_[commitIdx_ & robMask_];
        if (head.issued)
            wake = std::min(wake, doneAt_[head.idx]);
    }
    if (fetchIdx_ < trace_->size() && fetchReadyAt_ > cycle_)
        wake = std::min(wake, fetchReadyAt_);
    if (postCommitSb_.full())
        wake = std::min(wake, postCommitSb_.headFreeAt());
    return wake;
}

void
OooCore::executeEntry(const Trace &trace, Entry *entry)
{
    const DynInst &di = trace[entry->idx];
    entry->issued = true;
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
    wakeConsumers(entry->idx);
}

void
OooCore::advanceClock(bool active)
{
    // An idle cycle changes no state but the clock, so jump straight to
    // the next cycle that can do work.
    const Cycle wake = active ? kCycleNever : nextEventCycle();
    CoreBase::advanceClock(active, wake);
}

RunResult
OooCore::run(const Trace &trace)
{
    beginRun(trace);
    resetWindow(traceLen_);
    postCommitSb_ = SimpleStoreBuffer(params_.storeBufferEntries);
    MemOverlay memory(&trace.program->initialMemory);

    const size_t n = trace.size();

    while (commitIdx_ < n) {
        ICFP_ASSERT(cycle_ < cycleLimit_);
        promoteDue();
        postCommitSb_.drain(cycle_, &memory);

        // ------------------------------------------------------ commit
        unsigned committed = 0;
        while (robSize() > 0 && committed < ooo_.commitWidth) {
            Entry &head = robAt(commitIdx_);
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
            ++commitIdx_;
            ++committed;
        }

        // ------------------------------------------------------- issue
        slots_.reset();
        for (size_t i = nextIssuable(commitIdx_); i < fetchIdx_;
             i = nextIssuable(i + 1)) {
            if (slots_.used() >= params_.issueWidth)
                break;
            Entry &entry = robAt(i);
            slots_.take(entry.fu);
            clearReady(entry);
            executeEntry(trace, &entry);
        }

        // ---------------------------------------------------- dispatch
        unsigned dispatched = 0;
        while (fetchIdx_ < n && dispatched < ooo_.dispatchWidth &&
               !fetchStalled_ && cycle_ >= fetchReadyAt_ &&
               robSize() < ooo_.robEntries && iqUsed_ < ooo_.iqEntries) {
            const DynInst &di = trace[fetchIdx_];
            const bool is_load = di.isLoad();
            const bool is_store = di.isStore();
            if (is_load && lqUsed_ >= ooo_.lqEntries)
                break;
            if (is_store && sqUsed_ >= ooo_.sqEntries)
                break;

            Entry &entry = stageEntry();
            entry.inIq = true;
            entry.isLoad = is_load;
            entry.isStore = is_store;
            captureProducers(di, &entry);

            if (is_load) {
                ++lqUsed_;
                // Oracle memory disambiguation: take the forwarding store
                // (if any) as an extra producer so the load issues only
                // once the data it must forward is ready.
                const size_t st = findForwardingStore(fetchIdx_, di.addr);
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
                storeQueue_.push_back(fetchIdx_);
            }
            if (di.isControl()) {
                entry.pred = bpred_.predict(di);
                entry.mispredicted = entry.pred.predNextPc != di.nextPc;
                if (entry.mispredicted)
                    fetchStalled_ = true;
            }
            if (di.hasDst())
                lastWriter_[di.dst] = fetchIdx_;

            ++iqUsed_;
            pushRob();
            const bool unlinked = enlist(&entry);
            ICFP_ASSERT(!unlinked); // every unfinished producer is in the ROB
            ++dispatched;
            if (entry.mispredicted)
                break; // nothing younger is on the correct path yet
        }

        advanceClock(committed > 0 || slots_.used() > 0 || dispatched > 0);
    }

    postCommitSb_.flush(&memory);
    ICFP_ASSERT(memory.delta() == trace.finalDelta);

    return finishRun();
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
