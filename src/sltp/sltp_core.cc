#include "sltp/sltp_core.hh"

#include "common/logging.hh"
#include "sim/core_registry.hh"

namespace icfp {

SltpCore::SltpCore(const CoreParams &core_params, const MemParams &mem_params,
                   const SltpParams &sltp_params)
    : SliceCore("sltp", core_params, mem_params, sltp_params.sliceEntries),
      sltp_(sltp_params)
{
}

void
SltpCore::beginRally()
{
    ICFP_ASSERT(inEpoch_ && !inRally_);
    inRally_ = true;
    rallyBlockedUntil_ = 0;
    ++result_.rallyPasses;
    // Speculatively written cache lines are discarded before the SRL
    // drains (Section 4) — their re-fetch cost is SLTP's signature
    // overhead (e.g. galgel).
    mem_.dcache().flushPinned();
}

const SltpCore::SrlEntry *
SltpCore::srlSearch(Addr addr, SeqNum load_seq) const
{
    // Idealized (oracle) memory dependence prediction, per Table 1: the
    // youngest older SRL store to the same address is always identified.
    for (auto it = srl_.rbegin(); it != srl_.rend(); ++it) {
        if (it->seq >= load_seq)
            continue;
        if (it->addr == addr)
            return &*it;
    }
    return nullptr;
}

IssueStep
SltpCore::tailLoad(const DynInst &di)
{
    const SeqNum seq = tailIdx_;
    if (const SrlEntry *st = srlSearch(di.addr, seq)) {
        if (!st->poisoned) {
            writeLoad(di, st->value, cycle_ + mem_.params().dcacheHitLatency);
            return {};
        }
        // Poison propagates from the miss-dependent store (idealized
        // dependence prediction).
        if (slice_.full()) // SLTP stalls; no fallback mode
            return {IssueStep::Stalled, cycle_ + 1};
        deferLoad(di, seq, 1);
        return {};
    }

    const MemAccessResult r = mem_.load(di.addr, cycle_);
    const bool d_miss = r.missedDcache();
    const bool l2_miss = r.missedL2();

    bool poison_it = false;
    if (inEpoch_) {
        poison_it = l2_miss; // secondary D$ misses block (stall-at-use)
    } else {
        const bool trigger =
            (sltp_.trigger == AdvanceTrigger::AnyDcache && d_miss) ||
            (sltp_.trigger == AdvanceTrigger::L2Only && l2_miss);
        if (trigger) {
            enterEpoch(tailIdx_);
            poison_it = true;
        }
    }

    if (poison_it) {
        // Retrying re-runs the cache access, so no idle-skip here.
        if (slice_.full())
            return {IssueStep::Stalled, cycle_ + 1};
        deferLoad(di, seq, 1);
        pending_.push(r.doneAt, 1);
        return {};
    }

    writeLoad(di, memImage_.read(di.addr), r.doneAt);
    return {};
}

IssueStep
SltpCore::divertToSlice(const DynInst &di, PoisonMask poison)
{
    // SLTP stalls when it runs out of buffering (state-driven: only a
    // rally frees space).
    if (slice_.full() || (di.isStore() && srl_.size() >= sltp_.srlEntries))
        return {IssueStep::Stalled};

    const SeqNum seq = tailIdx_;
    const SliceEntry entry = captureEntry(di, seq);
    if (di.isStore()) {
        // Miss-dependent store: SRL entry with poisoned data. (A poisoned
        // address is handled identically thanks to the oracle dependence
        // predictor; the model knows the address from the trace.)
        SrlEntry srl_entry;
        srl_entry.addr = di.addr;
        srl_entry.seq = seq;
        srl_entry.poisoned = true;
        srl_.push_back(srl_entry);
    }
    return divert(entry, di, poison);
}

IssueStep
SltpCore::tailStore(const DynInst &di)
{
    // A full SRL is a state-driven stall: only a rally frees space.
    if (srl_.size() >= sltp_.srlEntries)
        return {IssueStep::Stalled};
    SrlEntry entry;
    entry.addr = di.addr;
    entry.value = di.storeValue();
    entry.seq = tailIdx_;
    entry.poisoned = false;
    if (inEpoch_) {
        // Speculative write into the D$ so miss-independent loads can
        // forward through the cache; the line is pinned.
        mem_.store(di.addr, cycle_);
        mem_.dcache().setPinned(di.addr, true);
    }
    srl_.push_back(entry);
    return {};
}

void
SltpCore::rallyTick()
{
    rallyDidWork_ = false;
    rallyWake_ = kCycleNever;
    if (cycle_ < rallyBlockedUntil_) {
        rallyWake_ = rallyBlockedUntil_;
        return;
    }

    // Program-order interleave of SRL drain and slice re-execution: the
    // SRL head drains when everything older has re-executed; a slice
    // entry executes when every older SRL store has drained.
    const SeqNum oldest_slice = slice_.oldestActiveSeq();

    // 1) Drain the SRL head if possible (one store per cycle).
    if (!srl_.empty()) {
        const SrlEntry &head = srl_.front();
        if (!head.poisoned && head.seq < oldest_slice) {
            mem_.store(head.addr, cycle_);
            memImage_.write(head.addr, head.value);
            srl_.pop_front();
            rallyDidWork_ = true;
        }
    }

    // 2) Execute the oldest active slice entry if it precedes the SRL
    //    head (equal seq = the store's own SRL entry: execute first).
    if (slice_.noneActive()) {
        if (srl_.empty()) {
            endEpoch();
            inRally_ = false;
            rallyDidWork_ = true;
        }
        return;
    }
    size_t pos = slice_.headIndex();
    while (pos < slice_.endIndex() && !slice_.active(pos))
        ++pos;
    ICFP_ASSERT(pos < slice_.endIndex());
    SliceEntry &entry = slice_.at(pos);
    if (!srl_.empty() && srl_.front().seq < entry.seq)
        return; // an older store must drain first

    const DynInst &di = trace_->insts[entry.seq];
    const Instruction &si = trace_->program->code[di.pc];

    // Operand delivery: insert-time captures travel with the entry, and
    // resolveEntry() delivers producer results straight into younger
    // entries — the in-order blocking rally guarantees every producer
    // resolved (and delivered) before its consumer executes.
    ICFP_ASSERT(entry.src1Captured && entry.src2Captured);
    if (entry.src1ReadyAt > cycle_) {
        rallyWake_ = entry.src1ReadyAt;
        return;
    }
    if (entry.src2ReadyAt > cycle_) {
        rallyWake_ = entry.src2ReadyAt;
        return;
    }

    const RegVal a = entry.src1Val;
    const RegVal b = entry.src2Val;
    // Every case below does work (a blocking load touches the hierarchy).
    rallyDidWork_ = true;

    switch (di.op) {
      case Opcode::Ld: {
        const Addr addr = memImage_.wrap(a + static_cast<RegVal>(si.imm));
        ICFP_ASSERT(addr == di.addr);
        if (const SrlEntry *st = srlSearch(addr, entry.seq)) {
            ICFP_ASSERT(!st->poisoned); // older slices resolved in order
            ICFP_ASSERT(st->value == di.result());
            resolveEntry(entry, pos, di, st->value,
                         cycle_ + mem_.params().dcacheHitLatency);
            return;
        }
        const MemAccessResult r = mem_.load(addr, cycle_);
        if (r.missedDcache()) {
            // Blocking rally: stall right here until the fill. The
            // access itself touched the hierarchy, so this cycle counts
            // as active; subsequent cycles sleep until the fill.
            rallyBlockedUntil_ = r.doneAt;
            return;
        }
        const RegVal value = memImage_.read(addr);
        ICFP_ASSERT(value == di.result());
        resolveEntry(entry, pos, di, value, r.doneAt);
        return;
      }
      case Opcode::St: {
        // Fill in the SRL entry's value (it is the first poisoned entry
        // at or after the head with this seq).
        ICFP_ASSERT(b == di.storeValue());
        for (SrlEntry &srl_entry : srl_) {
            if (srl_entry.seq == entry.seq) {
                srl_entry.value = b;
                srl_entry.poisoned = false;
                break;
            }
        }
        slice_.resolve(pos);
        ++result_.rallyInsts;
        return;
      }
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Ret: {
        const bool correct = entry.pred.predNextPc == di.nextPc;
        bpred_.resolve(di, entry.pred);
        ++result_.rallyInsts;
        slice_.resolve(pos);
        if (!correct) {
            // The blocking rally resolves strictly in order, so when a
            // poisoned branch turns out mispredicted everything older is
            // already complete and nothing younger was fetched (the tail
            // halted at the unverified branch). Recovery is a front-end
            // redirect backed by SLTP's second checkpoint — no state
            // rollback is needed; the drained SRL prefix stays valid.
            wrongPath_ = false;
            fetchReadyAt_ =
                std::max(fetchReadyAt_, cycle_ + params_.squashPenalty);
            bpred_.squashRas();
            ++result_.squashes;
        }
        return;
      }
      default: {
        const RegVal value = Interpreter::evaluate(di.op, a, b, si.imm);
        ICFP_ASSERT(value == di.result());
        resolveEntry(entry, pos, di, value, cycle_ + fuLatency(di.op));
        return;
      }
    }
}

RunResult
SltpCore::run(const Trace &trace)
{
    beginSliceRun(trace);
    srl_.clear();
    inRally_ = false;

    while (tailIdx_ < traceLen_ || inEpoch_ || !srl_.empty()) {
        slots_.reset();

        bool did_work = false;
        Cycle wake = kCycleNever;

        if (inEpoch_ && !inRally_ && pending_.popReturned(cycle_) != 0) {
            beginRally();
            did_work = true;
        }

        if (inRally_) {
            // Tail stalls; the rally owns the pipeline.
            rallyTick();
            did_work = did_work || rallyDidWork_;
            wake = rallyWake_;
        } else {
            // Outside a rally, the SRL head may drain one store per cycle
            // as long as it is past the active checkpoint window.
            if (!srl_.empty()) {
                const SrlEntry &head = srl_.front();
                const bool safe =
                    !head.poisoned && (!inEpoch_ || head.seq < chkIdx_);
                if (safe) {
                    mem_.store(head.addr, cycle_);
                    memImage_.write(head.addr, head.value);
                    srl_.pop_front();
                    did_work = true;
                }
                // An unsafe head is state-driven (a rally frees it).
            }
            if (tailIssue(
                    &wake,
                    [&](const DynInst &di, PoisonMask poison) {
                        return divertToSlice(di, poison);
                    },
                    [&](const DynInst &di) { return tailLoad(di); },
                    [&](const DynInst &di) { return tailStore(di); }))
                did_work = true;
            // A pending miss return starts the next rally.
            if (inEpoch_)
                wake = std::min(wake, pending_.nextFillAt());
        }

        advanceClock(did_work, wake);
    }

    return finishSliceRun();
}

} // namespace icfp

namespace icfp {
namespace {

/** Self-registration with the core-model registry (sim/core_registry.hh). */
const CoreRegistrar registerSltp(
    CoreKind::Sltp, "sltp", {},
    [](const SimConfig &cfg) {
        return makeCoreModel<SltpCore>(cfg.core, cfg.mem, cfg.sltp);
    });

} // namespace
} // namespace icfp
