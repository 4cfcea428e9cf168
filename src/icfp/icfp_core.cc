#include "icfp/icfp_core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/core_registry.hh"

namespace icfp {

ICfpCore::ICfpCore(const CoreParams &core_params, const MemParams &mem_params,
                   const ICfpParams &icfp_params)
    : SliceCore("icfp", core_params, mem_params, icfp_params.sliceEntries),
      icfp_(icfp_params),
      csb_(icfp_params.storeBuffer),
      sig_(icfp_params.signatureBits)
{
    ICFP_ASSERT(icfp_.poisonBits >= 1 && icfp_.poisonBits <= kMaxPoisonBits);
}

// --------------------------------------------------------------------------
// Epoch control
// --------------------------------------------------------------------------

void
ICfpCore::squash()
{
    ICFP_ASSERT(inEpoch_);
    rf0_.restore();
    slice_.clear();
    pending_.clear();
    csb_.squashTo(chkSsnTail_);
    sig_.clear();
    bpred_.squashRas();

    inEpoch_ = false;
    passActive_ = false;
    returnedBits_ = 0;
    wrongPath_ = false;
    simpleRa_ = false;
    sraWrongPath_ = false;
    rallyBlockedUntil_ = 0;

    tailIdx_ = chkIdx_;
    fetchReadyAt_ = cycle_ + params_.squashPenalty;
    regReady_.fill(cycle_);
    ++result_.squashes;
}

void
ICfpCore::enterSimpleRunahead()
{
    ICFP_ASSERT(inEpoch_ && !simpleRa_);
    simpleRa_ = true;
    sraWrongPath_ = false;
    sraStartIdx_ = tailIdx_;
    sraRegs_.ready = regReady_;
    for (int r = 0; r < kNumRegs; ++r)
        sraRegs_.poison[r] = rf0_.poison(static_cast<RegId>(r));
    ++result_.simpleRaEntries;
}

void
ICfpCore::exitSimpleRunahead()
{
    ICFP_ASSERT(simpleRa_);
    simpleRa_ = false;
    sraWrongPath_ = false;
    // Everything advanced in simple-runahead mode was non-committing and
    // must re-execute: rewind the tail and refill the pipe.
    tailIdx_ = sraStartIdx_;
    fetchReadyAt_ = std::max(fetchReadyAt_, cycle_ + params_.squashPenalty);
}

void
ICfpCore::maybeEndEpoch()
{
    if (!inEpoch_ || passActive_ || !slice_.noneActive())
        return;
    // The rally is complete. If the tail had fallen into simple-runahead
    // mode, rewind it first (its work was non-committing); ending the
    // epoch releases the checkpoint, which lets the store buffer drain
    // and unblocks whatever resource exhaustion caused the fallback.
    if (simpleRa_)
        exitSimpleRunahead();
    endEpoch();
    returnedBits_ = 0;
    sig_.clear();
}

// --------------------------------------------------------------------------
// Miss returns and external stores
// --------------------------------------------------------------------------

bool
ICfpCore::processMissReturns()
{
    const PoisonMask popped = pending_.popReturned(cycle_);
    returnedBits_ |= popped;
    return popped != 0;
}

bool
ICfpCore::processExternalStores()
{
    bool any = false;
    while (nextExternalStore_ < icfp_.externalStores.size() &&
           icfp_.externalStores[nextExternalStore_].first <= cycle_) {
        any = true;
        const Addr addr = icfp_.externalStores[nextExternalStore_].second;
        ++nextExternalStore_;
        // Vulnerable loads (cache-sourced during this epoch) are recorded
        // in the signature; a probe hit forces a squash to the checkpoint
        // (Section 3.3). Without a checkpoint the load was architecturally
        // ordered and no action is needed.
        if (inEpoch_ && sig_.probe(addr)) {
            ++signatureSquashes_;
            squash();
        }
    }
    return any;
}

// --------------------------------------------------------------------------
// Tail (advance / normal) execution
// --------------------------------------------------------------------------

IssueStep
ICfpCore::tailLoad(const DynInst &di)
{
    const SeqNum seq = tailIdx_;
    const SbLookupResult fwd = csb_.lookup(di.addr, seq, nullptr);

    if (fwd.mustStall) {
        // IndexedLimited: wait for the conflicting store. Each retry
        // performs (and counts) a chain-table lookup, so idle-skip must
        // stay off here to keep the per-cycle retry cadence.
        return {IssueStep::Stalled, cycle_ + 1};
    }

    if (fwd.found && !fwd.poisoned) {
        // Store buffer forwarding; extra chain hops add load latency.
        writeLoad(di, fwd.value,
                  cycle_ + mem_.params().dcacheHitLatency + fwd.excessHops);
        return {};
    }

    if (fwd.found && fwd.poisoned) {
        // Forwarding from a miss-dependent store: the load inherits the
        // store's poison and defers (Section 3.2).
        if (slice_.full()) {
            enterSimpleRunahead();
            // Mode switch: poll again next cycle.
            return {IssueStep::Stalled, cycle_ + 1};
        }
        deferLoad(di, seq, fwd.poison);
        return {};
    }

    // No forwarding: access the hierarchy.
    const MemAccessResult r = mem_.load(di.addr, cycle_);
    const bool d_miss = r.missedDcache();
    const bool l2_miss = r.missedL2();

    bool poison_it = false;
    if (inEpoch_) {
        // Under a miss, L2 misses always poison; D$-only misses follow the
        // secondary-miss policy (Section 2's D$-b/D$-nb distinction).
        poison_it = l2_miss || (d_miss && icfp_.secondaryPolicy ==
                                              SecondaryMissPolicy::Poison);
    } else {
        const bool trigger =
            (icfp_.trigger == AdvanceTrigger::AnyDcache && d_miss) ||
            (icfp_.trigger == AdvanceTrigger::L2Only && l2_miss);
        if (trigger) {
            rf0_.checkpoint();
            chkSsnTail_ = csb_.ssnTail();
            enterEpoch(tailIdx_);
            poison_it = true;
        }
    }

    if (poison_it) {
        if (slice_.full()) {
            enterSimpleRunahead();
            // Mode switch: poll again next cycle.
            return {IssueStep::Stalled, cycle_ + 1};
        }
        const PoisonMask mask = poisonBitMask(r.poisonBit, icfp_.poisonBits);
        deferLoad(di, seq, mask);
        pending_.push(r.doneAt, mask);
        return {};
    }

    // Ordinary (possibly slow) load: value comes from memory state, which
    // reflects all drained stores; anything younger would have forwarded.
    // A no-match chain walk still costs its excess hops: the D$ value is
    // usable only once the walk confirms nothing younger forwards.
    writeLoad(di, memImage_.read(di.addr),
              std::max(r.doneAt, cycle_ + mem_.params().dcacheHitLatency +
                                     fwd.excessHops));
    if (inEpoch_)
        sig_.insert(di.addr); // vulnerable to external stores (Section 3.3)
    return {};
}

IssueStep
ICfpCore::tailStore(const DynInst &di)
{
    if (csb_.full()) {
        if (inEpoch_) {
            enterSimpleRunahead();
        }
        // Outside an epoch the buffer drains ahead of us (one store per
        // cycle); either way, poll again next cycle.
        return {IssueStep::Stalled, cycle_ + 1};
    }
    csb_.allocate(di.addr, di.storeValue(), 0, tailIdx_);
    return {};
}

IssueStep
ICfpCore::divertToSlice(const DynInst &di, PoisonMask poison)
{
    // A store whose *address* is poisoned cannot be chained into the store
    // buffer; proceeding would forfeit forwarding guarantees (Section 3.2).
    const bool addr_poisoned =
        di.isStore() && di.src1 != kNoReg && rf0_.poison(di.src1) != 0;
    if (addr_poisoned) {
        if (icfp_.poisonAddrPolicy == PoisonAddrPolicy::Stall) {
            // The tail waits until the address resolves; the stall is
            // re-counted every cycle, so idle-skip must stay off here.
            ++result_.poisonAddrStalls;
            return {IssueStep::Stalled, cycle_ + 1};
        }
        enterSimpleRunahead();
        return {IssueStep::Stalled, cycle_ + 1};
    }

    if (slice_.full() || (di.isStore() && csb_.full())) {
        enterSimpleRunahead();
        return {IssueStep::Stalled, cycle_ + 1};
    }

    SliceEntry entry = captureEntry(di, tailIdx_);
    if (di.isStore()) {
        // Address known, data poisoned: allocate (and chain) the store
        // buffer entry now; the rally fills in the value later.
        entry.storeSsn = csb_.allocate(di.addr, 0, poison, tailIdx_);
    }
    return divert(entry, di, poison);
}

void
ICfpCore::tailTick()
{
    if (simpleRa_) {
        // Exit when the exhausted resource has enough space again
        // (hysteresis avoids rewind/refill ping-pong); checked even on
        // the wrong path, since the rewind recovers from it.
        const size_t slice_hyst = std::min<size_t>(
            icfp_.simpleRaHysteresis, icfp_.sliceEntries / 2);
        const size_t csb_hyst = std::min<size_t>(
            icfp_.simpleRaHysteresis / 2, icfp_.storeBuffer.entries / 2);
        const bool slice_ok =
            slice_.occupancy() + slice_hyst <= icfp_.sliceEntries;
        const bool csb_ok =
            csb_.occupancy() + csb_hyst <= icfp_.storeBuffer.entries;
        if (slice_ok && csb_ok) {
            exitSimpleRunahead();
            tailDidWork_ = true; // mode switch: refill timing now pending
            return;
        }
        if (sraWrongPath_)
            return; // unblocked only by rally/squash activity
        if (cycle_ < fetchReadyAt_) {
            tailWake_ = fetchReadyAt_;
            return;
        }
        if (tailIdx_ >= sraStartIdx_ + icfp_.simpleRaMaxDepth)
            return; // lookahead bound: stop generating junk prefetches
        // Non-committing advance (Section 3.4): keeps prefetching and
        // branch resolution going on scratch registers; every instruction
        // advanced here re-executes after the rewind. Any D$ miss poisons,
        // stores have no buffer space and do nothing, and a redirect does
        // not end the cycle.
        auto load = [&](const DynInst &di) {
            const MemAccessResult r = mem_.load(di.addr, cycle_);
            return AdvanceValue{
                r.missedDcache() ? poisonBitMask(r.poisonBit, icfp_.poisonBits)
                                 : PoisonMask{0},
                r.doneAt};
        };
        while (tailIdx_ < traceLen_ && slots_.used() < params_.issueWidth) {
            const AdvanceStep step =
                advanceInOrder(trace_->insts[tailIdx_], sraRegs_, load,
                               [](const DynInst &, PoisonMask) {});
            if (step.outcome == AdvanceStep::Stalled) {
                tailWake_ = step.wake;
                break;
            }
            ++tailIdx_;
            tailDidWork_ = true;
            if (step.outcome == AdvanceStep::WrongPath) {
                sraWrongPath_ = true;
                break;
            }
        }
        return;
    }

    // Miss-dependent instructions divert to the slice buffer; the rest
    // issue in order. Every step that falls back to simple runahead
    // stalls, so the switch always ends the loop.
    tailDidWork_ = tailIssue(
        &tailWake_,
        [&](const DynInst &di, PoisonMask poison) {
            return divertToSlice(di, poison);
        },
        [&](const DynInst &di) { return tailLoad(di); },
        [&](const DynInst &di) { return tailStore(di); });
}

// --------------------------------------------------------------------------
// Rally execution
// --------------------------------------------------------------------------

void
ICfpCore::rePoisonEntry(const SliceEntry &entry, size_t pos, PoisonMask bits)
{
    // Inputs still missing: re-poison the entry in place for a later pass
    // ("rallies themselves perform advance execution"). Keep the main
    // register file's and store buffer's poison bits current so newly
    // fetched dependents and forwarding loads wait on the right misses.
    slice_.rePoison(pos, bits);
    if (entry.hasDst() && rf0_.lastWriter(entry.dst) == entry.seq &&
        rf0_.poison(entry.dst) != 0) {
        rf0_.writePoisoned(entry.dst, bits, entry.seq);
    }
    if (entry.isStore())
        csb_.updatePoison(entry.storeSsn, bits);
    ++result_.rallyInsts;
}

ICfpCore::RallyOutcome
ICfpCore::rallyExec(SliceEntry &entry, size_t pos)
{
    // Gather operands. Captured sources travel with the entry (insert-time
    // side inputs, or values resolveEntry() delivered over the bypass when
    // their producer resolved); a still-uncaptured source links to a
    // producer that is itself still deferred in the slice buffer. A
    // delivered value is usable only from its bypass readyAt cycle on.
    // Most visits end here in a re-poison, before the trace is touched.
    PoisonMask still_poisoned = 0;
    if (!entry.src1Captured)
        still_poisoned |=
            slice_.producerPoison(entry.src1Link, entry.src1Producer);
    else if (entry.src1ReadyAt > cycle_)
        return RallyOutcome::Stall;
    if (!entry.src2Captured)
        still_poisoned |=
            slice_.producerPoison(entry.src2Link, entry.src2Producer);
    else if (entry.src2ReadyAt > cycle_)
        return RallyOutcome::Stall;

    if (still_poisoned != 0) {
        ICFP_ASSERT(icfp_.nonBlockingRally);
        rePoisonEntry(entry, pos, still_poisoned);
        return RallyOutcome::RePoisoned;
    }

    const DynInst &di = trace_->insts[entry.seq];
    const Instruction &si = trace_->program->code[di.pc];
    const RegVal a = entry.src1Val;
    const RegVal b = entry.src2Val;

    switch (di.op) {
      case Opcode::Ld: {
        const Addr addr =
            memImage_.wrap(a + static_cast<RegVal>(si.imm));
        ICFP_ASSERT(addr == di.addr);
        const SbLookupResult fwd = csb_.lookup(addr, entry.seq, nullptr);
        if (fwd.mustStall)
            return RallyOutcome::Stall;
        if (fwd.found) {
            if (fwd.poisoned) {
                ICFP_ASSERT(icfp_.nonBlockingRally);
                rePoisonEntry(entry, pos, fwd.poison);
                return RallyOutcome::RePoisoned;
            }
            ICFP_ASSERT(fwd.value == di.result());
            resolveEntry(entry, pos, di, fwd.value,
                         cycle_ + mem_.params().dcacheHitLatency +
                             fwd.excessHops);
            return RallyOutcome::Resolved;
        }
        const MemAccessResult r = mem_.load(addr, cycle_);
        if (r.missedDcache()) {
            if (!icfp_.nonBlockingRally) {
                // Blocking rally: wait right here for the fill.
                rallyBlockedUntil_ = r.doneAt;
                return RallyOutcome::Blocked;
            }
            // Dependent miss: re-poison with a fresh bit and keep going.
            const PoisonMask mask =
                poisonBitMask(r.poisonBit, icfp_.poisonBits);
            pending_.push(r.doneAt, mask);
            rePoisonEntry(entry, pos, mask);
            return RallyOutcome::RePoisoned;
        }
        const RegVal value = memImage_.read(addr);
        ICFP_ASSERT(value == di.result());
        sig_.insert(addr);
        resolveEntry(entry, pos, di, value,
                     std::max(r.doneAt,
                              cycle_ + mem_.params().dcacheHitLatency +
                                  fwd.excessHops));
        return RallyOutcome::Resolved;
      }
      case Opcode::St: {
        // Address was known at slice entry; only the data was poisoned.
        ICFP_ASSERT(b == di.storeValue());
        csb_.resolve(entry.storeSsn, b);
        slice_.resolve(pos);
        ++result_.rallyInsts;
        return RallyOutcome::Resolved;
      }
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Ret: {
        const bool correct = entry.pred.predNextPc == di.nextPc;
        bpred_.resolve(di, entry.pred);
        ++result_.rallyInsts;
        if (!correct) {
            // The advance ran down the wrong path from this branch on;
            // recover to the checkpoint (Section 3.1).
            squash();
            return RallyOutcome::Squashed;
        }
        slice_.resolve(pos);
        return RallyOutcome::Resolved;
      }
      default: { // ALU
        const RegVal value = Interpreter::evaluate(di.op, a, b, si.imm);
        ICFP_ASSERT(value == di.result());
        resolveEntry(entry, pos, di, value, cycle_ + fuLatency(di.op));
        return RallyOutcome::Resolved;
      }
    }
}

bool
ICfpCore::rallyTick()
{
    if (!inEpoch_)
        return false;
    if (cycle_ < rallyBlockedUntil_)
        return false;

    // Start a pass when misses have returned and no pass is running.
    if (!passActive_ && returnedBits_ != 0 && !slice_.noneActive()) {
        passActive_ = true;
        passBits_ = icfp_.nonBlockingRally
                        ? returnedBits_
                        : static_cast<PoisonMask>(~PoisonMask{0});
        returnedBits_ = 0;
        passPos_ = slice_.headIndex();
        ++result_.rallyPasses;
    }
    if (!passActive_)
        return false;

    bool progressed = false;
    size_t skips = icfp_.sliceSkipPerCycle;
    unsigned execs = icfp_.rallyWidth;

    while (passPos_ < slice_.endIndex()) {
        // Head reclaim may have advanced past the scan position.
        passPos_ = std::max(passPos_, slice_.headIndex());
        // Banked skip of un-poisoned / non-matching entries.
        const size_t next = slice_.skipUnwanted(passPos_, passBits_, skips);
        if (next != passPos_) {
            skips -= next - passPos_;
            passPos_ = next;
            progressed = true;
        }
        if (passPos_ >= slice_.endIndex() ||
            (slice_.poison(passPos_) & passBits_) == 0)
            break; // end of the buffer, or out of skip bandwidth
        if (execs == 0)
            break;

        SliceEntry &entry = slice_.at(passPos_);
        const FuClass fu = fuClass(entry.op);
        if (!slots_.available(fu))
            break;

        const RallyOutcome outcome = rallyExec(entry, passPos_);
        if (outcome != RallyOutcome::Stall)
            rallyStalledOnStore_ = false;
        if (outcome == RallyOutcome::Stall) {
            rallyStalledOnStore_ = true;
            // Indexed-limited store-buffer conflict: the blocking store
            // may be undrainable until entries *behind* the scan point
            // (skipped for a later pass) resolve. Yield this pass and
            // fold its bits back, so the restart re-scans from the head
            // — the head entry's conflicts are always drainable, which
            // guarantees forward progress.
            returnedBits_ |= passBits_;
            passActive_ = false;
            passBits_ = 0;
            rallyBlockedUntil_ = cycle_ + 2;
            break;
        }
        if (outcome == RallyOutcome::Blocked)
            break;
        if (outcome == RallyOutcome::Squashed)
            return true;

        slots_.take(fu);
        --execs;
        ++passPos_;
        progressed = true;
    }

    if (passPos_ >= slice_.endIndex()) {
        passActive_ = false;
        passBits_ = 0;
    }
    return progressed;
}

// --------------------------------------------------------------------------
// Store drain
// --------------------------------------------------------------------------

void
ICfpCore::drainTick()
{
    drainDidWork_ = false;
    drainWake_ = kCycleNever;

    // Expire completed drain misses (order-free swap-pop: only the count
    // and the earliest expiry matter, so no ordered queue is needed).
    for (size_t i = 0; i < drainMisses_.size();) {
        if (drainMisses_[i] <= cycle_) {
            drainMisses_[i] = drainMisses_.back();
            drainMisses_.pop_back();
        } else {
            ++i;
        }
    }
    if (csb_.empty())
        return;

    // Bound the number of outstanding drained store misses.
    if (drainMisses_.size() >= icfp_.storeBuffer.maxDrainMisses) {
        // Capacity-blocked: the next drain opportunity is the earliest
        // outstanding miss completion.
        Cycle earliest = kCycleNever;
        for (const Cycle done : drainMisses_)
            earliest = std::min(earliest, done);
        drainWake_ = earliest;
        return;
    }

    // During an epoch, stores younger than the checkpoint stay buffered so
    // a squash never needs memory rollback; this is what sizes the
    // 128-entry buffer (Section 3.2).
    //
    // Exception: when an indexed-limited rally is stalled on a
    // resolved-but-undrained conflicting store, the SRL interleave
    // (Gandhi et al.: drain in program order with slice re-execution)
    // opens the gate up to the rally frontier — otherwise the rally
    // would deadlock against the drain gate. Outside that rescue, the
    // mode keeps the strict gate, so tail loads that hit a chain-table
    // conflict stall for the rest of the epoch (the Figure 8 penalty).
    SeqNum bound = inEpoch_ ? chkIdx_ : ~SeqNum{0};
    if (inEpoch_ && rallyStalledOnStore_ &&
        icfp_.storeBuffer.mode == SbMode::IndexedLimited) {
        bound = slice_.oldestActiveSeq();
    }

    Addr addr;
    RegVal value;
    if (csb_.drainHead(bound, &addr, &value)) {
        const MemAccessResult r = mem_.store(addr, cycle_);
        memImage_.write(addr, value);
        if (r.missedDcache())
            drainMisses_.push_back(r.doneAt);
        drainDidWork_ = true;
    }
    // An undrainable head (poisoned data / the epoch gate) has no
    // time-driven unblock; rally or epoch activity will re-poll it.
}

// --------------------------------------------------------------------------
// The run loop
// --------------------------------------------------------------------------

Cycle
ICfpCore::nextEventCycle() const
{
    if (returnedBits_ != 0)
        return cycle_ + 1; // a rally pass can start next cycle

    Cycle wake = kCycleNever;
    if (passActive_) {
        // An active pass that made no progress is waiting on a blocking-
        // rally fill (the only no-progress pass state that is not also
        // returnedBits_-driven).
        wake = std::max(cycle_ + 1, rallyBlockedUntil_);
    }
    wake = std::min(wake, pending_.nextFillAt());
    if (nextExternalStore_ < icfp_.externalStores.size()) {
        wake = std::min(wake,
                        icfp_.externalStores[nextExternalStore_].first);
    }
    wake = std::min(wake, tailWake_);
    wake = std::min(wake, drainWake_);

    // No sound bound (e.g. wrong-path tail waiting on a rally outcome):
    // fall back to per-cycle polling for this state.
    return wake == kCycleNever ? cycle_ + 1 : wake;
}

RunResult
ICfpCore::run(const Trace &trace)
{
    beginSliceRun(trace);
    sig_.clear();
    csb_ = ChainedStoreBuffer(icfp_.storeBuffer);
    drainMisses_.clear();

    passActive_ = false;
    returnedBits_ = 0;
    simpleRa_ = false;
    sraWrongPath_ = false;
    nextExternalStore_ = 0;
    signatureSquashes_ = 0;
    tailDidWork_ = false;
    tailWake_ = 0;
    drainDidWork_ = false;
    drainWake_ = 0;

    while (tailIdx_ < traceLen_ || inEpoch_ || !csb_.empty()) {
        slots_.reset();

        const bool miss_returned = processMissReturns();
        const bool ext_stores = processExternalStores();

        const bool rally_busy = rallyTick();
        tailDidWork_ = false;
        tailWake_ = kCycleNever;
        // Multithreaded rally: the tail shares the pipe with the rally;
        // otherwise the tail stalls whenever a pass is running.
        if (icfp_.multithreadedRally || (!passActive_ && !rally_busy))
            tailTick();
        drainTick();
        const bool was_epoch = inEpoch_;
        maybeEndEpoch();

        // Idle-cycle fast-forward: if every phase reported a no-op, the
        // machine is frozen until the next time-driven event.
        const bool active = miss_returned || ext_stores || rally_busy ||
                            tailDidWork_ || drainDidWork_ ||
                            was_epoch != inEpoch_;
        advanceClock(active, active ? kCycleNever : nextEventCycle());
    }

    result_.sbChainLoads = csb_.stats().lookups;
    result_.sbExcessHops = csb_.stats().excessHops;
    result_.sbForwards = csb_.stats().forwards;
    return finishSliceRun();
}

} // namespace icfp

namespace icfp {
namespace {

/** Self-registration with the core-model registry (sim/core_registry.hh). */
const CoreRegistrar registerICfp(
    CoreKind::ICfp, "icfp", {},
    [](const SimConfig &cfg) {
        return makeCoreModel<ICfpCore>(cfg.core, cfg.mem, cfg.icfp);
    });

} // namespace
} // namespace icfp
