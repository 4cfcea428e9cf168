#include "runahead/runahead_core.hh"

#include "common/logging.hh"
#include "sim/core_registry.hh"

namespace icfp {

RunaheadCore::RunaheadCore(const CoreParams &core_params,
                           const MemParams &mem_params,
                           const RunaheadParams &ra_params)
    : CoreBase("runahead", core_params, mem_params),
      ra_(ra_params),
      rcache_(ra_params.runaheadCacheEntries)
{
}

void
RunaheadCore::enterRunahead(Cycle return_at)
{
    ICFP_ASSERT(!inRunahead_);
    inRunahead_ = true;
    triggerReturnAt_ = return_at;
    wrongPath_ = false;
    raRegs_ = AdvanceRegs{{}, regReady_};
    ++result_.advanceEntries;
}

void
RunaheadCore::exitRunahead()
{
    ICFP_ASSERT(inRunahead_);
    inRunahead_ = false;
    wrongPath_ = false;
    rcache_.clear();
    bpred_.squashRas();
    // Everything speculative is discarded; the pipeline restarts from the
    // checkpoint (the triggering load, which now hits).
    fetchReadyAt_ = std::max(fetchReadyAt_, cycle_ + params_.squashPenalty);
    regReady_.fill(cycle_);
    ++result_.squashes;
}

RunResult
RunaheadCore::run(const Trace &trace)
{
    beginRun(trace);
    SimpleStoreBuffer sb(params_.storeBufferEntries);
    MemOverlay memory(&trace.program->initialMemory);

    size_t idx = 0;       // architectural (normal-mode) position
    size_t ra_idx = 0;    // advance position during an episode
    inRunahead_ = false;

    // Normal mode's loads: a triggering miss enters an episode at the
    // load itself, which re-executes (and hits) when the episode ends.
    auto load = [&](const DynInst &di) {
        if (forwardFromBuffer(sb, di))
            return IssueStep{};
        const MemAccessResult r = mem_.load(di.addr, cycle_);
        const bool trig =
            (ra_.trigger == AdvanceTrigger::AnyDcache && r.missedDcache()) ||
            (ra_.trigger == AdvanceTrigger::L2Only && r.missedL2());
        if (!trig) {
            ICFP_ASSERT(memory.read(di.addr) == di.result());
            setDstReady(di, r.doneAt);
            return IssueStep{};
        }
        enterRunahead(r.doneAt);
        ra_idx = idx + 1;
        raRegs_.set(di.dst, 1, cycle_); // the missing value is poisoned
        return IssueStep{IssueStep::ModeSwitch};
    };
    auto store = [&](const DynInst &di) { return storeToBuffer(sb, di); };

    // Advance loads forward from the runahead cache, else prefetch: an L2
    // miss, or under "D$-nb" any D$ miss, poisons; a "D$-b" secondary
    // miss waits at use. Advance stores fill the runahead cache; one with
    // a poisoned address is skipped, so forwarding is best-effort (the
    // robustness gap to the chained store buffer, Section 3.2).
    auto advance_load = [&](const DynInst &di) {
        const RunaheadCacheResult rc = rcache_.read(di.addr);
        if (rc.hit)
            return AdvanceValue{rc.poisoned,
                                cycle_ + mem_.params().dcacheHitLatency};
        const MemAccessResult r = mem_.load(di.addr, cycle_);
        const bool poison =
            r.missedL2() ||
            (r.missedDcache() &&
             ra_.secondaryPolicy == SecondaryMissPolicy::Poison);
        return AdvanceValue{poison, r.doneAt};
    };
    auto advance_store = [&](const DynInst &di, PoisonMask data) {
        rcache_.write(di.addr, data != 0);
    };

    while (idx < traceLen_) {
        slots_.reset();
        sb.drain(cycle_, &memory);

        if (inRunahead_ && cycle_ >= triggerReturnAt_) {
            exitRunahead();
            // Resume normal execution at the checkpoint.
        }

        if (inRunahead_) {
            // Idle-skip: the episode ends at triggerReturnAt_ no matter
            // what; in between, the advance stream can only act at its
            // own stall-release times. A wrong-path stream idles until
            // the episode ends.
            Cycle wake = triggerReturnAt_;
            const bool advanced = advanceStream(
                raRegs_, &ra_idx, traceLen_, &wrongPath_, &wake,
                advance_load, advance_store, [](const AdvanceStep &) {});
            advanceClock(advanced, wake);
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
            issued = true;
            if (step.outcome == IssueStep::ModeSwitch)
                break; // the pipeline is in advance mode now
            ++idx;
        }
        advanceClock(issued, wake);
    }

    sb.flush(&memory);
    ICFP_ASSERT(memory.delta() == trace.finalDelta);

    return finishRun();
}

} // namespace icfp

namespace icfp {
namespace {

/** Self-registration with the core-model registry (sim/core_registry.hh). */
const CoreRegistrar registerRunahead(
    CoreKind::Runahead, "runahead", {"ra"},
    [](const SimConfig &cfg) {
        return makeCoreModel<RunaheadCore>(cfg.core, cfg.mem, cfg.runahead);
    });

} // namespace
} // namespace icfp
