/**
 * @file
 * The iCFP (in-order Continual Flow Pipeline) core model — the paper's
 * primary contribution (Section 3).
 *
 * On a data-cache or L2 miss the core checkpoints the register file and
 * enters an advance epoch. Miss-independent instructions execute and
 * commit into the main register file (RF0); miss-dependent instructions
 * divert into the slice buffer with their side inputs, poisoning their
 * destinations and stamping last-writer sequence numbers. Every miss
 * return triggers a rally pass that re-executes only the still-poisoned
 * slice entries, using the scratch register file (RF1) for intra-slice
 * communication and sequence-gated writes to merge results into RF0.
 * Rallies are non-blocking (still-missing loads re-poison their entries
 * for a later pass) and, when enabled, run multithreaded with continued
 * tail execution, the rally given priority (Section 3.1).
 *
 * Store-load forwarding uses the chained store buffer (Section 3.2);
 * multiprocessor safety uses the load signature (Section 3.3); slice or
 * store-buffer exhaustion falls back to "simple runahead" mode and
 * poisoned-address stores stall the pipeline (Sections 3.2, 3.4).
 *
 * Feature flags reproduce the Figure 7 build: blocking single-pass
 * rallies, poison-vector width, and multithreaded rally can each be
 * toggled; the store-buffer mode knob reproduces Figure 8.
 *
 * The model is execution-verified: every value it commits — forwarded
 * loads, rally re-executions, sequence-gated merges, drained stores — is
 * asserted against the golden trace, and final register/memory state must
 * equal the golden interpreter's.
 */

#ifndef ICFP_ICFP_ICFP_CORE_HH
#define ICFP_ICFP_ICFP_CORE_HH

#include <utility>
#include <vector>

#include "icfp/chained_store_buffer.hh"
#include "icfp/icfp_params.hh"
#include "icfp/signature.hh"
#include "icfp/slice_core.hh"

namespace icfp {

/** The iCFP core. */
class ICfpCore : public SliceCore
{
  public:
    ICfpCore(const CoreParams &core_params, const MemParams &mem_params,
             const ICfpParams &icfp_params = ICfpParams{});

    RunResult run(const Trace &trace) override;

    /** Number of external-store signature hits (squashes) observed. */
    uint64_t signatureSquashes() const { return signatureSquashes_; }

  private:
    // --- per-cycle phases -------------------------------------------------
    /** @return true if any pending miss returned this cycle */
    bool processMissReturns();
    /** @return true if any external store was processed this cycle */
    bool processExternalStores();
    /** @return true if rally made progress this cycle */
    bool rallyTick();
    void tailTick();
    void drainTick();
    void maybeEndEpoch();

    /**
     * Idle-cycle fast-forward: given that this cycle did nothing (every
     * phase reported no activity), the machine state is frozen until some
     * time-driven event — a miss return, an external store, a stalled
     * source becoming ready, a drain-miss slot freeing, a blocked rally's
     * fill. Returns the earliest cycle at which anything could happen, so
     * the run loop can jump straight there instead of polling every
     * intermediate cycle. Must never be later than the true next event
     * (early wake-ups are merely wasted polls); cycle_ + 1 disables the
     * skip for states where no sound bound is known.
     */
    Cycle nextEventCycle() const;

    // --- tail helpers ------------------------------------------------------
    IssueStep tailLoad(const DynInst &di);
    IssueStep tailStore(const DynInst &di);
    IssueStep divertToSlice(const DynInst &di, PoisonMask poison);

    // --- rally helpers -----------------------------------------------------
    enum class RallyOutcome : uint8_t {
        Resolved,  ///< entry executed and un-poisoned
        RePoisoned,///< inputs still missing; entry re-activated
        Stall,     ///< timing stall, retry next cycle
        Blocked,   ///< blocking-rally wait for a load fill
        Squashed,  ///< mispredicted poisoned branch: restored checkpoint
    };
    RallyOutcome rallyExec(SliceEntry &entry, size_t pos);
    void rePoisonEntry(const SliceEntry &entry, size_t pos, PoisonMask bits);

    // --- epoch control -----------------------------------------------------
    void squash();
    void enterSimpleRunahead();
    void exitSimpleRunahead();

    // --- configuration & state --------------------------------------------
    ICfpParams icfp_;

    ChainedStoreBuffer csb_;
    Signature sig_;

    Ssn chkSsnTail_ = 1; ///< store buffer tail at checkpoint creation

    // Rally pass state.
    bool passActive_ = false;
    PoisonMask passBits_ = 0;
    size_t passPos_ = 0;
    PoisonMask returnedBits_ = 0; ///< returned, not yet given a pass
    /**
     * Indexed-limited mode only: a rally pass is stalled on a
     * resolved-but-undrained conflicting store, so the drain gate opens
     * up to the rally frontier (the SRL interleave) until it clears.
     */
    bool rallyStalledOnStore_ = false;

    // Simple-runahead fallback state.
    bool simpleRa_ = false;
    bool sraWrongPath_ = false;
    size_t sraStartIdx_ = 0;
    AdvanceRegs sraRegs_; ///< simple runahead's scratch registers

    /**
     * Completion times of outstanding drained store misses. Only the
     * count (vs. maxDrainMisses) and the earliest expiry matter, so a
     * flat unordered array beats a priority queue: expiry is a swap-pop
     * sweep over at most maxDrainMisses (8) cache-resident entries, with
     * no heap rebalancing on the per-cycle path.
     */
    std::vector<Cycle> drainMisses_;

    size_t nextExternalStore_ = 0;
    uint64_t signatureSquashes_ = 0;

    // Idle-skip bookkeeping (see nextEventCycle()), valid within a cycle.
    bool tailDidWork_ = false;  ///< tail issued/advanced this cycle
    Cycle tailWake_ = 0;        ///< tail's next time-driven attempt cycle
    bool drainDidWork_ = false; ///< a store drained this cycle
    Cycle drainWake_ = 0;       ///< drain's next time-driven attempt cycle
};

} // namespace icfp

#endif // ICFP_ICFP_ICFP_CORE_HH
