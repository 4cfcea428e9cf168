/**
 * @file
 * SLTP — the Simple Latency Tolerant Processor (Nekkalapu et al., ICCD
 * 2008; Sections 2, 4 and 5.2 of the paper).
 *
 * SLTP, like iCFP, commits miss-independent advance instructions and
 * defers miss-dependent slices. It differs in two load-bearing ways:
 *
 *  1. Memory system: advance stores append to an SRL (store redo log —
 *     a plain FIFO); miss-independent stores additionally write the data
 *     cache *speculatively* (those lines are pinned and cannot be
 *     evicted). When a rally begins, speculatively written lines are
 *     flushed, and the SRL is drained to the cache interleaved with slice
 *     re-execution in program order — the drain both delays the rally and
 *     re-misses the flushed lines.
 *
 *  2. Blocking, single-pass rallies: a slice load that misses stalls the
 *     rally until it returns; the tail cannot resume until the rally
 *     completes and the SRL is fully drained. This is what limits SLTP in
 *     dependent-miss scenarios (Figure 1c/1d).
 *
 * Per Table 1 the memory dependence prediction that propagates poison
 * from SRL stores to forwarding loads is idealized (oracle), as is the
 * verification load queue.
 */

#ifndef ICFP_SLTP_SLTP_CORE_HH
#define ICFP_SLTP_SLTP_CORE_HH

#include <deque>

#include "icfp/slice_core.hh"
#include "sltp/sltp_params.hh"

namespace icfp {

/** The SLTP core model. */
class SltpCore : public SliceCore
{
  public:
    SltpCore(const CoreParams &core_params, const MemParams &mem_params,
             const SltpParams &sltp_params = SltpParams{});

    RunResult run(const Trace &trace) override;

  private:
    /** One SRL (store redo log) entry. */
    struct SrlEntry
    {
        Addr addr = 0;
        RegVal value = 0;
        SeqNum seq = 0;
        bool poisoned = false; ///< data not yet produced
    };

    void beginRally();

    IssueStep tailLoad(const DynInst &di);
    IssueStep tailStore(const DynInst &di);
    IssueStep divertToSlice(const DynInst &di, PoisonMask poison);
    void rallyTick();

    /** Oracle SRL search: youngest older store matching @p addr. */
    const SrlEntry *srlSearch(Addr addr, SeqNum load_seq) const;

    SltpParams sltp_;
    std::deque<SrlEntry> srl_;
    bool inRally_ = false;

    // Idle-skip bookkeeping (valid within a cycle): next time-driven
    // attempt cycle when the rally stalls, kCycleNever = state-driven.
    bool rallyDidWork_ = false;
    Cycle rallyWake_ = 0;
};

} // namespace icfp

#endif // ICFP_SLTP_SLTP_CORE_HH
