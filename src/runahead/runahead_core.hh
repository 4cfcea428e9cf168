/**
 * @file
 * Runahead execution (Dundas & Mudge 1997; Mutlu et al. 2003; Figure 2b
 * and Section 2 of the paper).
 *
 * On a triggering miss, Runahead checkpoints the register file and keeps
 * executing speculatively to generate prefetches: destinations of missing
 * loads are poisoned, poison propagates through dependences, stores write
 * a lossy Runahead cache. When the triggering miss returns, *everything*
 * executed during the episode is discarded and the pipeline restarts from
 * the checkpoint — re-executing miss-independent work is precisely the
 * overhead iCFP eliminates.
 *
 * Configuration knobs reproduce Figures 5 and 6: which misses trigger an
 * episode (L2-only vs. any data-cache miss) and whether advance execution
 * blocks on or poisons secondary data-cache misses (the "D$-b"/"D$-nb"
 * dilemma of Section 2).
 */

#ifndef ICFP_RUNAHEAD_RUNAHEAD_CORE_HH
#define ICFP_RUNAHEAD_RUNAHEAD_CORE_HH

#include "core/core_base.hh"
#include "runahead/runahead_cache.hh"
#include "runahead/runahead_params.hh"

namespace icfp {

/** The Runahead core model. */
class RunaheadCore : public CoreBase
{
  public:
    RunaheadCore(const CoreParams &core_params, const MemParams &mem_params,
                 const RunaheadParams &ra_params = RunaheadParams{});

    RunResult run(const Trace &trace) override;

  private:
    /** Enter a runahead episode triggered by a load whose data returns
     *  at @p return_at; that load is the checkpoint. */
    void enterRunahead(Cycle return_at);
    /** Episode over: discard speculative state, restart at checkpoint. */
    void exitRunahead();

    RunaheadParams ra_;
    RunaheadCache rcache_;

    bool inRunahead_ = false;
    Cycle triggerReturnAt_ = 0;
    bool wrongPath_ = false;

    AdvanceRegs raRegs_; ///< the episode's scratch registers
};

} // namespace icfp

#endif // ICFP_RUNAHEAD_RUNAHEAD_CORE_HH
