/**
 * @file
 * "Flea-flicker" Multipass pipelining (Barnes, Ryoo & Hwu, MICRO 2005;
 * Sections 2 and 4 of the paper).
 *
 * Like Runahead, Multipass un-blocks the pipeline under a miss and must
 * re-process *all* post-miss instructions; unlike Runahead it buffers
 * them (128-entry instruction buffer) together with the results of
 * miss-independent advance instructions, and re-execution reuses those
 * results to break dependences.
 *
 * The model follows the flea-flicker structure: an advance "A-pipe" runs
 * ahead at the frontier (poisoning miss-dependent results, forwarding
 * through a lossy forwarding cache, generating prefetches), while a
 * trailing architectural "B-pipe" re-executes the buffered window in
 * order — instructions with recorded results issue without waiting on
 * their operands; the rest execute with a normal non-blocking scoreboard.
 * The two share the 2-wide pipeline, B given priority. The episode ends
 * when the B-pipe catches the frontier.
 *
 * Per the paper's Figure 5 configuration, Multipass advances under all
 * L2 misses and primary data-cache misses, and blocks on secondary
 * data-cache misses.
 */

#ifndef ICFP_MULTIPASS_MULTIPASS_CORE_HH
#define ICFP_MULTIPASS_MULTIPASS_CORE_HH

#include <deque>

#include "core/core_base.hh"
#include "multipass/multipass_params.hh"
#include "runahead/runahead_cache.hh"

namespace icfp {

/** The Multipass core model. */
class MultipassCore : public CoreBase
{
  public:
    MultipassCore(const CoreParams &core_params, const MemParams &mem_params,
                  const MultipassParams &mp_params = MultipassParams{});

    RunResult run(const Trace &trace) override;

  private:
    /** Per-buffered-instruction state. */
    struct WinEntry
    {
        bool resolved = false;  ///< A-pipe recorded a result for it
        BranchPrediction pred{};///< fetch-time prediction (control only)
    };

    void enterEpisode(size_t after_idx);
    void exitEpisode();
    /**
     * Start a new advance pass from the architectural point: the paper's
     * "multipass" — each long-miss commit re-launches the A-pipe with
     * current register state so it can expose the next round of misses
     * (without this, poison accumulated in the A-pipe's registers would
     * blind it after one pass).
     */
    void resyncAdvance();

    /** One B-pipe (architectural re-execution) step; false = stall. */
    bool commitOne(SimpleStoreBuffer *sb, MemOverlay *memory);

    /** commitOne()'s next time-driven attempt cycle when it returns
     *  false (kCycleNever = state-driven; idle-skip bookkeeping). */
    Cycle bWake_ = 0;

    MultipassParams mp_;
    RunaheadCache fcache_;
    IssueSlots bSlots_{params_}; ///< the B-pipe's own issue bandwidth

    bool inEpisode_ = false;
    Cycle triggerReturnAt_ = 0; ///< the triggering miss's fill time
    size_t bPos_ = 0;     ///< B-pipe position (= window base)
    size_t frontier_ = 0; ///< A-pipe position (window end)
    std::deque<WinEntry> window_; ///< parallel to [bPos_, frontier_)
    bool wrongPath_ = false;
    bool resyncPending_ = false;

    AdvanceRegs aRegs_;                    ///< A-pipe poison and timing
    std::array<Cycle, kNumRegs> bReady_{}; ///< B-pipe operand timing
};

} // namespace icfp

#endif // ICFP_MULTIPASS_MULTIPASS_CORE_HH
