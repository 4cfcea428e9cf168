/**
 * @file
 * An out-of-order Continual Flow Pipeline (Srinivasan et al., ASPLOS
 * 2004) — the second Section 5.3 comparison point ("a 2-way issue
 * (out-of-order) CFP pipeline has an 83% advantage").
 *
 * The model extends OooCore: when a load misses the L2, the load's
 * output is marked deferred and its forward slice — every not-yet-issued
 * window instruction that transitively depends on it — drains out of the
 * issue queue, load/store queues, and (at the head) the reorder buffer
 * into a slice data buffer, releasing those resources for younger
 * miss-independent instructions. When the miss data returns, slice
 * entries re-execute at a bounded rally bandwidth, ordered by dataflow.
 * Dependent loads that miss again are simply re-deferred, so chains of
 * dependent misses overlap exactly as in iCFP (which borrows this
 * behaviour for the in-order world).
 *
 * Deferred stores keep their program-order drain slot: younger stores
 * cannot write the cache until an older deferred store re-executes (the
 * SRL discipline of Gandhi et al.), and loads forward from deferred
 * stores only once the store's data exists.
 *
 * Modeling note: a mispredicted branch inside a deferred slice squashes
 * to the checkpoint; the model charges the squash penalty and counts the
 * event, but does not re-simulate the discarded miss-independent work —
 * slice branches are rare (they require a poisoned input), so this
 * under-charges only marginally.
 *
 * The run loop inherits OooCore's event-driven issue and idle-cycle
 * fast-forward. A window entry that waits on an instruction in the slice
 * buffer (possible only when that buffer was full as the entry was
 * dispatched or drained) cannot be linked to a window producer; it is
 * parked instead and re-examined whenever a rally executes. Sliced
 * entries never issue from the window: slicing drops an entry from the
 * ready bitmap, and stale timed-queue and consumer links are validated
 * before use.
 */

#ifndef ICFP_OOO_CFP_CORE_HH
#define ICFP_OOO_CFP_CORE_HH

#include <deque>
#include <vector>

#include "ooo/ooo_core.hh"

namespace icfp {

/** The out-of-order CFP comparison core. */
class CfpCore : public OooCore
{
  public:
    CfpCore(const CoreParams &core_params, const MemParams &mem_params,
            const CfpParams &cfp_params = CfpParams{});

    RunResult run(const Trace &trace) override;

    /** Instructions deferred to the slice buffer in the last run. */
    uint64_t slicedInsts() const { return slicedInsts_; }
    /** Slice re-executions in the last run. */
    uint64_t rallyInsts() const { return rallyInsts_; }

  private:
    /** One program-order store-drain slot (trace index). */
    struct PendingStore
    {
        size_t idx; ///< trace index of the store
    };

    /** Is @p prod's value deferred (unavailable for a long time)? */
    bool sourceDeferred(size_t prod, Cycle now) const;
    /** Union of @p entry's deferred-source status. */
    bool anySourceDeferred(const Entry &entry, Cycle now) const;

    /** Divert @p entry to the slice buffer, releasing its resources. */
    void sliceOut(Entry *entry, bool from_iq);

    /**
     * After new deferral appears at trace index @p from, drain every
     * younger un-issued dependent out of the window.
     */
    void drainDependents(size_t from);

    /** Execute one slice entry during a rally. */
    void rallyExecute(const Trace &trace, Entry *entry);

    /** Program-order store drain into the post-commit store buffer.
     *  @return the number of stores drained. */
    unsigned drainStores(const Trace &trace, MemOverlay *memory);

    /** Schedule parked window entries whose slice producers are done. */
    void wakeParked();

    /** Adds the store drain and the rally's scan window to the bounds. */
    Cycle nextEventCycle() const override;

    CfpParams cfp_;

    /** missDeferred_[i]: instruction i is a load that missed the L2. */
    std::vector<bool> missDeferred_;
    /** sliced_[i]: instruction i was drained into the slice buffer. */
    std::vector<bool> sliced_;
    /** storeExecuted_[i]: store i has produced address+data. */
    std::vector<bool> storeExecuted_;

    std::deque<Entry> slice_;
    std::deque<PendingStore> pendingStores_;
    /** Window entries (trace indices) waiting on a sliced producer. */
    std::vector<size_t> parked_;

    uint64_t slicedInsts_ = 0;
    uint64_t rallyInsts_ = 0;
    uint64_t sliceSquashes_ = 0;
};

} // namespace icfp

#endif // ICFP_OOO_CFP_CORE_HH
