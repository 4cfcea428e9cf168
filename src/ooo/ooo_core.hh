/**
 * @file
 * A 2-way issue out-of-order core model (the Section 5.3 comparison
 * point: "a 2-way issue out-of-order processor has a 68% performance
 * advantage over our 2-way in-order pipeline").
 *
 * The model is a trace-replay dataflow-limited window machine: in-order
 * fetch/dispatch into a reorder buffer, out-of-order issue from an issue
 * queue when producers complete and a functional-unit slot is free,
 * in-order commit. Loads access the shared timing hierarchy at issue;
 * stores retire through a post-commit store buffer so the pipeline does
 * not block on store misses. Memory dependences are handled with perfect
 * (oracle) store-load forwarding through the store queue, the same
 * idealization Table 1 grants SLTP's load queue. Modeling note: a load
 * therefore never issues ahead of the older store it reads from and is
 * never squashed for a memory-order violation, so the model charges no
 * disambiguation penalty; the forwarding store simply becomes one of the
 * load's producers.
 *
 * Branch mispredictions block dispatch of the (correct-path) trace
 * successors until the branch resolves at execute plus the front-end
 * redirect penalty, so deeper windows do not magically hide control
 * hazards.
 *
 * The run loop is event-driven, with cycle counts identical to stepping
 * every cycle and rescanning the window:
 *  - Issue walks a ready bitmap over reorder-buffer slots, oldest first,
 *    instead of every entry, and skips the slots whose functional-unit
 *    class has no issue slot left this cycle. At dispatch an entry is
 *    linked to each producer whose result time is still unknown; when a
 *    producer gets its completion time it wakes those consumers. A woken
 *    entry waits for its operand-ready cycle in a 64-cycle timing wheel
 *    of slot bitmaps, or in a heap when that cycle is further out
 *    (consumers of memory misses), and then moves into the ready bitmap.
 *  - A cycle that commits, issues and dispatches nothing jumps the clock
 *    to the next cycle at which one of them can happen (nextEventCycle).
 */

#ifndef ICFP_OOO_OOO_CORE_HH
#define ICFP_OOO_OOO_CORE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "core/core_base.hh"
#include "ooo/ooo_params.hh"

namespace icfp {

/** Sentinel trace index meaning "no producer / value already ready". */
constexpr size_t kNoProducer = ~size_t{0};

/** The out-of-order comparison core. */
class OooCore : public CoreBase
{
  public:
    OooCore(const CoreParams &core_params, const MemParams &mem_params,
            const OooParams &ooo_params = OooParams{});

    RunResult run(const Trace &trace) override;

    /** Peak reorder-buffer occupancy observed in the last run. */
    unsigned peakRobOccupancy() const { return peakRob_; }

  protected:
    /** One in-flight instruction in the window. */
    struct Entry
    {
        size_t idx = kNoProducer;  ///< trace index
        size_t prod1 = kNoProducer;///< trace index of src1's writer
        size_t prod2 = kNoProducer;///< trace index of src2's writer
        /** When both producers are done; kCycleNever until known. */
        Cycle readyAt = kCycleNever;
        FuClass fu = FuClass::None;
        bool issued = false;
        bool inIq = false;         ///< holds an issue-queue slot
        bool isLoad = false;
        bool isStore = false;
        /** Store-queue forwarding source (store trace idx), if any. */
        size_t forwardFrom = kNoProducer;
        /** Fetch-time prediction for control instructions. */
        BranchPrediction pred{};
        bool mispredicted = false; ///< stalls dispatch until resolve
        /** Deferred to the slice data buffer (CfpCore only). */
        bool sliced = false;
    };

    /** Completion time of @p trace_idx's result (kCycleNever if unknown). */
    Cycle
    producerDoneAt(size_t trace_idx) const
    {
        return trace_idx == kNoProducer ? 0 : doneAt_[trace_idx];
    }

    /** When both of @p entry's producers are done (kCycleNever if unknown). */
    Cycle
    operandsReadyAt(const Entry &entry) const
    {
        return std::max(producerDoneAt(entry.prod1),
                        producerDoneAt(entry.prod2));
    }

    /** True once both producers have completed by @p now. */
    bool
    sourcesReady(const Entry &entry, Cycle now) const
    {
        return operandsReadyAt(entry) <= now;
    }

    /** Is trace instruction @p idx in the reorder buffer? */
    bool
    inRob(size_t idx) const
    {
        return idx >= commitIdx_ && idx < fetchIdx_;
    }

    /** The reorder-buffer entry of trace instruction @p idx. @pre inRob */
    Entry &robAt(size_t idx) { return robSlots_[idx & robMask_]; }

    size_t robSize() const { return fetchIdx_ - commitIdx_; }

    /**
     * The free ring slot for trace instruction fetchIdx_, reset to a
     * fresh entry. Dispatch fills it in place; until pushRob() it is
     * outside the window, so a dispatch that stalls simply drops it.
     */
    Entry &stageEntry();

    /** Append the staged entry to the window. */
    void pushRob();

    /** Record @p di's fetch-time dataflow into @p entry. */
    void captureProducers(const DynInst &di, Entry *entry) const;

    /** Oracle store-queue search: youngest older store to @p addr. */
    size_t findForwardingStore(size_t load_idx, Addr addr) const;

    /**
     * Enter a just-dispatched ROB entry into the scheduler: queue it for
     * issue if its operand times are known, else link it to each unknown
     * producer that is a live ROB entry.
     * @return true iff some unknown producer is not linkable (it sits in
     *         CfpCore's slice buffer); the caller must wake the entry.
     */
    bool enlist(Entry *entry);

    /** Queue @p entry to issue from cycle @p ready_at on. */
    void schedule(Entry *entry, Cycle ready_at);

    /** @p producer's completion time is now known: wake its consumers. */
    void wakeConsumers(size_t producer);

    /** Drop @p entry from the ready bitmap (it issues now). */
    void
    clearReady(const Entry &entry)
    {
        clearSlot(readyBits_.data(), entry.idx & robMask_);
    }

    /**
     * Unlink every consumer slot linked to @p producer's slot, calling
     * @p fn with the entry now in each. A linked slot may since have been
     * vacated and reused, so @p fn must validate what it finds.
     */
    template <typename Fn>
    void
    takeConsumers(size_t producer, Fn &&fn)
    {
        uint64_t *bits = &consumerBits_[(producer & robMask_) * bitWords_];
        for (size_t w = 0; w < bitWords_; ++w) {
            for (uint64_t word = std::exchange(bits[w], 0); word != 0;
                 word &= word - 1) {
                fn(robSlots_[w * 64 + std::countr_zero(word)]);
            }
        }
    }

    /** Slot bitmaps: one bit per ring slot, 64 to a word. */
    static void
    setSlot(uint64_t *bits, size_t slot)
    {
        bits[slot >> 6] |= uint64_t{1} << (slot & 63);
    }

    static void
    clearSlot(uint64_t *bits, size_t slot)
    {
        bits[slot >> 6] &= ~(uint64_t{1} << (slot & 63));
    }

    /** Withdraw a scheduled, unissued @p entry (CfpCore slices it out). */
    void unschedule(const Entry &entry);

    /**
     * Move entries whose operand-ready cycle has come into the ready
     * bitmap. Runs first thing every cycle, so within a cycle every
     * pending entry is ready at a later cycle.
     */
    void promoteDue();

    /**
     * Oldest ready entry with trace index >= @p from whose FU class
     * still has an issue slot this cycle (slots_), or fetchIdx_.
     */
    size_t nextIssuable(size_t from) const;

    /**
     * Earliest future cycle at which the loop can do any work, given that
     * the current cycle did none (kCycleNever if no time-driven bound
     * exists). OooCore's bounds cover commit, issue and dispatch.
     */
    virtual Cycle nextEventCycle() const;

    /** End the cycle: step one cycle, or fast-forward if it was idle. */
    void advanceClock(bool active);

    /** Issue one ready entry: FU access, memory access, branch resolve. */
    void executeEntry(const Trace &trace, Entry *entry);

    /** Per-run reset of the window state. */
    void resetWindow(size_t trace_size);

    OooParams ooo_;

    /** doneAt_[i]: when trace instruction i's result is available. */
    std::vector<Cycle> doneAt_;
    /** lastWriter_[r]: trace index of the youngest dispatched writer. */
    std::array<size_t, kNumRegs> lastWriter_{};
    /** Store addresses of all dispatched, not-yet-committed stores. */
    std::deque<size_t> storeQueue_;

    /**
     * The reorder buffer holds trace instructions [commitIdx_, fetchIdx_)
     * in a ring of power-of-two size; instruction i lives in slot
     * i & robMask_.
     */
    std::vector<Entry> robSlots_;
    size_t robMask_ = 0;
    size_t commitIdx_ = 0; ///< oldest instruction in the window
    size_t fetchIdx_ = 0;  ///< next instruction to dispatch
    size_t bitWords_ = 0; ///< words per slot bitmap
    /** Bit per slot: an unissued, unsliced entry whose operands are ready. */
    std::vector<uint64_t> readyBits_;
    /** Bit per slot: the entry uses an integer-ALU issue slot. */
    std::vector<uint64_t> intAluBits_;
    /** Bit per slot: the entry uses the shared fp/mem/branch slot. */
    std::vector<uint64_t> sharedBits_;
    /** Per producer slot, a bitmap of the consumer slots linked to it. */
    std::vector<uint64_t> consumerBits_;

    /** Timing-wheel span; an entry ready sooner waits in the wheel. */
    static constexpr Cycle kWheelCycles = 64; // one wheelBusy_ bit each
    /** Bucket c % kWheelCycles: slot bitmap of entries ready at cycle c. */
    std::vector<uint64_t> wheel_;
    uint64_t wheelBusy_ = 0; ///< bit b: bucket b may be non-empty
    Cycle promotedTo_ = 0;   ///< buckets through this cycle are promoted
    /** Min-heap of (operand-ready cycle, trace index) beyond the wheel. */
    std::vector<std::pair<Cycle, size_t>> farReady_;

    /** Post-commit store buffer (drains lines; forwards to loads). */
    SimpleStoreBuffer postCommitSb_;
    unsigned iqUsed_ = 0;
    unsigned lqUsed_ = 0;
    unsigned sqUsed_ = 0;
    unsigned peakRob_ = 0;
    bool fetchStalled_ = false; ///< mispredicted branch in flight
    /**
     * Hang guard: a correct model commits at least one instruction every
     * few hundred cycles on any workload, so a wrong wakeup fails loudly
     * here instead of spinning.
     */
    Cycle cycleLimit_ = 0;
};

} // namespace icfp

#endif // ICFP_OOO_OOO_CORE_HH
