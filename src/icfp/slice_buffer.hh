/**
 * @file
 * The slice buffer (Sections 3, 3.1, 3.4).
 *
 * Miss-dependent instructions drain here in program order along with their
 * miss-independent side inputs. Rally passes walk the buffer from the
 * head; processed entries are marked un-poisoned in place (never dequeued
 * and re-enqueued, which would break program order under multithreaded
 * advance/rally), and entries whose inputs are still unavailable are
 * simply "re-poisoned" in their existing slots. Space is reclaimed only
 * from the head, so successive passes make the buffer increasingly sparse
 * — banking makes skipping un-poisoned entries cheap (modeled as a
 * skip-bandwidth parameter in the core). The poison masks live in their
 * own dense array beside the entries, so that skip reads one cache line.
 *
 * Producer linking: push() resolves each uncaptured source's producer
 * sequence number to the producer's absolute buffer index once, stores it
 * in the consumer, and bumps the producer's consumer count. A rally then
 * reads a producer's poison by index, and a producer's delivery stops as
 * soon as it has filled every consumer it counted. The index stays valid
 * for as long as it is read: a producer with an undelivered consumer is
 * still active (resolve() refuses it), so neither head reclaim nor the
 * clear() that follows a full drain can pass it.
 */

#ifndef ICFP_ICFP_SLICE_BUFFER_HH
#define ICFP_ICFP_SLICE_BUFFER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bpred/branch_unit.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "core/register_file.hh" // PoisonMask
#include "isa/interpreter.hh"    // DynInst

namespace icfp {

/**
 * One deferred miss-dependent instruction and its captured side inputs.
 * What a re-poisoning rally visit reads comes first, within 64 bytes.
 */
struct SliceEntry
{
    SeqNum seq = 0; ///< program-order sequence, also the trace index
    // Cached from the trace, so a rally can re-poison without reading it.
    Opcode op = Opcode::Nop;
    RegId dst = kNoReg;

    // Operand capture: a captured source was miss-independent when the
    // entry was inserted (or was delivered by its producer's rally
    // resolution) and its value travels with the entry; an uncaptured
    // source is produced by an older, still-deferred slice instruction —
    // identified by its last-writer sequence number — and is delivered
    // through the scratch register file / bypass network the moment that
    // producer resolves. A delivered value only becomes *usable* at its
    // readyAt cycle (the producer's completion time on the bypass).
    bool src1Captured = false;
    bool src2Captured = false;

    // Set by SliceBuffer::push, never by the core.
    uint32_t src1Link = 0;  ///< buffer index of an uncaptured src1's producer
    uint32_t src2Link = 0;  ///< buffer index of an uncaptured src2's producer
    uint32_t consumers = 0; ///< younger uncaptured sources naming this entry

    SeqNum src1Producer = 0;  ///< producer seq of an uncaptured src1
    SeqNum src2Producer = 0;  ///< producer seq of an uncaptured src2
    Cycle src1ReadyAt = 0;    ///< when a delivered src1 value is usable
    Cycle src2ReadyAt = 0;    ///< when a delivered src2 value is usable
    Ssn storeSsn = 0;         ///< for stores: the SB entry to resolve

    RegVal src1Val = 0;
    RegVal src2Val = 0;
    BranchPrediction pred{};  ///< for control: fetch-time prediction

    /** An entry deferring trace instruction @p seq, sources uncaptured. */
    static SliceEntry
    of(const DynInst &di, SeqNum seq)
    {
        SliceEntry entry;
        entry.seq = seq;
        entry.op = di.op;
        entry.dst = di.dst;
        return entry;
    }

    bool hasDst() const { return dst != kNoReg && dst != 0; }
    bool isStore() const { return op == Opcode::St; }
};

static_assert(offsetof(SliceEntry, src1Val) == 64,
              "what a re-poisoning rally visit reads stays in 64 bytes");

/** Program-ordered buffer of deferred slices. */
class SliceBuffer
{
  public:
    explicit SliceBuffer(unsigned capacity) : capacity_(capacity) {}

    /** Un-reclaimed entries (active or awaiting head reclaim). */
    size_t occupancy() const { return entries_.size() - head_; }
    bool full() const { return occupancy() >= capacity_; }
    size_t activeCount() const { return active_; }
    bool noneActive() const { return active_ == 0; }

    /**
     * Append a new entry in program order, waiting on @p poison, and link
     * each uncaptured source to its producer.
     * @pre !full(), @p poison != 0, and every uncaptured source names a
     *      buffered, still-active entry
     */
    SliceEntry &
    push(SliceEntry entry, PoisonMask poison)
    {
        ICFP_ASSERT(!full());
        ICFP_ASSERT(poison != 0);
        entry.consumers = 0;
        if (!entry.src1Captured)
            entry.src1Link = link(entry.src1Producer);
        if (!entry.src2Captured)
            entry.src2Link = link(entry.src2Producer);
        entries_.push_back(entry);
        poison_.push_back(poison);
        ++active_;
        return entries_.back();
    }

    /**
     * Mark the entry at absolute index @p idx resolved (un-poisoned).
     * @pre both sources captured and every consumer delivered to
     */
    void
    resolve(size_t idx)
    {
        const SliceEntry &entry = at(idx);
        ICFP_ASSERT(poison_[idx] != 0);
        ICFP_ASSERT(entry.src1Captured && entry.src2Captured);
        ICFP_ASSERT(entry.consumers == 0);
        poison_[idx] = 0;
        --active_;
        reclaimHead();
    }

    /** Poison bits the entry at @p idx waits on; 0 once resolved. */
    PoisonMask
    poison(size_t idx) const
    {
        ICFP_ASSERT(idx >= head_ && idx < entries_.size());
        return poison_[idx];
    }
    bool active(size_t idx) const { return poison(idx) != 0; }

    /**
     * Banked skip: from absolute index @p pos, pass over at most
     * @p budget entries whose poison misses @p bits (resolved entries
     * always do). Returns where the skip stopped: at a matching entry, at
     * the end of the buffer, or with the budget spent.
     */
    size_t
    skipUnwanted(size_t pos, PoisonMask bits, size_t budget) const
    {
        ICFP_ASSERT(pos >= head_);
        const size_t stop = std::min(entries_.size(), pos + budget);
        while (pos < stop && (poison_[pos] & bits) == 0)
            ++pos;
        return pos;
    }

    /** Re-poison the still-active entry at @p idx in place. */
    void
    rePoison(size_t idx, PoisonMask bits)
    {
        ICFP_ASSERT(active(idx) && bits != 0);
        poison_[idx] = bits;
    }

    /**
     * Poison of the producer an uncaptured source links to (never 0: a
     * linked producer is active until it delivers).
     *
     * @param link the consumer's srcNLink
     * @param seq  the consumer's srcNProducer, checked against the link
     */
    PoisonMask
    producerPoison(uint32_t link, SeqNum seq) const
    {
        ICFP_ASSERT(link >= head_ && link < entries_.size());
        ICFP_ASSERT(poison_[link] != 0 && entries_[link].seq == seq);
        return poison_[link];
    }

    /** First un-reclaimed absolute index (pass start position). */
    size_t headIndex() const { return head_; }
    /** One past the last entry. */
    size_t endIndex() const { return entries_.size(); }

    SliceEntry &at(size_t idx)
    {
        ICFP_ASSERT(idx >= head_ && idx < entries_.size());
        return entries_[idx];
    }
    const SliceEntry &at(size_t idx) const
    {
        ICFP_ASSERT(idx >= head_ && idx < entries_.size());
        return entries_[idx];
    }

    /**
     * Sequence number of the oldest still-active entry; ~0 when none.
     * Store-buffer drain is gated on this (no store may write the cache
     * while an older instruction is still deferred).
     */
    SeqNum
    oldestActiveSeq() const
    {
        for (size_t i = head_; i < entries_.size(); ++i) {
            if (poison_[i] != 0)
                return entries_[i].seq;
        }
        return ~SeqNum{0};
    }

    /**
     * Find the (still-buffered) entry with sequence number @p seq by
     * binary search — entries are pushed in program order. Returns nullptr
     * if no such un-reclaimed entry exists.
     */
    SliceEntry *
    findBySeq(SeqNum seq)
    {
        size_t lo = head_, hi = entries_.size();
        while (lo < hi) {
            const size_t mid = lo + (hi - lo) / 2;
            if (entries_[mid].seq < seq)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo < entries_.size() && entries_[lo].seq == seq)
            return &entries_[lo];
        return nullptr;
    }

    /**
     * Bypass delivery: broadcast the result of the producer at absolute
     * index @p pos into every younger entry whose uncaptured source links
     * to it, capturing the value with its readiness cycle. Consumers are
     * younger and counted at push(), so the walk starts just past @p pos
     * and stops once the count is spent, not at the end of the buffer.
     * The one delivery protocol shared by every core that re-executes
     * slices (iCFP's non-blocking rallies, SLTP's blocking rally).
     */
    void
    deliverFrom(size_t pos, RegVal value, Cycle ready_at)
    {
        SliceEntry &producer = at(pos);
        for (size_t i = pos + 1; producer.consumers != 0; ++i) {
            ICFP_ASSERT(i < entries_.size());
            SliceEntry &consumer = entries_[i];
            if (!consumer.src1Captured && consumer.src1Link == pos) {
                consumer.src1Val = value;
                consumer.src1ReadyAt = ready_at;
                consumer.src1Captured = true;
                --producer.consumers;
            }
            if (!consumer.src2Captured && consumer.src2Link == pos) {
                consumer.src2Val = value;
                consumer.src2ReadyAt = ready_at;
                consumer.src2Captured = true;
                --producer.consumers;
            }
        }
    }

    /** Drop everything (squash / epoch end). */
    void
    clear()
    {
        entries_.clear();
        poison_.clear();
        head_ = 0;
        active_ = 0;
    }

  private:
    /** Index of the active producer @p seq, whose consumer count grows. */
    uint32_t
    link(SeqNum seq)
    {
        SliceEntry *producer = findBySeq(seq);
        ICFP_ASSERT(producer != nullptr);
        const size_t idx = static_cast<size_t>(producer - entries_.data());
        ICFP_ASSERT(poison_[idx] != 0);
        ++producer->consumers;
        return static_cast<uint32_t>(idx);
    }

    /** Free leading inactive entries. */
    void
    reclaimHead()
    {
        while (head_ < entries_.size() && poison_[head_] == 0)
            ++head_;
        if (head_ == entries_.size())
            clear();
    }

    std::vector<SliceEntry> entries_;
    std::vector<PoisonMask> poison_; ///< per entry; 0 = resolved
    size_t head_ = 0;
    size_t active_ = 0;
    unsigned capacity_;
};

} // namespace icfp

#endif // ICFP_ICFP_SLICE_BUFFER_HH
