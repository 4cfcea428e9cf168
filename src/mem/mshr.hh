/**
 * @file
 * Miss status holding register file.
 *
 * Tracks in-flight line fills so that secondary misses to an in-flight
 * line merge instead of issuing duplicate memory requests, and bounds the
 * number of simultaneously outstanding misses (Table 1: 64).
 *
 * iCFP's poison-bitvector optimization (Section 3.4) allocates poison bits
 * per MSHR: the MshrFile therefore hands out a small round-robin bit index
 * with each allocation.
 */

#ifndef ICFP_MEM_MSHR_HH
#define ICFP_MEM_MSHR_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace icfp {

/** Outcome of an MSHR lookup/allocate. */
struct MshrResult
{
    bool merged = false;   ///< an in-flight fill for this line existed
    bool allocated = false;///< a new MSHR was taken
    bool full = false;     ///< no MSHR free; caller must retry later
    Cycle fillAt = 0;      ///< when the line's data arrives (if not full)
    unsigned poisonBit = 0;///< round-robin poison bit id for this MSHR
};

/**
 * Bounded file of in-flight line fills, keyed by line address.
 *
 * Stored as a flat array: the file is at most 64 entries (Table 1) and
 * is consulted on every memory access — sometimes repeatedly while a
 * core waits for a free entry — so cache-resident linear scans beat the
 * former hash map, whose full-map retirement walk on every call was a
 * dominant cost on MSHR-saturating benchmarks (art).
 */
class MshrFile
{
  public:
    /**
     * @param num_entries outstanding-miss bound
     * @param poison_bits how many poison-vector bits to rotate across
     */
    MshrFile(unsigned num_entries, unsigned poison_bits)
        : numEntries_(num_entries), poisonBits_(poison_bits)
    {
        inflight_.reserve(num_entries);
    }

    /** Is a fill of @p line_addr already in flight at @p now? */
    bool
    lookup(Addr line_addr, Cycle now, MshrResult *out) const
    {
        retireBefore(now);
        for (const Entry &entry : inflight_) {
            if (entry.line == line_addr) {
                out->merged = true;
                out->fillAt = entry.fillAt;
                out->poisonBit = entry.poisonBit;
                return true;
            }
        }
        return false;
    }

    /**
     * Allocate an MSHR for @p line_addr completing at @p fill_at.
     * @pre no in-flight entry for the line (check lookup() first).
     */
    MshrResult
    allocate(Addr line_addr, Cycle now, Cycle fill_at)
    {
        retireBefore(now);
        MshrResult result;
        if (inflight_.size() >= numEntries_) {
            result.full = true;
            return result;
        }
        Entry entry;
        entry.line = line_addr;
        entry.fillAt = fill_at;
        entry.poisonBit = nextPoisonBit_;
        nextPoisonBit_ = (nextPoisonBit_ + 1) % poisonBits_;
        inflight_.push_back(entry);
        earliest_ = std::min(earliest_, fill_at);
        result.allocated = true;
        result.fillAt = fill_at;
        result.poisonBit = entry.poisonBit;
        return result;
    }

    /** Earliest in-flight completion, or kCycleNever if none. */
    Cycle earliestFill() const { return earliest_; }

    size_t outstanding(Cycle now) const
    {
        retireBefore(now);
        return inflight_.size();
    }

    void
    clear()
    {
        inflight_.clear();
        earliest_ = kCycleNever;
    }

  private:
    struct Entry
    {
        Addr line = 0;
        Cycle fillAt = 0;
        unsigned poisonBit = 0;
    };

    /** Drop entries whose fills have completed (order-free swap-pop;
     *  entry order never affects results — lines are unique and every
     *  query is a find/min/count). Nothing can retire before the
     *  earliest fill, so until then this returns without a scan. */
    void
    retireBefore(Cycle now) const
    {
        if (now < earliest_)
            return;
        Cycle earliest = kCycleNever;
        for (size_t i = 0; i < inflight_.size();) {
            if (inflight_[i].fillAt <= now) {
                inflight_[i] = inflight_.back();
                inflight_.pop_back();
            } else {
                earliest = std::min(earliest, inflight_[i].fillAt);
                ++i;
            }
        }
        earliest_ = earliest;
    }

    mutable std::vector<Entry> inflight_;
    /** Smallest fillAt in inflight_, or kCycleNever when it is empty. */
    mutable Cycle earliest_ = kCycleNever;
    unsigned numEntries_;
    unsigned poisonBits_;
    unsigned nextPoisonBit_ = 0;
};

} // namespace icfp

#endif // ICFP_MEM_MSHR_HH
