/**
 * @file
 * The chained store buffer and chain table of Section 3.2.
 *
 * iCFP buffers every advance store in a large indexed store buffer that
 * forwards WITHOUT associative search, via "address-hash chaining": a
 * small address-indexed chain table maps a hash of the address to the SSN
 * (store sequence number [Roth, ISCA 2005]) of the youngest store with
 * that hash; each store buffer entry holds an SSNlink to the next-youngest
 * store with the same hash. SSNs at or below SSNcomplete name stores that
 * have already written the cache and terminate chains like null pointers.
 *
 * Loads walk the chain for their address hash, skipping stores younger
 * than themselves (so rally loads naturally ignore tail stores), and
 * forward from the first matching older store; a poisoned match propagates
 * poison to the load. The first access is free — it proceeds in parallel
 * with the data cache — so only chain hops beyond the first add latency.
 *
 * Three access modes reproduce Figure 8:
 *  - Chained        : the iCFP design described above;
 *  - FullyAssoc     : idealized single-cycle associative search;
 *  - IndexedLimited : the SRL/LCF-style scheme — if the chain-table root
 *                     store doesn't match the load's address, the pipeline
 *                     stalls until that store drains.
 */

#ifndef ICFP_ICFP_CHAINED_STORE_BUFFER_HH
#define ICFP_ICFP_CHAINED_STORE_BUFFER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/register_file.hh" // PoisonMask

namespace icfp {

/** Figure 8 store-buffer design alternatives. */
enum class SbMode : uint8_t {
    Chained,        ///< address-hash chaining (iCFP)
    FullyAssoc,     ///< idealized fully-associative search
    IndexedLimited, ///< indexed with limited forwarding (SRL/LCF analog)
};

/** Configuration. */
struct ChainedSbParams
{
    unsigned entries = 128;          ///< Table 1; a power of two
    unsigned chainTableEntries = 512;///< Table 1: 512-entry chain table
    SbMode mode = SbMode::Chained;
    unsigned maxDrainMisses = 8;     ///< outstanding drained store misses
};

/** Result of a forwarding lookup. */
struct SbLookupResult
{
    bool found = false;       ///< a matching older store exists in the SB
    bool poisoned = false;    ///< ...but its data is poisoned
    RegVal value = 0;         ///< forwarded value (found && !poisoned)
    PoisonMask poison = 0;    ///< poison bits of the matching store
    unsigned excessHops = 0;  ///< chain hops beyond the free first access
    bool mustStall = false;   ///< IndexedLimited: hash conflict, stall
    Ssn stallSsn = 0;         ///< ...until this SSN drains
};

/** One buffered store, exposed for rally updates and inspection. */
struct SbEntry
{
    Ssn ssn = 0;
    Addr addr = 0;
    RegVal value = 0;
    PoisonMask poison = 0;
    Ssn ssnLink = 0;    ///< next-youngest store with the same address hash
    SeqNum seq = 0;     ///< global program-order sequence of the store
    bool valid = false;
};

/** Store buffer statistics (Section 3.2 / Figure 8 claims). */
struct SbStats
{
    uint64_t lookups = 0;
    uint64_t forwards = 0;
    uint64_t excessHops = 0;
    uint64_t drains = 0;
    uint64_t stallLookups = 0; ///< IndexedLimited stalls
};

/** The chained store buffer. */
class ChainedStoreBuffer
{
  public:
    explicit ChainedStoreBuffer(const ChainedSbParams &params);

    bool full() const { return occupancy() >= params_.entries; }
    /** Live entries: SSNs in (ssnComplete, ssnTail). */
    unsigned occupancy() const
    {
        return static_cast<unsigned>(ssnTail_ - 1 - ssnComplete_);
    }
    bool empty() const { return occupancy() == 0; }

    Ssn ssnTail() const { return ssnTail_; }
    Ssn ssnComplete() const { return ssnComplete_; }

    /**
     * Allocate a store buffer entry in program order and chain it.
     * @pre !full(); the address must be known (poisoned-address stores
     * never enter the buffer — the pipeline stalls instead, Section 3.2).
     *
     * @param poison data poison bits (0 for a miss-independent store)
     * @return the store's SSN
     */
    Ssn allocate(Addr addr, RegVal value, PoisonMask poison, SeqNum seq);

    /**
     * Forwarding lookup for a load at sequence @p load_seq: find the
     * youngest store with @p addr strictly older than the load.
     */
    SbLookupResult lookup(Addr addr, SeqNum load_seq, SbStats *stats) const;

    /** Rally resolution of a poisoned-data store. */
    void resolve(Ssn ssn, RegVal value);

    /** Re-poisoning of a still-deferred store (its data source moved to a
     *  different pending miss); keeps forwarding poison current. */
    void updatePoison(Ssn ssn, PoisonMask poison);

    /** Entry access (tests / rally bookkeeping). */
    const SbEntry &entry(Ssn ssn) const;

    /**
     * Drain at most one head store per call (one per cycle): the head may
     * drain once its data is resolved and every older instruction has
     * completed (@p oldest_active_seq is the sequence of the oldest
     * still-active slice entry, or kCycleNever when none).
     *
     * @return true if a store drained; the out-params describe it
     */
    bool drainHead(SeqNum oldest_active_seq, Addr *addr_out,
                   RegVal *value_out);

    /**
     * Squash: discard all entries with SSN >= @p ssn_tail_snapshot and
     * rebuild the chain table from the survivors. (Hardware restores the
     * chain table from the checkpoint's shadow bits; the rebuild here is
     * functionally identical.)
     */
    void squashTo(Ssn ssn_tail_snapshot);

    const SbStats &stats() const { return stats_; }

  private:
    unsigned indexOf(Ssn ssn) const
    {
        return static_cast<unsigned>(ssn & (params_.entries - 1));
    }
    unsigned hashOf(Addr addr) const
    {
        // Word-granular address hash into the chain table.
        const Addr word = addr / kWordBytes;
        return static_cast<unsigned>(
            (word ^ (word >> chainBitsLog2_)) & (chainTable_.size() - 1));
    }

    SbLookupResult lookupAssociative(Addr addr, SeqNum load_seq) const;

    ChainedSbParams params_;
    std::vector<SbEntry> buffer_;
    std::vector<Ssn> chainTable_; ///< hash -> youngest SSN with that hash
    unsigned chainBitsLog2_;
    Ssn ssnTail_ = 1;      ///< next SSN to assign (SSN 0 is the null link)
    Ssn ssnComplete_ = 0;  ///< youngest SSN already written to the cache
    mutable SbStats stats_;
};

} // namespace icfp

#endif // ICFP_ICFP_CHAINED_STORE_BUFFER_HH
