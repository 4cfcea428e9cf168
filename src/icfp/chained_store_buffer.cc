#include "icfp/chained_store_buffer.hh"

#include <bit>

#include "common/logging.hh"

namespace icfp {

ChainedStoreBuffer::ChainedStoreBuffer(const ChainedSbParams &params)
    : params_(params),
      buffer_(params.entries),
      chainTable_(params.chainTableEntries, 0)
{
    ICFP_ASSERT(std::has_single_bit(params.chainTableEntries));
    ICFP_ASSERT(std::has_single_bit(params.entries));
    chainBitsLog2_ =
        static_cast<unsigned>(std::countr_zero(params.chainTableEntries));
}

Ssn
ChainedStoreBuffer::allocate(Addr addr, RegVal value, PoisonMask poison,
                             SeqNum seq)
{
    ICFP_ASSERT(!full());
    const Ssn ssn = ssnTail_++;
    SbEntry &entry = buffer_[indexOf(ssn)];
    entry.ssn = ssn;
    entry.addr = addr;
    entry.value = value;
    entry.poison = poison;
    entry.seq = seq;
    entry.valid = true;

    const unsigned hash = hashOf(addr);
    entry.ssnLink = chainTable_[hash];
    chainTable_[hash] = ssn;
    return ssn;
}

SbLookupResult
ChainedStoreBuffer::lookupAssociative(Addr addr, SeqNum load_seq) const
{
    // Idealized search: youngest older matching store, zero extra hops.
    SbLookupResult result;
    for (Ssn ssn = ssnTail_ - 1; ssn > ssnComplete_; --ssn) {
        const SbEntry &entry = buffer_[indexOf(ssn)];
        if (!entry.valid || entry.seq >= load_seq)
            continue;
        if (entry.addr == addr) {
            result.found = true;
            result.poisoned = entry.poison != 0;
            result.poison = entry.poison;
            result.value = entry.value;
            return result;
        }
    }
    return result;
}

SbLookupResult
ChainedStoreBuffer::lookup(Addr addr, SeqNum load_seq, SbStats *stats) const
{
    SbStats &st = stats ? *stats : stats_;
    ++st.lookups;

    if (params_.mode == SbMode::FullyAssoc) {
        SbLookupResult result = lookupAssociative(addr, load_seq);
        if (result.found)
            ++st.forwards;
        return result;
    }

    SbLookupResult result;
    const unsigned hash = hashOf(addr);
    Ssn ssn = chainTable_[hash];
    unsigned hops = 0;

    while (ssn > ssnComplete_) {
        const SbEntry &entry = buffer_[indexOf(ssn)];
        // The slot cannot have been recycled: SSNs above ssnComplete_ are
        // live and the buffer holds at most `entries` of them.
        ICFP_ASSERT(entry.valid && entry.ssn == ssn);
        ++hops;
        if (entry.seq < load_seq) {
            if (entry.addr == addr) {
                result.found = true;
                result.poisoned = entry.poison != 0;
                result.poison = entry.poison;
                result.value = entry.value;
                break;
            }
            if (params_.mode == SbMode::IndexedLimited) {
                // Limited forwarding: a hash hit on a non-matching store
                // cannot be disambiguated; the pipeline must stall until
                // that store drains (the out-of-order CFP SRL/LCF analog).
                result.mustStall = true;
                result.stallSsn = ssn;
                ++st.stallLookups;
                return result;
            }
        }
        ssn = entry.ssnLink;
    }

    // The first store-buffer access is performed in parallel with the data
    // cache access and is free; only additional hops add latency.
    if (hops > 1)
        result.excessHops = hops - 1;
    st.excessHops += result.excessHops;
    if (result.found)
        ++st.forwards;
    return result;
}

void
ChainedStoreBuffer::resolve(Ssn ssn, RegVal value)
{
    ICFP_ASSERT(ssn > ssnComplete_ && ssn < ssnTail_);
    SbEntry &entry = buffer_[indexOf(ssn)];
    ICFP_ASSERT(entry.valid && entry.ssn == ssn);
    entry.value = value;
    entry.poison = 0;
}

void
ChainedStoreBuffer::updatePoison(Ssn ssn, PoisonMask poison)
{
    ICFP_ASSERT(ssn > ssnComplete_ && ssn < ssnTail_);
    SbEntry &entry = buffer_[indexOf(ssn)];
    ICFP_ASSERT(entry.valid && entry.ssn == ssn);
    entry.poison = poison;
}

const SbEntry &
ChainedStoreBuffer::entry(Ssn ssn) const
{
    const SbEntry &e = buffer_[indexOf(ssn)];
    ICFP_ASSERT(e.valid && e.ssn == ssn);
    return e;
}

bool
ChainedStoreBuffer::drainHead(SeqNum oldest_active_seq, Addr *addr_out,
                              RegVal *value_out)
{
    if (empty())
        return false;
    const Ssn head = ssnComplete_ + 1;
    SbEntry &entry = buffer_[indexOf(head)];
    ICFP_ASSERT(entry.valid && entry.ssn == head);
    if (entry.poison != 0)
        return false; // data unresolved: cannot write the cache yet
    if (entry.seq >= oldest_active_seq)
        return false; // an older instruction is still speculative
    *addr_out = entry.addr;
    *value_out = entry.value;
    entry.valid = false;
    ++ssnComplete_;
    ++stats_.drains;
    return true;
}

void
ChainedStoreBuffer::squashTo(Ssn ssn_tail_snapshot)
{
    ICFP_ASSERT(ssn_tail_snapshot <= ssnTail_);
    ICFP_ASSERT(ssn_tail_snapshot > ssnComplete_);
    for (Ssn ssn = ssn_tail_snapshot; ssn < ssnTail_; ++ssn)
        buffer_[indexOf(ssn)].valid = false;
    ssnTail_ = ssn_tail_snapshot;

    // Rebuild the chain table from surviving entries, oldest to youngest,
    // so each hash bucket ends pointing at its youngest survivor.
    for (auto &root : chainTable_)
        root = 0;
    for (Ssn ssn = ssnComplete_ + 1; ssn < ssnTail_; ++ssn) {
        SbEntry &entry = buffer_[indexOf(ssn)];
        ICFP_ASSERT(entry.valid && entry.ssn == ssn);
        const unsigned hash = hashOf(entry.addr);
        entry.ssnLink = chainTable_[hash];
        chainTable_[hash] = ssn;
    }
}

} // namespace icfp
