#include "runahead/runahead_cache.hh"

#include <bit>

#include "common/logging.hh"

namespace icfp {

RunaheadCache::RunaheadCache(unsigned entries)
    : entries_(entries),
      mask_(entries - 1)
{
    ICFP_ASSERT(std::has_single_bit(entries));
}

unsigned
RunaheadCache::indexOf(Addr addr) const
{
    const Addr word = addr / kWordBytes;
    return static_cast<unsigned>((word ^ (word >> 8)) & mask_);
}

void
RunaheadCache::write(Addr addr, bool poisoned)
{
    Entry &entry = entries_[indexOf(addr)];
    entry.addr = addr;
    entry.poisoned = poisoned;
    entry.valid = true;
}

RunaheadCacheResult
RunaheadCache::read(Addr addr) const
{
    RunaheadCacheResult result;
    const Entry &entry = entries_[indexOf(addr)];
    if (entry.valid && entry.addr == addr) {
        result.hit = true;
        result.poisoned = entry.poisoned;
    }
    return result;
}

void
RunaheadCache::clear()
{
    for (Entry &entry : entries_)
        entry.valid = false;
}

} // namespace icfp
