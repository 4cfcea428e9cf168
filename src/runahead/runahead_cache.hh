/**
 * @file
 * The Runahead cache (Mutlu et al., HPCA 2003; Figure 2b of the paper):
 * a small, lossy structure that forwards advance-store values to advance
 * loads during runahead episodes. Entries may be evicted at any time
 * (forwarding is best-effort — acceptable because Runahead re-executes
 * everything anyway), and the whole structure is cleared when the episode
 * ends.
 */

#ifndef ICFP_RUNAHEAD_RUNAHEAD_CACHE_HH
#define ICFP_RUNAHEAD_RUNAHEAD_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/register_file.hh" // PoisonMask

namespace icfp {

/** Result of a Runahead-cache probe. */
struct RunaheadCacheResult
{
    bool hit = false;
    bool poisoned = false;
};

/**
 * Direct-mapped, word-granular, lossy forwarding cache. Replays take
 * values from the golden trace, so an entry keeps only whether the
 * store's data was poisoned.
 */
class RunaheadCache
{
  public:
    /** @param entries power of two */
    explicit RunaheadCache(unsigned entries = 256);

    /** Record an advance store to @p addr, its data @p poisoned or not. */
    void write(Addr addr, bool poisoned);

    /** Probe for a recorded store to @p addr. */
    RunaheadCacheResult read(Addr addr) const;

    /** Drop everything (episode end). */
    void clear();

  private:
    struct Entry
    {
        Addr addr = 0;
        bool poisoned = false;
        bool valid = false;
    };

    unsigned indexOf(Addr addr) const;

    std::vector<Entry> entries_;
    unsigned mask_;
};

} // namespace icfp

#endif // ICFP_RUNAHEAD_RUNAHEAD_CACHE_HH
