/**
 * @file
 * The service daemon's rendered-result cache: the layer above the
 * persistent trace store (sim/trace_store.hh) that makes a warm daemon
 * answer a repeated sweep with zero trace generations AND zero replays.
 *
 * The trace store memoizes the *input* half of a sweep (golden traces);
 * this cache memoizes the *output* half — the fully rendered CSV/JSON
 * artifact, byte-identical to what a cold `icfp-sim sweep` run would
 * emit, keyed by the complete identity of the request:
 *
 *   resultCacheKey = gridFingerprint(grid, insts, seed, …)   // benches,
 *       variant labels, cores, insts, seed, sim-semantics +  // (merge.hh)
 *       trace-gen versions, report schema
 *     ⊕ suite + output format
 *     ⊕ registryFingerprint()                                // per-bench
 *       // defVersions, core/suite registries, trace-io format
 *       // (sim/version_info.hh)
 *
 * Because every version constant and every benchmark's defVersion is
 * folded in, bumping any of them changes the key and the daemon
 * recomputes instead of serving stale bytes — the same invalidation
 * discipline the trace store applies to traces.
 *
 * Two tiers. The in-memory tier is LRU over a byte cap, thread-safe.
 * The optional disk tier (`--cache-dir`) persists every inserted
 * artifact as `<key-hex>.res` in a CacheDir (common/durable_file.hh),
 * which owns the file format, durable publication, verify-or-delete
 * loading and eviction by mtime — the same policy as the trace store,
 * with the u64 key as each file's header identity. A restarted daemon
 * thus serves warm repeats with `cache=hit generations=0 replays=0`,
 * and an entry that fails its check is deleted and recomputed, never
 * served. The disk tier shares the byte cap with the memory tier.
 */

#ifndef ICFP_SERVICE_RESULT_CACHE_HH
#define ICFP_SERVICE_RESULT_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/durable_file.hh"
#include "sim/sweep.hh"

namespace icfp {
namespace service {

/**
 * The full identity of one rendered sweep artifact. @p registry_fp is a
 * parameter (rather than read from the live registries) so tests can
 * prove that a bumped defVersion or sim version moves the key; callers
 * pass registryFingerprint(). @p shard_identity distinguishes a shard
 * artifact (a federation slice: "#shard"-framed bytes of a grid slice)
 * from the full-grid artifact of the same jobs — pass e.g. "shard=1/3"
 * for slice requests, "" for whole-grid ones. Without it, a shard 1/2
 * submit of {a,b} and a full submit of {a} would expand to the same
 * job list and collide on differently-framed bytes.
 */
uint64_t resultCacheKey(const std::vector<SweepJob> &grid, uint64_t insts,
                        std::optional<uint64_t> seed,
                        const std::string &suite, const std::string &format,
                        uint64_t registry_fp,
                        const std::string &shard_identity = std::string());

/** Which tier answered a lookup (for the caller's trace span). */
enum class CacheTier { None, Memory, Disk };

/** "none" | "memory" | "disk" for @p tier. */
const char *cacheTierName(CacheTier tier);

/**
 * A byte-capped LRU map (result fingerprint → rendered artifact) with
 * an optional crash-safe disk tier.
 */
class ResultCache
{
  public:
    struct Stats
    {
        uint64_t hits = 0;     ///< memory-tier hits
        uint64_t misses = 0;   ///< missed both tiers
        uint64_t insertions = 0;
        uint64_t evictions = 0; ///< memory-tier evictions
        uint64_t diskHits = 0; ///< served from disk (counted in hits too)
        uint64_t diskCorrupt = 0;
        uint64_t diskWriteFailures = 0;
        uint64_t diskEvictions = 0; ///< files removed by the byte cap
    };

    /**
     * @param max_bytes artifact-byte cap (both tiers); 0 = unlimited
     * @param dir disk-tier directory; empty = memory only
     */
    explicit ResultCache(uint64_t max_bytes = 0, std::string dir = "");

    /** The artifact for @p key, refreshing its LRU position. When
     *  @p tier is given it reports which tier answered (None on a
     *  miss) — observability only, never behaviour. */
    std::optional<std::string> lookup(uint64_t key,
                                      CacheTier *tier = nullptr);

    /**
     * Publish @p artifact under @p key, then enforce the byte cap
     * (evicting least-recently-used entries, never the new one). An
     * artifact larger than the whole cap is not stored at all.
     * Re-inserting an existing key refreshes it (the bytes are
     * identical by construction — the key is the full identity).
     * With a disk tier, the entry is also durably persisted; a failed
     * disk write degrades to memory-only with a warning.
     */
    void insert(uint64_t key, std::string artifact);

    Stats stats() const;
    uint64_t bytes() const;
    size_t entries() const;

  private:
    struct Entry
    {
        uint64_t key;
        std::string artifact;
    };

    /** Add a new key to the memory tier as its newest entry, then
     *  evict least-recently-used entries down to the cap. False (and
     *  nothing stored) if @p artifact alone exceeds the cap. */
    bool admitLocked(uint64_t key, std::string artifact);
    void diskInsertLocked(uint64_t key, const std::string &artifact);

    uint64_t max_bytes_;
    std::optional<CacheDir> disk_; ///< empty = no disk tier
    mutable std::mutex mutex_;
    std::list<Entry> lru_; ///< most-recently-used first
    std::map<uint64_t, std::list<Entry>::iterator> index_;
    uint64_t bytes_ = 0;
    Stats stats_;
};

} // namespace service
} // namespace icfp

#endif // ICFP_SERVICE_RESULT_CACHE_HH
