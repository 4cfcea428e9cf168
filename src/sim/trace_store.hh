/**
 * @file
 * Persistent golden-trace store: a cache directory that maps
 * (bench, insts, seed) to a serialized trace (isa/trace_io), attached
 * to an engine with SweepEngine::setTraceStore.
 *
 * No user path reaches it: it remains only for perfbench's
 * store_nonspec workload, until that workload is retargeted (ROADMAP
 * item 14) and the store can be deleted.
 *
 * The files live in a CacheDir (common/durable_file.hh), which owns the
 * on-disk format, durable publication and verify-or-delete loading;
 * this store adds the trace key (carried in each file's header as its
 * identity) and the trace encoding. Corruption can cost time, never
 * correctness, and every I/O failure degrades to a cache miss with a
 * warning: the store must never take a sweep down.
 */

#ifndef ICFP_SIM_TRACE_STORE_HH
#define ICFP_SIM_TRACE_STORE_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "common/durable_file.hh" // CacheDir, fnv1a64
#include "isa/interpreter.hh"

namespace icfp {

/** The full identity of a cached golden trace. */
struct TraceId
{
    std::string bench;   ///< benchmark analog name
    uint64_t insts = 0;  ///< dynamic instruction budget
    std::optional<uint64_t> seed; ///< workload RNG seed override
    /** The benchmark's workload-definition version
     *  (BenchmarkSpec::defVersion): editing one kernel's generator and
     *  bumping its version invalidates exactly that benchmark's stored
     *  traces, never the whole store. */
    unsigned defVersion = 0;

    /** Canonical key text — (generator versions, bench, insts, seed) —
     *  stored in the file header and compared on load (so a renamed or
     *  colliding file, or one generated by older workload code, can
     *  never serve the wrong trace). */
    std::string keyString() const;

    /** Store file name ("<bench>-i<insts>[-s<seed>].trc", bench
     *  sanitized to [A-Za-z0-9._-]). */
    std::string fileName() const;
};

/** A persistent, integrity-checked trace cache directory. */
class TraceStore
{
  public:
    struct Stats
    {
        uint64_t hits = 0;      ///< load() served from disk
        uint64_t misses = 0;    ///< load() found nothing usable
        uint64_t writes = 0;    ///< store() published a file
        uint64_t corrupt = 0;   ///< bad header/hash detected (and removed)
    };

    /** @param dir cache directory (created if absent) */
    explicit TraceStore(std::string dir);

    /**
     * Look up @p id. Returns the trace on an integrity-verified hit;
     * std::nullopt on a miss or on corruption (the corrupt file is
     * deleted so the regenerated trace can be stored cleanly).
     */
    std::optional<Trace> load(const TraceId &id);

    /**
     * Publish @p trace under @p id (atomic write-then-rename). I/O
     * failure warns and returns.
     */
    void store(const TraceId &id, const Trace &trace);

    Stats stats() const;
    const std::string &dir() const { return cache_.dir(); }

  private:
    CacheDir cache_;
    mutable std::mutex mutex_; ///< guards stats_
    Stats stats_;
};

} // namespace icfp

#endif // ICFP_SIM_TRACE_STORE_HH
