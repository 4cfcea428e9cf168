/**
 * @file
 * Crash-durable file publication and the checksummed cache directory
 * built on it, behind the result cache's disk tier
 * (service/result_cache.hh) and the benchmark's trace store
 * (sim/trace_store.hh).
 *
 * An atomic rename alone is not crash safe: after a power loss the
 * rename may survive while the data blocks it points at do not, leaving
 * a correctly-named file full of zeros or garbage. The durable sequence
 * is
 *
 *   write temp -> fsync(temp) -> close -> rename -> fsync(directory)
 *
 * so the bytes are on stable storage before the name appears, and the
 * name itself is on stable storage before we report success.
 *
 * Every step carries a fault point named "<prefix>.<step>" so tests
 * and CI can force the failure modes a healthy machine never shows:
 *
 *   <prefix>.write.short  write() persists only half the bytes and the
 *                         call reports failure (ENOSPC mid-file)
 *   <prefix>.write.torn   write() persists only half the bytes but the
 *                         call reports SUCCESS — an undetected torn
 *                         write, exercising the reader's checksum path
 *   <prefix>.fsync        fsync() reports failure
 *   <prefix>.rename       rename() reports failure
 *
 * On any reported failure the temp file is removed; the destination is
 * either the complete new content or untouched (except under
 * write.torn, which deliberately publishes a truncated file).
 */

#ifndef ICFP_COMMON_DURABLE_FILE_HH
#define ICFP_COMMON_DURABLE_FILE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace icfp {

/**
 * Durably publish @p bytes at @p path via a unique temp file in the
 * same directory. @p fault_prefix names the fault points (above).
 * @return true on success; false with *error filled (if given)
 */
bool writeFileDurable(const std::string &path, const std::string &bytes,
                      const char *fault_prefix, std::string *error = nullptr);

/** 64-bit FNV-1a over @p size bytes (cache files' content hash, and
 *  the fingerprint hash of sim/merge.hh and sim/version_info.hh). */
uint64_t fnv1a64(const void *data, size_t size);

/** @p v as 8 little-endian bytes, the cache header's integer encoding. */
std::string u64Bytes(uint64_t v);

/**
 * A directory of checksummed cache files under a byte cap. Each file is
 *
 *   magic (8) | identity | FNV-1a(payload) (u64) | length (u64) | payload
 *
 * where the identity bytes are the caller's full request key, so a
 * renamed or colliding file can never serve the wrong payload. The
 * policy, the same for every cache that lives in such a directory:
 *  - load() reads a file once and checks magic, identity, length and
 *    hash; a file that fails (truncated, bit-flipped, stale, renamed)
 *    is deleted and reported Corrupt, so corruption costs a recompute,
 *    never correctness. A hit refreshes the file's mtime (LRU touch);
 *  - publish() writes via writeFileDurable, then evicts the oldest
 *    files (by mtime, ties by name) until the directory's files fit the
 *    cap — never the file just published;
 *  - construction reclaims temp files that killed writers left behind
 *    more than 15 minutes ago (they are invisible to the cap).
 * All I/O failures degrade to misses: a cache is an optimization.
 */
class CacheDir
{
  public:
    /** What load() found. */
    struct Loaded
    {
        enum Status { Miss, Corrupt, Hit } status = Miss;
        /** The verified payload (Hit only), a view into file. */
        std::string_view payload;
        std::unique_ptr<char[]> file;
    };

    /** Appends the payload to the entry buffer it is given. */
    using Encoder = std::function<void(std::string &)>;

    /**
     * Create @p dir if absent (see createError()) and reclaim stale
     * temp files. The cache's files are those named "*<suffix>": only
     * they count toward @p max_bytes (0 = unlimited). @p magic is the
     * 8-byte file magic; @p fault_prefix names the publish fault points.
     */
    CacheDir(std::string dir, std::string_view magic, std::string suffix,
             std::string fault_prefix, uint64_t max_bytes);

    /** Why the directory could not be created (empty if it exists). */
    const std::error_code &createError() const { return create_error_; }

    /** Look up file @p name and verify it carries @p identity. */
    Loaded load(const std::string &name, std::string_view identity);

    /**
     * Write file @p name: the header for @p identity, then whatever
     * @p encode appends, with the hash and length filled in; then
     * enforce the cap. @return the number of files evicted, or
     * std::nullopt (with *error filled) if the write failed.
     */
    std::optional<uint64_t> publish(const std::string &name,
                                    std::string_view identity,
                                    const Encoder &encode,
                                    std::string *error);

    /** "<dir>/<name>". */
    std::string path(const std::string &name) const;
    const std::string &dir() const { return dir_; }

  private:
    uint64_t evict(const std::string &keep);

    std::string dir_;
    std::string magic_;
    std::string suffix_;
    std::string fault_prefix_;
    uint64_t max_bytes_;
    std::error_code create_error_;
    std::mutex evict_mutex_; ///< one eviction scan at a time
};

} // namespace icfp

#endif // ICFP_COMMON_DURABLE_FILE_HH
