#include "service/result_cache.hh"

#include "common/logging.hh"
#include "common/metrics.hh"
#include "sim/merge.hh"
#include "sim/version_info.hh"

namespace icfp {
namespace service {

namespace {

/** Registry mirror of stats_ (the scrape surface; stats_ stays the
 *  per-cache accessor). */
void
countCacheEvent(const char *name, uint64_t n = 1)
{
    metrics::counter(std::string("icfp_result_cache_") + name).inc(n);
}

/** The disk tier's file name for @p key: `<key-hex>.res`. */
std::string
diskName(uint64_t key)
{
    return fingerprintHex(key) + ".res";
}

} // namespace

const char *
cacheTierName(CacheTier tier)
{
    switch (tier) {
      case CacheTier::None: return "none";
      case CacheTier::Memory: return "memory";
      case CacheTier::Disk: return "disk";
    }
    return "?";
}

uint64_t
resultCacheKey(const std::vector<SweepJob> &grid, uint64_t insts,
               std::optional<uint64_t> seed, const std::string &suite,
               const std::string &format, uint64_t registry_fp,
               const std::string &shard_identity)
{
    // gridFingerprint already covers benches, variant labels, cores,
    // insts, seed, sim-semantics + trace-gen versions, and the report
    // schema; the extra identity adds what a *service* request also
    // varies on (suite namespace, output format, shard slice) and the
    // registry fingerprint (per-bench defVersions, registry contents).
    std::string extra = "suite=" + suite + " format=" + format +
                        " rfp=" + fingerprintHex(registry_fp);
    if (!shard_identity.empty())
        extra += " " + shard_identity;
    return gridFingerprint(grid, insts, seed, extra);
}

ResultCache::ResultCache(uint64_t max_bytes, std::string dir)
    : max_bytes_(max_bytes)
{
    if (dir.empty())
        return;
    disk_.emplace(std::move(dir), "ICFPRES1", ".res", "result_cache",
                  max_bytes);
    if (disk_->createError()) {
        ICFP_WARN("result cache: cannot create %s: %s — disk tier off",
                  disk_->dir().c_str(),
                  disk_->createError().message().c_str());
        disk_.reset();
    }
}

std::optional<std::string>
ResultCache::lookup(uint64_t key, CacheTier *tier)
{
    if (tier)
        *tier = CacheTier::None;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second); // refresh: now newest
        ++stats_.hits;
        countCacheEvent("hits");
        if (tier)
            *tier = CacheTier::Memory;
        return it->second->artifact;
    }

    if (disk_) {
        const CacheDir::Loaded file =
            disk_->load(diskName(key), u64Bytes(key));
        if (file.status == CacheDir::Loaded::Hit) {
            std::string artifact(file.payload);
            // Promote to the memory tier so the next repeat skips the
            // disk read and checksum.
            admitLocked(key, artifact);
            ++stats_.hits;
            ++stats_.diskHits;
            countCacheEvent("hits");
            countCacheEvent("disk_hits");
            if (tier)
                *tier = CacheTier::Disk;
            return artifact;
        }
        if (file.status == CacheDir::Loaded::Corrupt) {
            ++stats_.diskCorrupt;
            countCacheEvent("disk_corrupt");
            ICFP_WARN("result cache: corrupt entry %s removed, will "
                      "recompute",
                      disk_->path(diskName(key)).c_str());
        }
    }

    ++stats_.misses;
    countCacheEvent("misses");
    return std::nullopt;
}

void
ResultCache::insert(uint64_t key, std::string artifact)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
        bytes_ -= it->second->artifact.size();
        bytes_ += artifact.size();
        it->second->artifact = std::move(artifact);
        lru_.splice(lru_.begin(), lru_, it->second);
        diskInsertLocked(key, lru_.front().artifact);
        return;
    }
    if (!admitLocked(key, std::move(artifact)))
        return;
    ++stats_.insertions;
    countCacheEvent("insertions");
    diskInsertLocked(key, lru_.front().artifact);
}

bool
ResultCache::admitLocked(uint64_t key, std::string artifact)
{
    if (max_bytes_ > 0 && artifact.size() > max_bytes_)
        return false; // would evict everything else and still not fit
    bytes_ += artifact.size();
    lru_.push_front({key, std::move(artifact)});
    index_[key] = lru_.begin();
    while (max_bytes_ > 0 && bytes_ > max_bytes_ && lru_.size() > 1) {
        const Entry &victim = lru_.back();
        bytes_ -= victim.artifact.size();
        index_.erase(victim.key);
        lru_.pop_back();
        ++stats_.evictions;
        countCacheEvent("evictions");
    }
    return true;
}

void
ResultCache::diskInsertLocked(uint64_t key, const std::string &artifact)
{
    if (!disk_)
        return;
    // A failed disk write degrades to memory-only (the cache is an
    // optimization — the daemon keeps answering correctly).
    std::string err;
    const std::optional<uint64_t> evicted = disk_->publish(
        diskName(key), u64Bytes(key),
        [&](std::string &out) { out += artifact; }, &err);
    if (!evicted) {
        ++stats_.diskWriteFailures;
        countCacheEvent("disk_write_failures");
        ICFP_WARN("result cache: %s — entry kept in memory only",
                  err.c_str());
        return;
    }
    if (*evicted) {
        stats_.diskEvictions += *evicted;
        countCacheEvent("disk_evictions", *evicted);
    }
}

ResultCache::Stats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

uint64_t
ResultCache::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

size_t
ResultCache::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

} // namespace service
} // namespace icfp
