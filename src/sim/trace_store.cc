#include "sim/trace_store.hh"

#include "common/logging.hh"
#include "common/metrics.hh"
#include "isa/trace_io.hh"

namespace icfp {

namespace {

/** Registry mirrors of stats_ (the scrape surface; stats_ stays the
 *  per-store accessor several stores in one process rely on). */
void
countStoreEvent(const char *name, uint64_t n = 1)
{
    metrics::counter(std::string("icfp_trace_store_") + name).inc(n);
}

constexpr const char *kStoreSuffix = ".trc";

/** The identity bytes of @p id's file header: key length, key. */
std::string
storeIdentity(const TraceId &id)
{
    const std::string key = id.keyString();
    return u64Bytes(key.size()) + key;
}

} // namespace

std::string
TraceId::keyString() const
{
    // fmt guards against trace_io encoding changes (an old-format file
    // would pass the content hash yet be fatal to parse); gen guards
    // against generator semantic changes the hash cannot see; wl guards
    // against a single benchmark's definition changing
    // (BenchmarkSpec::defVersion).
    std::string key = "fmt=" + std::to_string(kTraceIoFormatVersion) +
                      " gen=" + std::to_string(kTraceGenVersion) +
                      " wl=" + std::to_string(defVersion) +
                      " bench=" + bench +
                      " insts=" + std::to_string(insts);
    key += seed ? " seed=" + std::to_string(*seed) : " seed=-";
    return key;
}

std::string
TraceId::fileName() const
{
    std::string name;
    for (const char c : bench) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        name += ok ? c : '_';
    }
    name += "-i" + std::to_string(insts);
    if (seed)
        name += "-s" + std::to_string(*seed);
    return name + kStoreSuffix;
}

TraceStore::TraceStore(std::string dir)
    : cache_(std::move(dir), "ICFPSTR1", kStoreSuffix, "trace_store", 0)
{
    if (cache_.createError()) {
        ICFP_WARN("trace store: cannot create %s: %s", cache_.dir().c_str(),
                  cache_.createError().message().c_str());
    }
}

std::optional<Trace>
TraceStore::load(const TraceId &id)
{
    const CacheDir::Loaded file =
        cache_.load(id.fileName(), storeIdentity(id));
    if (file.status != CacheDir::Loaded::Hit) {
        const bool corrupt = file.status == CacheDir::Loaded::Corrupt;
        if (corrupt)
            countStoreEvent("corrupt");
        countStoreEvent("misses");
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.corrupt += corrupt;
        ++stats_.misses;
        return std::nullopt;
    }

    // Decode the verified payload where it lies.
    Trace trace = readTrace(file.payload);
    countStoreEvent("hits");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return trace;
}

void
TraceStore::store(const TraceId &id, const Trace &trace)
{
    // Concurrent writers of the same id race benignly through unique
    // temps (deterministic generation: both candidates are identical).
    std::string err;
    if (!cache_.publish(id.fileName(), storeIdentity(id),
                        [&](std::string &out) { writeTrace(out, trace); },
                        &err)) {
        ICFP_WARN("trace store: %s", err.c_str());
        return;
    }

    countStoreEvent("writes");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.writes;
}

TraceStore::Stats
TraceStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace icfp
