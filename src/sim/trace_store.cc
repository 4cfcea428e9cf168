#include "sim/trace_store.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/durable_file.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "isa/trace_io.hh"

namespace fs = std::filesystem;

namespace icfp {

namespace {

/** Registry mirrors of stats_ (the scrape surface; stats_ stays the
 *  per-store accessor several stores in one process rely on). */
void
countStoreEvent(const char *name)
{
    metrics::counter(std::string("icfp_trace_store_") + name).inc();
}

constexpr char kStoreMagic[8] = {'I', 'C', 'F', 'P', 'S', 'T', 'R', '1'};
constexpr const char *kStoreSuffix = ".trc";

/** Little-endian u64, mirroring trace_io's primitive encoding. */
void
putU64(char *at, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        at[i] = static_cast<char>(v >> (8 * i));
}

uint64_t
getU64(std::string_view s, size_t at)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(static_cast<uint8_t>(s[at + i]))
             << (8 * i);
    return v;
}

/** A whole file's bytes. */
struct FileBytes
{
    std::unique_ptr<char[]> data;
    size_t size = 0;

    std::string_view view() const { return {data.get(), size}; }
};

/** Read a whole file with one read into a buffer sized from the file
 *  length (and not zero-filled first); std::nullopt if unreadable. */
std::optional<FileBytes>
readFileBytes(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        return std::nullopt;
    const std::streamoff size = is.tellg();
    if (size < 0 || !is.seekg(0))
        return std::nullopt;
    FileBytes bytes{std::make_unique_for_overwrite<char[]>(
                        static_cast<size_t>(size)),
                    static_cast<size_t>(size)};
    if (!is.read(bytes.data.get(), size))
        return std::nullopt;
    return bytes;
}

void
removeQuietly(const fs::path &path)
{
    std::error_code ec;
    fs::remove(path, ec);
}

} // namespace

uint64_t
fnv1a64(const void *data, size_t size)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    uint64_t hash = 14695981039346656037ull;
    for (size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

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

TraceStore::TraceStore(std::string dir, uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes)
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        ICFP_WARN("trace store: cannot create %s: %s", dir_.c_str(),
                  ec.message().c_str());
        return;
    }

    // Reclaim temp files orphaned by killed writers. They are invisible
    // to the LRU cap (which scans *.trc only), so without this a
    // crash-looping shard would grow the directory past any cap. The
    // age threshold keeps live writers (ms between write and rename)
    // safe even with modest clock skew on shared filesystems.
    const auto stale_before =
        fs::file_time_type::clock::now() - std::chrono::minutes(15);
    for (const fs::directory_entry &de : fs::directory_iterator(dir_, ec)) {
        if (de.path().filename().string().find(".trc.tmp.") ==
            std::string::npos) {
            continue;
        }
        std::error_code fe;
        const fs::file_time_type mtime = de.last_write_time(fe);
        if (!fe && mtime < stale_before)
            removeQuietly(de.path());
    }
}

std::shared_ptr<TraceStore>
TraceStore::fromEnv()
{
    const char *dir = std::getenv("ICFP_TRACE_DIR");
    if (!dir || !*dir)
        return nullptr;
    return std::make_shared<TraceStore>(dir, maxBytesFromEnv());
}

uint64_t
TraceStore::maxBytesFromEnv()
{
    const char *mb = std::getenv("ICFP_TRACE_DIR_MAX_MB");
    if (!mb)
        return 0;
    const long long v = std::atoll(mb);
    return v > 0 ? static_cast<uint64_t>(v) * 1024 * 1024 : 0;
}

std::optional<Trace>
TraceStore::load(const TraceId &id)
{
    const fs::path path = fs::path(dir_) / id.fileName();
    const std::optional<FileBytes> file = readFileBytes(path);
    if (!file) {
        countStoreEvent("misses");
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        return std::nullopt;
    }
    const std::string_view bytes = file->view();

    // Header: magic, key length + key, payload hash, payload length.
    const std::string key = id.keyString();
    const size_t header = sizeof(kStoreMagic) + 8 + key.size() + 8 + 8;
    bool ok = bytes.size() >= header &&
              bytes.substr(0, sizeof(kStoreMagic)) ==
                  std::string_view(kStoreMagic, sizeof(kStoreMagic)) &&
              getU64(bytes, sizeof(kStoreMagic)) == key.size() &&
              bytes.substr(sizeof(kStoreMagic) + 8, key.size()) == key;
    if (ok) {
        const uint64_t hash = getU64(bytes, header - 16);
        const uint64_t size = getU64(bytes, header - 8);
        ok = bytes.size() == header + size &&
             fnv1a64(bytes.data() + header, size) == hash;
    }
    if (!ok) {
        // Truncated, bit-flipped, or a colliding/renamed file: drop it so
        // the regenerated trace can be stored cleanly.
        removeQuietly(path);
        countStoreEvent("corrupt");
        countStoreEvent("misses");
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.corrupt;
        ++stats_.misses;
        return std::nullopt;
    }

    // LRU touch (best effort): a hit makes this file newest.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);

    // Decode the verified payload where it lies.
    Trace trace = readTrace(bytes.substr(header));
    countStoreEvent("hits");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return trace;
}

void
TraceStore::store(const TraceId &id, const Trace &trace)
{
    // Header: magic, key length + key, payload hash, payload length;
    // the payload is encoded straight after it and the two trailing
    // header fields are filled in once its bytes are known.
    const std::string key = id.keyString();
    std::string blob(kStoreMagic, sizeof(kStoreMagic));
    blob.resize(blob.size() + 8);
    putU64(blob.data() + sizeof(kStoreMagic), key.size());
    blob += key;
    const size_t header = blob.size() + 16;
    blob.resize(header);
    writeTrace(blob, trace);
    const size_t size = blob.size() - header;
    putU64(blob.data() + header - 16,
           fnv1a64(blob.data() + header, size));
    putU64(blob.data() + header - 8, size);

    // Durable publish (fsync-then-rename): an un-fsynced rename can
    // survive a crash that its data blocks do not, and a zero-filled
    // .trc would cost a corrupt-detect-regenerate round trip on every
    // restart. The store stays an optimization, so a failed write only
    // warns. Concurrent writers of the same id race benignly through
    // unique temps (deterministic generation: both candidates are
    // identical).
    const fs::path path = fs::path(dir_) / id.fileName();
    std::string err;
    if (!writeFileDurable(path.string(), blob, "trace_store", &err)) {
        ICFP_WARN("trace store: %s", err.c_str());
        return;
    }

    countStoreEvent("writes");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.writes;
    if (max_bytes_ > 0)
        evictLocked(id.fileName());
}

void
TraceStore::evictLocked(const std::string &keep_file)
{
    struct Entry
    {
        fs::path path;
        uint64_t size;
        fs::file_time_type mtime;
    };
    std::vector<Entry> entries;
    uint64_t total = 0;
    std::error_code ec;
    for (const fs::directory_entry &de : fs::directory_iterator(dir_, ec)) {
        const fs::path &p = de.path();
        if (p.extension() != kStoreSuffix)
            continue;
        // Separate error codes: a successful second stat must not mask
        // a failed first one (a concurrently-replaced file could
        // otherwise contribute a garbage size to the running total).
        std::error_code size_ec, time_ec;
        const uint64_t size = de.file_size(size_ec);
        const fs::file_time_type mtime = de.last_write_time(time_ec);
        if (size_ec || time_ec)
            continue;
        entries.push_back({p, size, mtime});
        total += size;
    }
    if (ec || total <= max_bytes_)
        return;

    // Oldest first; ties broken by name for determinism. The file just
    // published is never evicted (it is what the caller is about to use).
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path.filename() < b.path.filename();
              });
    for (const Entry &e : entries) {
        if (total <= max_bytes_)
            break;
        if (e.path.filename() == keep_file)
            continue;
        removeQuietly(e.path);
        total -= e.size;
        ++stats_.evictions;
        countStoreEvent("evictions");
    }
}

TraceStore::Stats
TraceStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace icfp
