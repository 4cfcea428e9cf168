#include "common/durable_file.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault_inject.hh"

namespace fs = std::filesystem;

namespace icfp {

namespace {

void
removeQuietly(const fs::path &path)
{
    std::error_code ec;
    fs::remove(path, ec);
}

void
fillError(std::string *error, const std::string &what, int err)
{
    if (error)
        *error = what + ": " + std::strerror(err);
}

/** Full write with EINTR handling; false on any other error. */
bool
writeAll(int fd, const char *data, size_t size)
{
    size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(n);
    }
    return true;
}

/** Little-endian u64 at @p at, the header's integer encoding. */
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

} // namespace

bool
writeFileDurable(const std::string &path, const std::string &bytes,
                 const char *fault_prefix, std::string *error)
{
    const std::string prefix = fault_prefix;

    // Unique temp name per process and thread: concurrent writers of
    // the same destination race benignly through their own temps, and
    // O_EXCL catches the (never expected) name collision.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(static_cast<unsigned long long>(
            std::hash<std::thread::id>{}(std::this_thread::get_id())));

    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd < 0) {
        fillError(error, "open " + tmp, errno);
        return false;
    }

    const bool short_write = ICFP_FAULT_POINT((prefix + ".write.short").c_str());
    const bool torn_write = ICFP_FAULT_POINT((prefix + ".write.torn").c_str());
    if (short_write || torn_write) {
        // Persist only the front half. short_write then reports the
        // truth (ENOSPC); torn_write lies and completes the publish so
        // the reader's checksum must catch it.
        writeAll(fd, bytes.data(), bytes.size() / 2);
        if (short_write) {
            ::close(fd);
            removeQuietly(tmp);
            fillError(error, "write " + tmp, ENOSPC);
            return false;
        }
    } else if (!writeAll(fd, bytes.data(), bytes.size())) {
        const int err = errno;
        ::close(fd);
        removeQuietly(tmp);
        fillError(error, "write " + tmp, err);
        return false;
    }

    if (ICFP_FAULT_POINT((prefix + ".fsync").c_str()) ||
        ::fsync(fd) != 0) {
        const int err = errno ? errno : EIO;
        ::close(fd);
        removeQuietly(tmp);
        fillError(error, "fsync " + tmp, err);
        return false;
    }
    if (::close(fd) != 0) {
        const int err = errno;
        removeQuietly(tmp);
        fillError(error, "close " + tmp, err);
        return false;
    }

    if (ICFP_FAULT_POINT((prefix + ".rename").c_str()) ||
        ::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno ? errno : EIO;
        removeQuietly(tmp);
        fillError(error, "rename " + tmp + " -> " + path, err);
        return false;
    }

    // fsync the directory so the new name itself survives a crash.
    // Best effort: some filesystems refuse O_RDONLY directory fsync,
    // and by this point the content is durable and the rename atomic —
    // the worst un-fsynced outcome is the old state, never corruption.
    const std::string dir = fs::path(path).parent_path().string();
    const int dfd = ::open(dir.empty() ? "." : dir.c_str(),
                           O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
    return true;
}

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
u64Bytes(uint64_t v)
{
    std::string bytes(8, '\0');
    putU64(bytes.data(), v);
    return bytes;
}

CacheDir::CacheDir(std::string dir, std::string_view magic,
                   std::string suffix, std::string fault_prefix,
                   uint64_t max_bytes)
    : dir_(std::move(dir)), magic_(magic), suffix_(std::move(suffix)),
      fault_prefix_(std::move(fault_prefix)), max_bytes_(max_bytes)
{
    fs::create_directories(dir_, create_error_);
    if (create_error_)
        return;

    // Reclaim temp files orphaned by killed writers. They are invisible
    // to the cap (which counts *<suffix> files only), so without this a
    // crash-looping writer would grow the directory past any cap. The
    // age threshold keeps live writers (ms between write and rename)
    // safe even with modest clock skew on shared filesystems.
    const std::string temp_marker = suffix_ + ".tmp.";
    const auto stale_before =
        fs::file_time_type::clock::now() - std::chrono::minutes(15);
    std::error_code ec;
    for (const fs::directory_entry &de : fs::directory_iterator(dir_, ec)) {
        if (de.path().filename().string().find(temp_marker) ==
            std::string::npos) {
            continue;
        }
        std::error_code fe;
        const fs::file_time_type mtime = de.last_write_time(fe);
        if (!fe && mtime < stale_before)
            removeQuietly(de.path());
    }
}

std::string
CacheDir::path(const std::string &name) const
{
    return (fs::path(dir_) / name).string();
}

CacheDir::Loaded
CacheDir::load(const std::string &name, std::string_view identity)
{
    // One read into a buffer sized from the file length (and not
    // zero-filled first); an unreadable file is a plain miss.
    Loaded loaded;
    const std::string file = path(name);
    std::ifstream is(file, std::ios::binary | std::ios::ate);
    if (!is)
        return loaded;
    const std::streamoff size = is.tellg();
    if (size < 0 || !is.seekg(0))
        return loaded;
    loaded.file =
        std::make_unique_for_overwrite<char[]>(static_cast<size_t>(size));
    if (!is.read(loaded.file.get(), size))
        return loaded;
    const std::string_view bytes(loaded.file.get(),
                                 static_cast<size_t>(size));

    const size_t header = magic_.size() + identity.size() + 16;
    bool ok = bytes.size() >= header &&
              bytes.substr(0, magic_.size()) == magic_ &&
              bytes.substr(magic_.size(), identity.size()) == identity;
    if (ok) {
        const uint64_t hash = getU64(bytes, header - 16);
        const uint64_t length = getU64(bytes, header - 8);
        ok = length == bytes.size() - header &&
             fnv1a64(bytes.data() + header, length) == hash;
    }
    if (!ok) {
        // Truncated, bit-flipped, stale or renamed: drop it so the
        // recomputed payload can be published cleanly.
        removeQuietly(file);
        loaded.file.reset();
        loaded.status = Loaded::Corrupt;
        return loaded;
    }

    // LRU touch (best effort): a hit makes this file newest.
    std::error_code ec;
    fs::last_write_time(file, fs::file_time_type::clock::now(), ec);
    loaded.status = Loaded::Hit;
    loaded.payload = bytes.substr(header);
    return loaded;
}

std::optional<uint64_t>
CacheDir::publish(const std::string &name, std::string_view identity,
                  const Encoder &encode, std::string *error)
{
    // The payload is encoded straight after the header; the hash and
    // length fields are filled in once its bytes are known.
    std::string entry = magic_;
    entry += identity;
    const size_t header = entry.size() + 16;
    entry.resize(header);
    encode(entry);
    const size_t size = entry.size() - header;
    putU64(entry.data() + header - 16, fnv1a64(entry.data() + header, size));
    putU64(entry.data() + header - 8, size);

    if (!writeFileDurable(path(name), entry, fault_prefix_.c_str(), error))
        return std::nullopt;
    return max_bytes_ > 0 ? evict(name) : 0;
}

uint64_t
CacheDir::evict(const std::string &keep)
{
    struct Entry
    {
        fs::path path;
        uint64_t size;
        fs::file_time_type mtime;
    };
    std::lock_guard<std::mutex> lock(evict_mutex_);
    std::vector<Entry> entries;
    uint64_t total = 0;
    std::error_code ec;
    for (const fs::directory_entry &de : fs::directory_iterator(dir_, ec)) {
        const fs::path &p = de.path();
        if (p.extension() != suffix_)
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
        return 0;

    // Oldest first; ties broken by name for determinism. The file just
    // published is never evicted (it is what the caller is about to use).
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path.filename() < b.path.filename();
              });
    uint64_t evicted = 0;
    for (const Entry &e : entries) {
        if (total <= max_bytes_)
            break;
        if (e.path.filename() == keep)
            continue;
        removeQuietly(e.path);
        total -= e.size;
        ++evicted;
    }
    return evicted;
}

} // namespace icfp
