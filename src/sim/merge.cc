#include "sim/merge.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/durable_file.hh" // fnv1a64
#include "common/logging.hh"
#include "isa/trace_io.hh" // kTraceGenVersion
#include "sim/report.hh"

namespace icfp {

namespace {

/** The CSV artifact's metadata line (1-based index, like the CLI). */
std::string
csvShardLine(const ShardSpec &shard, uint64_t grid_rows, uint64_t grid_fp)
{
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "#shard index=%u count=%u grid=%" PRIu64 " fp=%016" PRIx64,
                  shard.index + 1, shard.count, grid_rows, grid_fp);
    return buf;
}

/** The JSON artifact's metadata line (1-based index, like the CLI). */
std::string
jsonShardLine(const ShardSpec &shard, uint64_t grid_rows, uint64_t grid_fp)
{
    char buf[144];
    std::snprintf(buf, sizeof buf,
                  "{\"shard\": {\"index\": %u, \"count\": %u, "
                  "\"grid_rows\": %" PRIu64 ", \"fp\": \"%016" PRIx64
                  "\"},",
                  shard.index + 1, shard.count, grid_rows, grid_fp);
    return buf;
}

/** Split on '\n'; a trailing newline does not produce an empty line. */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    size_t start = 0;
    while (start < text.size()) {
        const size_t nl = text.find('\n', start);
        if (nl == std::string::npos) {
            lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

[[noreturn]] void
fail(const std::string &what, const std::string &message)
{
    throw MergeError(what + ": " + message);
}

/** Shard header sanity shared by both parsers. */
void
checkHeader(const std::string &what, unsigned index_1based, unsigned count,
            uint64_t grid_rows)
{
    if (count < 1 || count > kMaxShards)
        fail(what, "shard count must be 1.." + std::to_string(kMaxShards));
    if (index_1based < 1 || index_1based > count) {
        fail(what, "shard index " + std::to_string(index_1based) +
                       " outside 1.." + std::to_string(count));
    }
    if (grid_rows > (uint64_t{1} << 32))
        fail(what, "implausible grid size");
}

ShardArtifact
parseCsvArtifact(const std::string &what,
                 const std::vector<std::string> &lines)
{
    unsigned index = 0, count = 0;
    uint64_t grid = 0, fp = 0;
    char extra = '\0';
    if (std::sscanf(lines[0].c_str(),
                    "#shard index=%u count=%u grid=%" SCNu64
                    " fp=%" SCNx64 "%c",
                    &index, &count, &grid, &fp, &extra) != 4) {
        fail(what, "malformed #shard header line: " + lines[0]);
    }
    checkHeader(what, index, count, grid);
    if (lines.size() < 2)
        fail(what, "missing CSV schema line");

    ShardArtifact artifact;
    artifact.shard.index = index - 1;
    artifact.shard.count = count;
    artifact.gridRows = grid;
    artifact.gridFp = fp;
    artifact.csvHeader = lines[1];
    artifact.rows.assign(lines.begin() + 2, lines.end());
    return artifact;
}

ShardArtifact
parseJsonArtifact(const std::string &what,
                  const std::vector<std::string> &lines)
{
    unsigned index = 0, count = 0;
    uint64_t grid = 0, fp = 0;
    char extra = '\0';
    if (std::sscanf(lines[0].c_str(),
                    "{\"shard\": {\"index\": %u, \"count\": %u, "
                    "\"grid_rows\": %" SCNu64 ", \"fp\": \"%" SCNx64
                    "\"},%c",
                    &index, &count, &grid, &fp, &extra) != 4) {
        fail(what, "malformed shard header line: " + lines[0]);
    }
    checkHeader(what, index, count, grid);
    if (lines.size() < 3 || lines[1] != "\"results\": [" ||
        lines.back() != "]}") {
        fail(what, "malformed shard results array");
    }

    ShardArtifact artifact;
    artifact.shard.index = index - 1;
    artifact.shard.count = count;
    artifact.gridRows = grid;
    artifact.gridFp = fp;
    artifact.isJson = true;
    for (size_t i = 2; i + 1 < lines.size(); ++i) {
        // "  {...}," for every row but the shard's last ("  {...}").
        std::string row = lines[i];
        if (!row.empty() && row.back() == ',')
            row.pop_back();
        if (row.size() < 4 || row.compare(0, 3, "  {") != 0 ||
            row.back() != '}') {
            // 1-based row ordinal within this shard's results array, so
            // a bad row in a megabyte artifact is findable.
            fail(what, "malformed result row " + std::to_string(i - 1) +
                           ": " + lines[i]);
        }
        artifact.rows.push_back(row.substr(2));
    }
    return artifact;
}

/** "shard 2/3 (from peer-a.csv)" — merge errors name the offending
 *  input, not just its coordinates, so a failed N-way federation merge
 *  points at the peer/file to inspect. */
std::string
sourceOf(const ShardArtifact &a)
{
    std::string name = "shard " + shardName(a.shard);
    if (!a.source.empty())
        name += " (from " + a.source + ")";
    return name;
}

} // namespace

uint64_t
gridFingerprint(const std::vector<SweepJob> &grid, uint64_t insts,
                std::optional<uint64_t> seed,
                const std::string &extra_identity)
{
    std::string identity;
    for (const SweepJob &job : grid) {
        identity += job.bench;
        identity += '\0';
        identity += job.variant;
        identity += '\0';
        identity += coreKindName(job.core);
        identity += '\0';
    }
    identity += "insts=" + std::to_string(insts);
    identity += seed ? " seed=" + std::to_string(*seed) : " seed=-";
    // Shards computed by binaries with different timing-model semantics
    // (or trace generators) describe different experiments even when
    // the grid text matches.
    identity += " simv=" + std::to_string(kSimSemanticsVersion);
    identity += " gen=" + std::to_string(kTraceGenVersion);
    identity += '\0';
    identity += extra_identity;
    // The report schema is part of a sweep's identity too: artifacts
    // emitted by binaries with different column sets must not merge
    // (JSON artifacts carry no schema line of their own to compare).
    for (const std::string &column : sweepReportColumns()) {
        identity += '\0';
        identity += column;
    }
    return fnv1a64(identity.data(), identity.size());
}

std::string
shardCsv(const std::vector<SweepResult> &results, const ShardSpec &shard,
         uint64_t grid_rows, uint64_t grid_fp)
{
    ICFP_ASSERT(results.size() == shardRowCount(grid_rows, shard));
    std::ostringstream os;
    os << csvShardLine(shard, grid_rows, grid_fp) << "\n";
    os << sweepCsvHeader() << "\n";
    for (const SweepResult &r : results)
        os << sweepCsvRow(r) << "\n";
    return os.str();
}

std::string
shardJson(const std::vector<SweepResult> &results, const ShardSpec &shard,
          uint64_t grid_rows, uint64_t grid_fp)
{
    ICFP_ASSERT(results.size() == shardRowCount(grid_rows, shard));
    std::ostringstream os;
    os << jsonShardLine(shard, grid_rows, grid_fp) << "\n";
    os << "\"results\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        os << "  " << sweepJsonRow(results[i])
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "]}\n";
    return os.str();
}

std::string
sweepArtifact(const std::vector<SweepResult> &results,
              const std::string &format,
              const std::optional<ShardSpec> &shard, uint64_t grid_rows,
              uint64_t grid_fp)
{
    const bool json = format == "json";
    if (shard) {
        return json ? shardJson(results, *shard, grid_rows, grid_fp)
                    : shardCsv(results, *shard, grid_rows, grid_fp);
    }
    return json ? sweepJson(results) : sweepCsv(results);
}

ShardArtifact
parseShardArtifact(const std::string &text, const std::string &what)
{
    const std::vector<std::string> lines = splitLines(text);
    if (lines.empty())
        fail(what, "empty artifact");

    ShardArtifact artifact;
    if (lines[0].rfind("#shard ", 0) == 0)
        artifact = parseCsvArtifact(what, lines);
    else if (lines[0].rfind("{\"shard\":", 0) == 0)
        artifact = parseJsonArtifact(what, lines);
    else
        fail(what, "not a shard artifact (unrecognized first line)");
    artifact.source = what;

    const size_t expected =
        shardRowCount(artifact.gridRows, artifact.shard);
    if (artifact.rows.size() != expected) {
        fail(what, "shard " + shardName(artifact.shard) + " carries " +
                       std::to_string(artifact.rows.size()) +
                       " rows, expected " + std::to_string(expected) +
                       " of a " + std::to_string(artifact.gridRows) +
                       "-row grid");
    }
    return artifact;
}

std::string
mergeShards(const std::vector<ShardArtifact> &artifacts)
{
    if (artifacts.empty())
        throw MergeError("no shard artifacts to merge");

    const ShardArtifact &first = artifacts.front();
    const unsigned count = first.shard.count;
    for (const ShardArtifact &a : artifacts) {
        if (a.shard.count != count) {
            throw MergeError("shard count mismatch: " + sourceOf(a) +
                             " says " + std::to_string(a.shard.count) +
                             "-way, " + sourceOf(first) + " says " +
                             std::to_string(count) + "-way");
        }
        if (a.gridRows != first.gridRows) {
            throw MergeError(
                "grid size mismatch: " + sourceOf(a) + " covers a " +
                std::to_string(a.gridRows) + "-row grid, " +
                sourceOf(first) + " a " +
                std::to_string(first.gridRows) + "-row grid");
        }
        if (a.gridFp != first.gridFp) {
            throw MergeError(
                "shards come from different sweeps: " + sourceOf(a) +
                "'s grid fingerprint does not match " + sourceOf(first) +
                "'s (same benches/cores/variants/insts/seed/config "
                "required)");
        }
        if (a.isJson != first.isJson) {
            throw MergeError(
                "cannot merge CSV and JSON shard artifacts (" +
                sourceOf(a) + " vs " + sourceOf(first) + ")");
        }
        if (!a.isJson && a.csvHeader != first.csvHeader) {
            throw MergeError("CSV schema mismatch between shards: " +
                             sourceOf(a) + " vs " + sourceOf(first));
        }
    }

    std::vector<const ShardArtifact *> by_index(count, nullptr);
    for (const ShardArtifact &a : artifacts) {
        if (by_index[a.shard.index]) {
            throw MergeError("duplicate shard " + shardName(a.shard) +
                             " (provided by both " +
                             sourceOf(*by_index[a.shard.index]) + " and " +
                             sourceOf(a) + ")");
        }
        by_index[a.shard.index] = &a;
    }
    std::string missing;
    for (unsigned i = 0; i < count; ++i) {
        if (!by_index[i]) {
            missing += missing.empty() ? "" : ", ";
            missing += shardName(ShardSpec{i, count});
        }
    }
    if (!missing.empty())
        throw MergeError("missing shard(s) " + missing);

    // Re-interleave: global row j lives at position j/count of shard
    // j%count. Rows are verbatim bytes from the shard artifacts, and the
    // framing below matches sweepCsv()/sweepJson() exactly.
    const uint64_t rows = first.gridRows;
    std::ostringstream os;
    if (first.isJson) {
        os << "[\n";
        for (uint64_t j = 0; j < rows; ++j) {
            os << "  " << by_index[j % count]->rows[j / count]
               << (j + 1 < rows ? "," : "") << "\n";
        }
        os << "]\n";
    } else {
        os << first.csvHeader << "\n";
        for (uint64_t j = 0; j < rows; ++j)
            os << by_index[j % count]->rows[j / count] << "\n";
    }
    return os.str();
}

std::string
mergeShardFiles(const std::vector<std::string> &paths)
{
    std::vector<ShardArtifact> artifacts;
    artifacts.reserve(paths.size());
    for (const std::string &path : paths) {
        std::ifstream is(path, std::ios::binary);
        if (!is)
            throw MergeError("cannot read " + path);
        std::ostringstream os;
        os << is.rdbuf();
        artifacts.push_back(parseShardArtifact(os.str(), path));
    }
    return mergeShards(artifacts);
}

} // namespace icfp
