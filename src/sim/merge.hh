/**
 * @file
 * Shard artifact emission, parsing, and merging for distributed sweeps.
 *
 * `icfp-sim sweep --shard i/N` emits the same CSV/JSON rows an unsharded
 * sweep would (sim/report.hh), restricted to the shard's grid slice and
 * prefixed with a one-line shard header carrying (index, count,
 * grid-row total). `icfp-sim merge` parses N such artifacts, validates
 * that they form an exact partition — same count/grid/schema, every
 * shard present exactly once, per-shard row counts exact — and
 * re-interleaves the verbatim row text by global grid index. Because
 * rows are carried byte-for-byte and the unsharded emitters are
 * deterministic, the merged report is byte-identical to a single-process
 * run of the full grid.
 *
 * Artifact shapes (shard 1/3 of a 9-row grid; fp is the sweep's
 * gridFingerprint(), which merge requires to agree across shards):
 *
 *   CSV:   #shard index=1 count=3 grid=9 fp=00f3a6...
 *          bench,core,variant,...          <- normal sweep CSV header
 *          mcf,inorder,base,...            <- rows with gridIndex 0,3,6
 *
 *   JSON:  {"shard": {"index": 1, "count": 3, "grid_rows": 9,
 *           "fp": "00f3a6..."},
 *          "results": [
 *            {"bench": "mcf", ...},
 *            ...
 *          ]}
 *
 * Validation failures throw MergeError (never exit()), so both the CLI
 * and the test battery observe clean, descriptive errors.
 */

#ifndef ICFP_SIM_MERGE_HH
#define ICFP_SIM_MERGE_HH

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace icfp {

/** A malformed, inconsistent, or incomplete set of shard artifacts. */
class MergeError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Order-sensitive FNV-1a fingerprint of a grid's identity: every
 * expanded job's (bench, variant label, core) plus the shared
 * insts/seed. All shards of one sweep stamp the same fingerprint, and
 * merge refuses shards whose fingerprints differ — two sweeps that
 * merely share a shape (same row count and schema) cannot be stitched
 * into a silently mixed report. Configs are identified by their variant
 * labels, not hashed structurally — callers whose labels do not capture
 * every config knob (e.g. the CLI's --l2-lat/--trigger overrides, which
 * apply to all variants without renaming them) must fold those knobs
 * into @p extra_identity so differently-configured shards refuse to
 * merge.
 */
uint64_t gridFingerprint(const std::vector<SweepJob> &grid, uint64_t insts,
                         std::optional<uint64_t> seed,
                         const std::string &extra_identity = std::string());

/** Serialize one shard's results as a CSV shard artifact.
 *  @param grid_rows row count of the full unsharded grid
 *  @param grid_fp   gridFingerprint() of the full unsharded grid */
std::string shardCsv(const std::vector<SweepResult> &results,
                     const ShardSpec &shard, uint64_t grid_rows,
                     uint64_t grid_fp);

/** Serialize one shard's results as a JSON shard artifact. */
std::string shardJson(const std::vector<SweepResult> &results,
                      const ShardSpec &shard, uint64_t grid_rows,
                      uint64_t grid_fp);

/** @p results as a @p format ("csv" | "json") artifact: the plain
 *  report, or the shard artifact when @p shard is set — even 1/1, as
 *  `sweep --shard 1/1` frames it. The only place that choice is made. */
std::string sweepArtifact(const std::vector<SweepResult> &results,
                          const std::string &format,
                          const std::optional<ShardSpec> &shard,
                          uint64_t grid_rows, uint64_t grid_fp);

/** One parsed shard artifact: header metadata + verbatim row text. */
struct ShardArtifact
{
    ShardSpec shard{};
    uint64_t gridRows = 0;
    uint64_t gridFp = 0; ///< the sweep's gridFingerprint()
    bool isJson = false;
    std::string csvHeader;         ///< CSV schema line (CSV only)
    std::vector<std::string> rows; ///< verbatim rows, grid order
    /** Where the artifact came from (parseShardArtifact's @p what — a
     *  file path, or "peer host:port slice 2/3" in the federation
     *  coordinator), so every merge-time validation failure names the
     *  offending input, not just its shard coordinates. */
    std::string source;
};

/**
 * Parse @p text (the contents of one artifact file) as a CSV or JSON
 * shard artifact (auto-detected). @p what names the input in errors.
 * @throws MergeError on malformed input
 */
ShardArtifact parseShardArtifact(const std::string &text,
                                 const std::string &what);

/**
 * Validate that @p artifacts form an exact partition and merge them
 * back into the byte-identical unsharded CSV/JSON report.
 * @throws MergeError on missing/duplicate/mismatched shards
 */
std::string mergeShards(const std::vector<ShardArtifact> &artifacts);

/** File-level convenience: read, parse, and merge @p paths.
 *  @throws MergeError on unreadable files or any merge failure */
std::string mergeShardFiles(const std::vector<std::string> &paths);

} // namespace icfp

#endif // ICFP_SIM_MERGE_HH
