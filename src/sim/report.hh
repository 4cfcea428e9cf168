/**
 * @file
 * Report emission for sweeps and figures: fixed-width plain-text
 * tables in the style of the paper's tables/figure data, plus machine-
 * readable CSV/JSON serialization of sweep results (sim/sweep.hh).
 *
 * All serialization here is deterministic — fixed float precision, no
 * locale dependence, rows in input order — so a sweep emitted with any
 * worker-thread count is byte-identical (the `icfp-sim sweep` contract).
 */

#ifndef ICFP_SIM_REPORT_HH
#define ICFP_SIM_REPORT_HH

#include <string>
#include <vector>

namespace icfp {

struct SweepResult; // sim/sweep.hh; only named in declarations here

/** A simple left-labeled, right-aligned-numeric table printer. */
class Table
{
  public:
    /** @param title printed above the table */
    explicit Table(std::string title);

    /** Define columns; the first is the row label. */
    void setColumns(const std::vector<std::string> &names);

    /** Add one row: a label plus numeric cells formatted to @p decimals. */
    void addRow(const std::string &label, const std::vector<double> &cells,
                int decimals = 1);

    /** Add a plain text row (e.g. a separator or a note). */
    void addNote(const std::string &note);

    /** Render to stdout. */
    void print() const;

    /** Render to a string. */
    std::string str() const;

  private:
    std::string title_;
    std::vector<std::string> columns_;
    struct Row
    {
        std::string label;
        std::vector<std::string> cells;
        bool isNote = false;
    };
    std::vector<Row> rows_;
};

/** Column names of the sweep CSV/JSON schema, in emission order. */
const std::vector<std::string> &sweepReportColumns();

/** The sweep CSV header line (no trailing newline). */
std::string sweepCsvHeader();

/** One sweep result as a CSV data line (no trailing newline). */
std::string sweepCsvRow(const SweepResult &result);

/** One sweep result as a flat JSON object ("{...}", no indent/comma).
 *  sweepJson() and the shard artifacts (sim/merge.hh) both emit exactly
 *  these bytes, which is what makes a merged report byte-identical to an
 *  unsharded one. */
std::string sweepJsonRow(const SweepResult &result);

/**
 * Serialize sweep results as CSV (header + one row per result, input
 * order). Byte-deterministic for identical results.
 */
std::string sweepCsv(const std::vector<SweepResult> &results);

/**
 * Serialize sweep results as a JSON array of flat objects using the
 * same schema as sweepCsv(). Byte-deterministic for identical results.
 */
std::string sweepJson(const std::vector<SweepResult> &results);

} // namespace icfp

#endif // ICFP_SIM_REPORT_HH
