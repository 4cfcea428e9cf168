#include "sim/report.hh"

#include <cstdio>
#include <iomanip>
#include <sstream>

#include "sim/sweep.hh"

namespace icfp {

Table::Table(std::string title)
    : title_(std::move(title))
{
}

void
Table::setColumns(const std::vector<std::string> &names)
{
    columns_ = names;
}

void
Table::addRow(const std::string &label, const std::vector<double> &cells,
              int decimals)
{
    Row row;
    row.label = label;
    for (const double v : cells) {
        std::ostringstream os;
        os << std::fixed << std::setprecision(decimals) << v;
        std::string cell = os.str();
        // A value that rounds to zero prints unsigned, whatever its sign.
        if (cell[0] == '-' &&
            cell.find_first_not_of("0.", 1) == std::string::npos)
            cell.erase(0, 1);
        row.cells.push_back(std::move(cell));
    }
    rows_.push_back(std::move(row));
}

void
Table::addNote(const std::string &note)
{
    Row row;
    row.label = note;
    row.isNote = true;
    rows_.push_back(std::move(row));
}

std::string
Table::str() const
{
    // Column widths.
    std::vector<size_t> widths(columns_.size(), 0);
    for (size_t c = 0; c < columns_.size(); ++c)
        widths[c] = columns_[c].size();
    for (const Row &row : rows_) {
        if (row.isNote)
            continue;
        if (!columns_.empty())
            widths[0] = std::max(widths[0], row.label.size());
        for (size_t c = 0; c < row.cells.size() && c + 1 < columns_.size();
             ++c)
            widths[c + 1] = std::max(widths[c + 1], row.cells[c].size());
    }

    std::ostringstream os;
    os << "== " << title_ << " ==\n";
    if (!columns_.empty()) {
        for (size_t c = 0; c < columns_.size(); ++c) {
            os << (c == 0 ? "" : "  ");
            if (c == 0)
                os << std::left;
            else
                os << std::right;
            os << std::setw(static_cast<int>(widths[c])) << columns_[c];
        }
        os << "\n";
        size_t total = 0;
        for (size_t c = 0; c < columns_.size(); ++c)
            total += widths[c] + (c == 0 ? 0 : 2);
        os << std::string(total, '-') << "\n";
    }
    for (const Row &row : rows_) {
        if (row.isNote) {
            os << row.label << "\n";
            continue;
        }
        os << std::left << std::setw(static_cast<int>(widths[0]))
           << row.label;
        for (size_t c = 0; c < row.cells.size(); ++c) {
            os << "  " << std::right
               << std::setw(static_cast<int>(
                      c + 1 < widths.size() ? widths[c + 1] : 8))
               << row.cells[c];
        }
        os << "\n";
    }
    return os.str();
}

void
Table::print() const
{
    std::fputs(str().c_str(), stdout);
    std::fflush(stdout);
}

namespace {

/** CSV-quote a field if it contains a delimiter, quote, or newline. */
std::string
csvField(const std::string &field)
{
    if (field.find_first_of(",\"\n") == std::string::npos)
        return field;
    std::string quoted = "\"";
    for (const char c : field) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

/** JSON string escaping (the schema's strings are ASCII labels). */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

/** Locale-independent fixed-point float formatting (6 digits). */
std::string
floatCell(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    return buf;
}

std::string
u64Cell(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu", (unsigned long long)v);
    return buf;
}

/**
 * One sweep result flattened to (column, value, is_string) cells, in
 * sweepReportColumns() order. Single source of truth for CSV and JSON.
 */
struct SweepCell
{
    std::string value;
    bool isString;
};

std::vector<SweepCell>
sweepCells(const SweepResult &r)
{
    const RunResult &s = r.result;
    return {
        {r.bench, true},
        {coreKindName(r.core), true},
        {r.variant, true},
        {u64Cell(s.instructions), false},
        {u64Cell(s.cycles), false},
        {floatCell(s.ipc()), false},
        {u64Cell(s.mem.dcacheMisses), false},
        {u64Cell(s.mem.l2Misses), false},
        {floatCell(s.missPerKi(s.mem.dcacheMisses)), false},
        {floatCell(s.missPerKi(s.mem.l2Misses)), false},
        {floatCell(s.dcacheMlp), false},
        {floatCell(s.l2Mlp), false},
        {u64Cell(s.mem.prefetchHits), false},
        {u64Cell(s.branch.condMispredicts), false},
        {u64Cell(s.advanceEntries), false},
        {u64Cell(s.advanceInsts), false},
        {u64Cell(s.slicedInsts), false},
        {u64Cell(s.rallyPasses), false},
        {u64Cell(s.rallyInsts), false},
        {floatCell(s.rallyPerKi()), false},
        {u64Cell(s.squashes), false},
        {u64Cell(s.simpleRaEntries), false},
        {u64Cell(s.sbChainLoads), false},
        {u64Cell(s.sbExcessHops), false},
        {u64Cell(s.sbForwards), false},
    };
}

} // namespace

const std::vector<std::string> &
sweepReportColumns()
{
    static const std::vector<std::string> columns = {
        "bench",           "core",
        "variant",         "instructions",
        "cycles",          "ipc",
        "dcache_misses",   "l2_misses",
        "dcache_miss_ki",  "l2_miss_ki",
        "dcache_mlp",      "l2_mlp",
        "prefetch_hits",   "cond_mispredicts",
        "advance_entries", "advance_insts",
        "sliced_insts",    "rally_passes",
        "rally_insts",     "rally_ki",
        "squashes",        "simple_ra_entries",
        "sb_chain_loads",  "sb_excess_hops",
        "sb_forwards",
    };
    return columns;
}

std::string
sweepCsvHeader()
{
    std::ostringstream os;
    const std::vector<std::string> &columns = sweepReportColumns();
    for (size_t c = 0; c < columns.size(); ++c)
        os << (c ? "," : "") << csvField(columns[c]);
    return os.str();
}

std::string
sweepCsvRow(const SweepResult &result)
{
    std::ostringstream os;
    const std::vector<SweepCell> cells = sweepCells(result);
    for (size_t c = 0; c < cells.size(); ++c)
        os << (c ? "," : "") << csvField(cells[c].value);
    return os.str();
}

std::string
sweepJsonRow(const SweepResult &result)
{
    std::ostringstream os;
    const std::vector<std::string> &columns = sweepReportColumns();
    const std::vector<SweepCell> cells = sweepCells(result);
    os << "{";
    for (size_t c = 0; c < cells.size(); ++c) {
        os << (c ? ", " : "") << jsonString(columns[c]) << ": ";
        if (cells[c].isString)
            os << jsonString(cells[c].value);
        else
            os << cells[c].value;
    }
    os << "}";
    return os.str();
}

std::string
sweepCsv(const std::vector<SweepResult> &results)
{
    std::ostringstream os;
    os << sweepCsvHeader() << "\n";
    for (const SweepResult &r : results)
        os << sweepCsvRow(r) << "\n";
    return os.str();
}

std::string
sweepJson(const std::vector<SweepResult> &results)
{
    std::ostringstream os;
    os << "[\n";
    for (size_t i = 0; i < results.size(); ++i) {
        os << "  " << sweepJsonRow(results[i])
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "]\n";
    return os.str();
}

} // namespace icfp
