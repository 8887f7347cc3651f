#include "report/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/log.hh"

namespace wsl {

Table::Table(std::vector<std::string> columns)
    : header(std::move(columns))
{
    WSL_ASSERT(!header.empty(), "a table needs at least one column");
}

void
Table::addRow(std::vector<std::string> row)
{
    WSL_ASSERT(row.size() == header.size(),
               "row width must match the header");
    rows.push_back(std::move(row));
}

std::string
Table::num(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

void
Table::writeText(std::ostream &os) const
{
    std::vector<std::size_t> widths(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        widths[c] = header[c].size();
    for (const auto &row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]))
               << row[c];
            os << (c + 1 < row.size() ? "  " : "");
        }
        os << "\n";
    };
    emit(header);
    for (const auto &row : rows)
        emit(row);
}

std::string
Table::csvEscape(const std::string &field)
{
    if (field.find_first_of(",\"\n") == std::string::npos)
        return field;
    std::string out = "\"";
    for (char ch : field) {
        if (ch == '"')
            out += "\"\"";
        else
            out += ch;
    }
    out += '"';
    return out;
}

void
Table::writeCsv(std::ostream &os) const
{
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << csvEscape(row[c]);
            if (c + 1 < row.size())
                os << ',';
        }
        os << "\n";
    };
    emit(header);
    for (const auto &row : rows)
        emit(row);
}

std::vector<std::pair<std::string, double>>
flattenStats(const GpuStats &s)
{
    std::vector<std::pair<std::string, double>> out;
    auto add = [&](const char *name, double v) {
        out.emplace_back(name, v);
    };
    add("cycles", static_cast<double>(s.cycles));
    add("warp_insts", static_cast<double>(s.warpInstsIssued));
    add("thread_insts", static_cast<double>(s.threadInstsIssued));
    add("ipc", s.ipc());
    add("l1_accesses", static_cast<double>(s.l1Accesses));
    add("l1_miss_rate", s.l1MissRate());
    add("l2_accesses", static_cast<double>(s.l2Accesses));
    add("l2_miss_rate", s.l2MissRate());
    add("l2_mpki", s.l2Mpki());
    add("dram_reads", static_cast<double>(s.dramReads));
    add("dram_writes", static_cast<double>(s.dramWrites));
    add("dram_row_hit_rate",
        s.dramRowHits + s.dramRowMisses
            ? static_cast<double>(s.dramRowHits) /
                  (s.dramRowHits + s.dramRowMisses)
            : 0.0);
    add("shm_accesses", static_cast<double>(s.shmAccesses));
    add("ifetch_miss_rate",
        s.ifetches ? static_cast<double>(s.ifetchMisses) / s.ifetches
                   : 0.0);
    for (unsigned i = 0; i < numStallKinds; ++i) {
        out.emplace_back(
            std::string("stall_") +
                stallKindName(static_cast<StallKind>(i)),
            static_cast<double>(s.stalls[i]));
    }
    return out;
}

} // namespace wsl
