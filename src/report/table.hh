/**
 * @file
 * Small result-table abstraction with text and CSV writers, used by
 * the CLI driver and available to downstream tooling for
 * machine-readable experiment output.
 */

#ifndef WSL_REPORT_TABLE_HH
#define WSL_REPORT_TABLE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace wsl {

/** A rectangular table of strings with named columns. */
class Table
{
  public:
    explicit Table(std::vector<std::string> columns);

    /** Append a row; must match the column count. */
    void addRow(std::vector<std::string> row);

    /** Convenience: format doubles with fixed precision. */
    static std::string num(double value, int precision = 3);

    std::size_t numRows() const { return rows.size(); }
    std::size_t numColumns() const { return header.size(); }

    /** Aligned human-readable text. */
    void writeText(std::ostream &os) const;

    /** RFC-4180-style CSV (quotes fields containing , " or \n). */
    void writeCsv(std::ostream &os) const;

  private:
    static std::string csvEscape(const std::string &field);

    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

/**
 * Flatten a GpuStats into named scalar metrics (counter values plus
 * the derived rates), for dumping alongside experiment results.
 */
std::vector<std::pair<std::string, double>> flattenStats(
    const GpuStats &stats);

} // namespace wsl

#endif // WSL_REPORT_TABLE_HH
