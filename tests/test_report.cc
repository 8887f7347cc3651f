/**
 * @file
 * Unit tests for the result-table writers (text/CSV) and the
 * stats flattener.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "expect_throw.hh"
#include "report/table.hh"

using namespace wsl;

namespace {

Table
sample()
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"beta", "2.5"});
    return t;
}

} // namespace

TEST(Table, Dimensions)
{
    const Table t = sample();
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.numColumns(), 2u);
}

TEST(TableErrors, RowWidthMismatchThrows)
{
    Table t({"a", "b"});
    WSL_EXPECT_THROW_MSG(t.addRow({"only-one"}), InternalError, "width");
}

TEST(TableErrors, EmptyHeaderThrows)
{
    WSL_EXPECT_THROW_MSG(Table{std::vector<std::string>{}},
                         InternalError, "column");
}

TEST(Table, TextOutputIsAligned)
{
    std::ostringstream os;
    sample().writeText(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name   value"), std::string::npos);
    EXPECT_NE(out.find("alpha  1"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    std::ostringstream os;
    sample().writeCsv(os);
    EXPECT_EQ(os.str(), "name,value\nalpha,1\nbeta,2.5\n");
}

TEST(Table, CsvEscapesSpecialCharacters)
{
    Table t({"k"});
    t.addRow({"a,b"});
    t.addRow({"say \"hi\""});
    t.addRow({"line\nbreak"});
    std::ostringstream os;
    t.writeCsv(os);
    EXPECT_EQ(os.str(),
              "k\n\"a,b\"\n\"say \"\"hi\"\"\"\n\"line\nbreak\"\n");
}

TEST(Table, NumFormatsWithPrecision)
{
    EXPECT_EQ(Table::num(1.23456), "1.235");
    EXPECT_EQ(Table::num(1.0, 1), "1.0");
    EXPECT_EQ(Table::num(-0.5, 2), "-0.50");
}

namespace {

/** Parse RFC-4180 CSV back into rows of fields. */
std::vector<std::vector<std::string>>
parseCsv(const std::string &text)
{
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> row;
    std::string field;
    bool quoted = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    field += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                field += c;
            }
        } else if (c == '"') {
            quoted = true;
        } else if (c == ',') {
            row.push_back(std::move(field));
            field.clear();
        } else if (c == '\n') {
            row.push_back(std::move(field));
            field.clear();
            rows.push_back(std::move(row));
            row.clear();
        } else {
            field += c;
        }
    }
    return rows;
}

} // namespace

TEST(Table, CsvRoundTripsThroughParser)
{
    Table t({"name", "payload"});
    t.addRow({"plain", "value"});
    t.addRow({"comma", "a,b"});
    t.addRow({"quote", "say \"hi\""});
    t.addRow({"newline", "two\nlines"});
    std::ostringstream os;
    t.writeCsv(os);

    const auto rows = parseCsv(os.str());
    ASSERT_EQ(rows.size(), 5u);  // header + 4
    EXPECT_EQ(rows[0], (std::vector<std::string>{"name", "payload"}));
    EXPECT_EQ(rows[1][1], "value");
    EXPECT_EQ(rows[2][1], "a,b");
    EXPECT_EQ(rows[3][1], "say \"hi\"");
    EXPECT_EQ(rows[4][1], "two\nlines");
}

TEST(FlattenStats, ContainsCoreMetrics)
{
    GpuStats s;
    s.cycles = 100;
    s.warpInstsIssued = 250;
    s.l1Accesses = 10;
    s.l1Misses = 5;
    const auto flat = flattenStats(s);
    auto find = [&](const std::string &name) -> double {
        for (const auto &[k, v] : flat)
            if (k == name)
                return v;
        ADD_FAILURE() << "missing metric " << name;
        return -1;
    };
    EXPECT_DOUBLE_EQ(find("cycles"), 100.0);
    EXPECT_DOUBLE_EQ(find("ipc"), 2.5);
    EXPECT_DOUBLE_EQ(find("l1_miss_rate"), 0.5);
    EXPECT_DOUBLE_EQ(find("stall_LongMemoryLatency"), 0.0);
}

TEST(FlattenStats, OneEntryPerStallKind)
{
    const auto flat = flattenStats(GpuStats{});
    unsigned stalls = 0;
    for (const auto &[k, v] : flat)
        stalls += k.rfind("stall_", 0) == 0;
    EXPECT_EQ(stalls, numStallKinds);
}
