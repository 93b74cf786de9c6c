// reports.hpp -- row generators and renderers for the paper's tables.
//
// Each experiment binary in bench/ assembles rows through these helpers so
// the layout conventions of the paper are applied uniformly:
//   * Table 2: cumulative percentage of G guaranteed detected for
//     n in {1,2,3,4,5,10}; once a column reaches 100% the later columns are
//     left blank ("we do not report on higher values of n").
//   * Table 3: number (and percentage) of faults with nmin >= {100,20,11}.
//   * Tables 5/6: number of monitored faults with p(10,g) >= threshold for
//     thresholds 1.0,0.9,...,0.1,0.0; once a cell covers all monitored
//     faults the remaining cells are blank.
//   * Figure 2: the nmin histogram above a cutoff.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/procedure1.hpp"
#include "core/worst_case.hpp"
#include "util/table.hpp"

namespace ndet {

/// The n thresholds of Table 2.
inline constexpr std::array<std::uint64_t, 6> kTable2Thresholds{1, 2, 3,
                                                                4, 5, 10};
/// The nmin thresholds of Table 3.
inline constexpr std::array<std::uint64_t, 3> kTable3Thresholds{100, 20, 11};
/// The probability thresholds of Tables 5 and 6.
inline constexpr std::array<double, 11> kProbabilityThresholds{
    1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0};

/// One row of Table 2 (worst-case percentages, small n).
struct Table2Row {
  std::string circuit;
  std::size_t fault_count = 0;
  std::array<double, kTable2Thresholds.size()> fraction{};  // of |G|
};
Table2Row make_table2_row(const std::string& circuit,
                          const WorstCaseResult& worst);

/// One row of Table 3 (worst-case counts, large n).
struct Table3Row {
  std::string circuit;
  std::size_t fault_count = 0;
  std::array<std::size_t, kTable3Thresholds.size()> count{};
};
Table3Row make_table3_row(const std::string& circuit,
                          const WorstCaseResult& worst);

/// One row of Table 5 / one definition-row of Table 6.
struct ProbabilityRow {
  std::string circuit;
  std::size_t fault_count = 0;  ///< number of monitored faults
  int definition = 1;
  std::array<std::size_t, kProbabilityThresholds.size()> at_least{};
};
ProbabilityRow make_probability_row(const std::string& circuit,
                                    const AverageCaseResult& avg, int n);

/// Renders rows in the paper's layout.
TextTable render_table2(const std::vector<Table2Row>& rows);
TextTable render_table3(const std::vector<Table3Row>& rows);
TextTable render_table5(const std::vector<ProbabilityRow>& rows);
/// Table 6 pairs a Definition-1 row and a Definition-2 row per circuit.
TextTable render_table6(const std::vector<ProbabilityRow>& rows);

/// JSON forms of the row structs (one object per row, one array per table);
/// the table harnesses surface them behind --json=<path>.
std::string to_json(const Table2Row& row);
std::string to_json(const Table3Row& row);
std::string to_json(const ProbabilityRow& row);
std::string to_json(const std::vector<Table2Row>& rows);
std::string to_json(const std::vector<Table3Row>& rows);
std::string to_json(const std::vector<ProbabilityRow>& rows);

/// Figure 2 input: (nmin, fault count) pairs with nmin >= cutoff, ascending,
/// excluding never-guaranteed faults.
std::vector<std::pair<std::uint64_t, std::size_t>> figure2_histogram(
    const WorstCaseResult& worst, std::uint64_t cutoff);

/// Renders the Figure 2 histogram as a textual bar chart.
std::string render_figure2(
    const std::vector<std::pair<std::uint64_t, std::size_t>>& histogram);

/// One-line storage summary of a database: total payload bytes, split into
/// the frozen T(f) sets (and how many froze sparse) and the factored T(g)
/// store (Obs/good-value rows and |T(g)| counts), against what every set
/// would take frozen all-dense.  Printed by the report CLIs so the storage
/// win is visible next to the analysis numbers.
std::string describe_set_memory(const DetectionDb& db);

}  // namespace ndet
