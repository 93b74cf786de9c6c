#include "core/reports.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace ndet {

Table2Row make_table2_row(const std::string& circuit,
                          const WorstCaseResult& worst) {
  Table2Row row;
  row.circuit = circuit;
  row.fault_count = worst.nmin.size();
  for (std::size_t c = 0; c < kTable2Thresholds.size(); ++c)
    row.fraction[c] = worst.fraction_at_most(kTable2Thresholds[c]);
  return row;
}

Table3Row make_table3_row(const std::string& circuit,
                          const WorstCaseResult& worst) {
  Table3Row row;
  row.circuit = circuit;
  row.fault_count = worst.nmin.size();
  for (std::size_t c = 0; c < kTable3Thresholds.size(); ++c)
    row.count[c] = worst.count_at_least(kTable3Thresholds[c]);
  return row;
}

ProbabilityRow make_probability_row(const std::string& circuit,
                                    const AverageCaseResult& avg, int n) {
  ProbabilityRow row;
  row.circuit = circuit;
  row.fault_count = avg.monitored.size();
  row.definition = avg.config.definition == DetectionDefinition::kStandard ? 1 : 2;
  for (std::size_t c = 0; c < kProbabilityThresholds.size(); ++c)
    row.at_least[c] =
        avg.count_probability_at_least(n, kProbabilityThresholds[c]);
  return row;
}

TextTable render_table2(const std::vector<Table2Row>& rows) {
  std::vector<std::string> headers{"circuit", "faults"};
  for (const std::uint64_t t : kTable2Thresholds)
    headers.push_back("<=" + std::to_string(t));
  TextTable table(std::move(headers));
  for (const Table2Row& row : rows) {
    std::vector<std::string> cells{row.circuit, std::to_string(row.fault_count)};
    bool saturated = false;
    for (const double f : row.fraction) {
      if (saturated) {
        cells.emplace_back("");
        continue;
      }
      cells.push_back(format_percent(f));
      if (f >= 1.0 - 1e-12) saturated = true;  // paper: stop after 100%
    }
    table.add_row(std::move(cells));
  }
  return table;
}

TextTable render_table3(const std::vector<Table3Row>& rows) {
  std::vector<std::string> headers{"circuit", "faults"};
  for (const std::uint64_t t : kTable3Thresholds)
    headers.push_back(">=" + std::to_string(t));
  TextTable table(std::move(headers));
  for (const Table3Row& row : rows) {
    std::vector<std::string> cells{row.circuit, std::to_string(row.fault_count)};
    for (const std::size_t count : row.count) {
      const double pct = row.fault_count == 0
                             ? 0.0
                             : static_cast<double>(count) /
                                   static_cast<double>(row.fault_count);
      cells.push_back(std::to_string(count) + " (" + format_percent(pct) + ")");
    }
    table.add_row(std::move(cells));
  }
  return table;
}

namespace {

std::vector<std::string> probability_headers() {
  std::vector<std::string> headers;
  for (const double t : kProbabilityThresholds) {
    std::string label = format_fixed(t, 1);
    if (label == "1.0") label = "1";
    headers.push_back(">=" + label);
  }
  return headers;
}

std::vector<std::string> probability_cells(const ProbabilityRow& row) {
  std::vector<std::string> cells;
  bool saturated = false;
  for (const std::size_t count : row.at_least) {
    if (saturated) {
      cells.emplace_back("");
      continue;
    }
    cells.push_back(std::to_string(count));
    if (count == row.fault_count) saturated = true;  // all faults covered
  }
  return cells;
}

}  // namespace

TextTable render_table5(const std::vector<ProbabilityRow>& rows) {
  std::vector<std::string> headers{"circuit", "faults"};
  for (auto& h : probability_headers()) headers.push_back(std::move(h));
  TextTable table(std::move(headers));
  for (const ProbabilityRow& row : rows) {
    std::vector<std::string> cells{row.circuit, std::to_string(row.fault_count)};
    for (auto& c : probability_cells(row)) cells.push_back(std::move(c));
    table.add_row(std::move(cells));
  }
  return table;
}

TextTable render_table6(const std::vector<ProbabilityRow>& rows) {
  require(rows.size() % 2 == 0,
          "render_table6: expected Definition-1/Definition-2 row pairs");
  std::vector<std::string> headers{"circuit", "faults", "def"};
  for (auto& h : probability_headers()) headers.push_back(std::move(h));
  TextTable table(std::move(headers));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const ProbabilityRow& row = rows[r];
    std::vector<std::string> cells;
    if (r % 2 == 0) {
      cells = {row.circuit, std::to_string(row.fault_count),
               std::to_string(row.definition)};
    } else {
      cells = {"", "", std::to_string(row.definition)};
    }
    for (auto& c : probability_cells(row)) cells.push_back(std::move(c));
    table.add_row(std::move(cells));
    if (r % 2 == 1 && r + 1 != rows.size()) table.add_separator();
  }
  return table;
}

std::vector<std::pair<std::uint64_t, std::size_t>> figure2_histogram(
    const WorstCaseResult& worst, std::uint64_t cutoff) {
  std::vector<std::pair<std::uint64_t, std::size_t>> out;
  for (const auto& [value, count] : worst.histogram()) {
    if (value == kNeverGuaranteed || value < cutoff) continue;
    out.emplace_back(value, count);
  }
  return out;
}

std::string describe_set_memory(const DetectionDb& db) {
  std::size_t sparse = 0;
  for (const DetectionSet& set : db.target_sets())
    if (set.representation() == DetectionSet::Rep::kSparse) ++sparse;
  const DetectionDb::SetStorage storage = db.set_storage();
  std::ostringstream os;
  os << "detection-set storage: " << storage.total() << " bytes (T(f): "
     << storage.target_set_bytes << " bytes, " << sparse << " of "
     << db.target_sets().size() << " sets sparse; T(g) factored: "
     << storage.row_bytes << " bytes of Obs/good-value rows over "
     << storage.site_rows << " sites + " << storage.count_bytes
     << " bytes of |T(g)| for " << db.untargeted().size()
     << " faults; all-dense would be " << db.dense_memory_bytes()
     << " bytes)";
  return os.str();
}

std::string to_json(const Table2Row& row) {
  JsonWriter w;
  w.begin_object();
  w.key("circuit").value(row.circuit);
  w.key("fault_count").value(static_cast<std::uint64_t>(row.fault_count));
  w.key("fraction_at_most").begin_object();
  for (std::size_t c = 0; c < kTable2Thresholds.size(); ++c)
    w.key(std::to_string(kTable2Thresholds[c])).value(row.fraction[c]);
  w.end_object();
  w.end_object();
  return w.str();
}

std::string to_json(const Table3Row& row) {
  JsonWriter w;
  w.begin_object();
  w.key("circuit").value(row.circuit);
  w.key("fault_count").value(static_cast<std::uint64_t>(row.fault_count));
  w.key("count_at_least").begin_object();
  for (std::size_t c = 0; c < kTable3Thresholds.size(); ++c)
    w.key(std::to_string(kTable3Thresholds[c]))
        .value(static_cast<std::uint64_t>(row.count[c]));
  w.end_object();
  w.end_object();
  return w.str();
}

std::string to_json(const ProbabilityRow& row) {
  JsonWriter w;
  w.begin_object();
  w.key("circuit").value(row.circuit);
  w.key("fault_count").value(static_cast<std::uint64_t>(row.fault_count));
  w.key("definition").value(row.definition);
  w.key("count_probability_at_least").begin_object();
  for (std::size_t c = 0; c < kProbabilityThresholds.size(); ++c)
    w.key(format_fixed(kProbabilityThresholds[c], 1))
        .value(static_cast<std::uint64_t>(row.at_least[c]));
  w.end_object();
  w.end_object();
  return w.str();
}

namespace {

template <typename Row>
std::string rows_to_json(const std::vector<Row>& rows) {
  JsonWriter w;
  w.begin_array();
  for (const Row& row : rows) w.raw(to_json(row));
  w.end_array();
  return w.str();
}

}  // namespace

std::string to_json(const std::vector<Table2Row>& rows) {
  return rows_to_json(rows);
}
std::string to_json(const std::vector<Table3Row>& rows) {
  return rows_to_json(rows);
}
std::string to_json(const std::vector<ProbabilityRow>& rows) {
  return rows_to_json(rows);
}

std::string render_figure2(
    const std::vector<std::pair<std::uint64_t, std::size_t>>& histogram) {
  std::size_t max_count = 1;
  for (const auto& [value, count] : histogram)
    max_count = std::max(max_count, count);
  constexpr std::size_t kBarWidth = 50;
  std::ostringstream os;
  os << "  n_min  #faults\n";
  for (const auto& [value, count] : histogram) {
    const auto bar = std::max<std::size_t>(1, count * kBarWidth / max_count);
    os << std::string(7 - std::min<std::size_t>(
                              7, std::to_string(value).size()), ' ')
       << value << "  " << std::string(8 - std::min<std::size_t>(
                                8, std::to_string(count).size()), ' ')
       << count << "  " << std::string(bar, '#') << '\n';
  }
  if (histogram.empty()) os << "  (no faults above the cutoff)\n";
  return os.str();
}

}  // namespace ndet
