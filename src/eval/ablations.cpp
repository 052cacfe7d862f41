#include "eval/ablations.h"

#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/experiments.h"
#include "eval/table.h"

namespace dlm::eval {
namespace {

/// The growth-ablation label of one row: its rate spec in words, with the
/// fitted values for the calibrated rows.
std::string growth_label(const engine::result_row& row) {
  if (row.rate == "preset") return "paper r(t) = 1.4 exp(-1.5(t-1)) + 0.25";
  if (row.rate.starts_with("constant:"))
    return "constant r = " + row.rate.substr(sizeof("constant:") - 1);
  if (row.rate.starts_with("spatial:"))
    return "fixed r(x,t) = m(x)*preset, m = " +
           row.rate.substr(row.rate.find('|') + 1);
  if (row.rate.starts_with("calibrate-spatial")) {
    std::string label = "calibrated r(x,t) (fit m on t<=4): m = ";
    for (std::size_t i = 0; i < row.fit_m.size(); ++i) {
      if (i > 0) label += ',';
      label += text_table::num(row.fit_m[i], 2);
    }
    return label;
  }
  return "calibrated r(t) (fit on t<=4): r(t) = " +
         text_table::num(row.fit_a, 2) + " exp(-" +
         text_table::num(row.fit_b, 2) + "(t-1)) + " +
         text_table::num(row.fit_c, 2);
}

}  // namespace

void print_diffusion_ablation(std::ostream& out,
                              const engine::scenario_context& context,
                              const engine::sweep_result& result) {
  // Per-distance accuracy of one model's row, in the printed column order.
  const auto per_distance = [&](const std::string& model) {
    for (std::size_t i = 0; i < result.table.size(); ++i) {
      const engine::result_row& row = result.table.row(i);
      if (row.model == model)
        return trace_accuracy(result.traces.at(i), context.slice(row.slice))
            .row_averages();
    }
    throw std::invalid_argument("print_diffusion_ablation: no '" + model +
                                "' row in the sweep");
  };
  const std::vector<std::vector<double>> columns = {
      per_distance("dl"), per_distance("per_distance_logistic"),
      per_distance("heat")};

  out << "Ablation — what the diffusion term buys (story s1, hops)\n"
      << "DL = full model; logistic = growth only (d=0, temporal baseline);\n"
      << "heat = diffusion only (r=0; mass-conserving, cannot grow)\n\n";
  text_table table({"distance", "DL", "logistic (d=0)", "heat (r=0)"});
  const std::size_t distances = columns.front().size();
  for (std::size_t i = 0; i < distances; ++i) {
    std::vector<std::string> cells{std::to_string(i + 1)};
    for (const auto& column : columns)
      cells.push_back(text_table::pct(column[i], 2));
    table.add_row(std::move(cells));
  }
  std::vector<std::string> overall{"overall"};
  for (const auto& column : columns) {
    double sum = 0.0;
    for (const double v : column) sum += v;
    overall.push_back(
        text_table::pct(sum / static_cast<double>(column.size()), 2));
  }
  table.add_row(std::move(overall));
  out << table << "\n";
}

void print_growth_ablation(std::ostream& out,
                           const engine::result_table& table) {
  out << "Ablation — growth-rate family (story s1, hops, t = 2..6)\n"
      << "fit SSE = squared residuals on the t <= 4 window (calibrated\n"
      << "rows); calibrated r(x,t) vs r(t) evaluates the paper's §V\n"
      << "spatio-temporal conjecture on the same Digg slice\n\n";
  text_table text({"growth rate", "overall accuracy", "fit SSE"});
  for (const engine::result_row& row : table.rows()) {
    const bool fitted = row.rate.starts_with("calibrate");
    text.add_row({growth_label(row), text_table::pct(row.accuracy, 2),
                  fitted ? text_table::num(row.fit_sse, 3) : "-"});
  }
  out << text << "\n";
}

}  // namespace dlm::eval
