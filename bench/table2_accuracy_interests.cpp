// Regenerates paper Table II: DL prediction accuracy for story s1 with
// shared interests as distance — per-group (1..5) accuracy at t = 2..6
// plus averages.  Paper shape: groups 1–4 all above 91% on average while
// group 5 collapses to 39.84% (the model overpredicts; the actual density
// of the most-distant interest group grows anomalously slowly), declining
// monotonically from 66% at t=2 to 26% at t=6.

#include <algorithm>
#include <iostream>

#include "eval/experiments.h"
#include "eval/table.h"

int main() {
  using namespace dlm;
  using namespace dlm::eval;
  const paper_sweeps paper =
      make_paper_sweeps(digg::make_dataset(digg::scenario_config{}));
  const engine::sweep_result result =
      engine::run_sweep(paper.context, paper.prediction, paper.options);
  const engine::dataset_slice& interests =
      paper.context.slice(result.table.row(1).slice);
  const core::accuracy_table accuracy =
      trace_accuracy(result.traces[1], interests);
  print_accuracy_table(std::cout, interests, accuracy, paper_table2(),
                       "Table II");

  const std::vector<double> rows = accuracy.row_averages();
  std::cout << "distance-5 anomaly check (paper: worst row by far, 39.84%):\n"
            << "  measured distance-5 average: "
            << text_table::pct(rows.back(), 2) << ", best other row: "
            << text_table::pct(
                   *std::max_element(rows.begin(), rows.end() - 1), 2)
            << "\n";
  return 0;
}
