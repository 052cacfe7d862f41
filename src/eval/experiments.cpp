#include "eval/experiments.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "core/growth_rate.h"
#include "eval/series.h"
#include "eval/table.h"

namespace dlm::eval {
namespace {

const social::distance_partition& partition_for(
    const digg::digg_dataset& data, std::size_t story_index,
    social::distance_metric metric) {
  if (story_index >= data.flagship_ids.size())
    throw std::out_of_range("experiments: bad flagship story index");
  return metric == social::distance_metric::friendship_hops
             ? data.hop_partitions[story_index]
             : data.interest_partitions[story_index];
}

}  // namespace

social::density_field experiment_context::density(
    std::size_t story_index, social::distance_metric metric) const {
  const auto& partition = partition_for(data, story_index, metric);
  return social::density_field(data.network, data.flagship_ids[story_index],
                               partition, data.config.horizon_hours);
}

experiment_context experiment_context::make(
    const digg::scenario_config& config) {
  return experiment_context{digg::make_dataset(config)};
}

// ---------------------------------------------------------------- Fig. 2

fig2_result run_fig2(const experiment_context& ctx) {
  fig2_result result;
  for (std::size_t s = 0; s < ctx.data.flagship_ids.size(); ++s) {
    result.story_names.push_back(ctx.data.config.stories[s].name);
    const auto fractions = ctx.data.hop_partitions[s].group_fractions();
    std::vector<double> row(10, 0.0);
    for (std::size_t k = 1; k < fractions.size() && k <= 10; ++k)
      row[k - 1] = fractions[k];
    result.fraction.push_back(std::move(row));
  }
  return result;
}

void print_fig2(std::ostream& out, const fig2_result& result) {
  out << "Figure 2 — distribution of users by friendship-hop distance\n"
      << "(paper: hop 3 holds >40% of reachable users for all stories;\n"
      << " population collapses beyond hop 5)\n\n";
  std::vector<std::string> headers{"distance"};
  for (const auto& name : result.story_names) headers.push_back(name);
  text_table table(std::move(headers));
  for (std::size_t k = 0; k < 10; ++k) {
    std::vector<std::string> row{std::to_string(k + 1)};
    for (const auto& story : result.fraction)
      row.push_back(text_table::pct(story[k], 1));
    table.add_row(std::move(row));
  }
  out << table << "\n";
}

// ------------------------------------------------------- Fig. 3 / Fig. 5

int density_series_result::saturation_hour() const {
  if (density.empty()) return 0;
  // Track the distance-1 series (the paper's top line).
  const std::vector<double>& top = density.front();
  const double final_value = top.back();
  if (final_value <= 0.0) return 0;
  for (std::size_t h = 0; h < top.size(); ++h) {
    if (top[h] >= 0.95 * final_value) return static_cast<int>(h + 1);
  }
  return static_cast<int>(top.size());
}

density_series_result run_density_series(const experiment_context& ctx,
                                         std::size_t story_index,
                                         social::distance_metric metric,
                                         int max_distance) {
  const social::density_field field = ctx.density(story_index, metric);
  density_series_result result;
  result.story_name = ctx.data.config.stories[story_index].name;
  result.metric = metric;
  const int upper = std::min(max_distance, field.max_distance());
  for (int x = 1; x <= upper; ++x) {
    result.distances.push_back(x);
    result.density.push_back(field.series_at_distance(x));
  }
  return result;
}

void print_density_series(std::ostream& out, const density_series_result& r,
                          const std::string& figure_name) {
  out << figure_name << " — density of influenced users over "
      << (r.density.empty() ? 0 : r.density.front().size()) << " hours, story "
      << r.story_name << ", distance metric: " << social::to_string(r.metric)
      << "\n";
  std::vector<labeled_series> series;
  for (std::size_t i = 0; i < r.density.size(); ++i)
    series.push_back({"d=" + std::to_string(r.distances[i]), r.density[i]});
  const std::size_t samples[] = {0, 4, 9, 19, 29, 49};
  print_series_chart(out, "", series, samples);
  out << "  distance-1 series within 5% of its final value by hour "
      << r.saturation_hour() << "\n\n";
}

// ---------------------------------------------------------------- Fig. 4

fig4_result run_fig4(const experiment_context& ctx) {
  const social::density_field field =
      ctx.density(0, social::distance_metric::friendship_hops);
  fig4_result result;
  const int upper = std::min(5, field.max_distance());
  for (int x = 1; x <= upper; ++x) result.distances.push_back(x);
  for (int t = 1; t <= field.hours(); ++t) {
    std::vector<double> profile;
    profile.reserve(result.distances.size());
    for (int x : result.distances)
      profile.push_back(field.at(x, t));
    result.profile.push_back(std::move(profile));
  }
  return result;
}

std::vector<double> fig4_result::increments_at_distance1() const {
  std::vector<double> inc;
  for (std::size_t h = 1; h < profile.size(); ++h)
    inc.push_back(profile[h][0] - profile[h - 1][0]);
  return inc;
}

void print_fig4(std::ostream& out, const fig4_result& result) {
  out << "Figure 4 — story s1 density vs distance, one row per hour\n"
      << "(paper: densities increase with t; hour-over-hour increments "
         "shrink,\n motivating a decreasing growth rate r(t))\n\n";
  std::vector<std::string> headers{"hour"};
  for (int x : result.distances) headers.push_back("d=" + std::to_string(x));
  text_table table(std::move(headers));
  for (std::size_t h = 0; h < result.profile.size(); ++h) {
    if ((h + 1) % 5 != 0 && h != 0) continue;  // print hours 1,5,10,...
    std::vector<std::string> row{std::to_string(h + 1)};
    for (double v : result.profile[h]) row.push_back(text_table::num(v, 2));
    table.add_row(std::move(row));
  }
  out << table;

  const std::vector<double> inc = result.increments_at_distance1();
  std::size_t shrinking = 0;
  for (std::size_t h = 1; h < inc.size(); ++h) {
    if (inc[h] <= inc[h - 1] + 1e-9) ++shrinking;
  }
  out << "\n  hour-over-hour increments at distance 1 shrink in "
      << shrinking << "/" << (inc.empty() ? 0 : inc.size() - 1)
      << " consecutive hour pairs\n\n";
}

// ---------------------------------------------------------------- Fig. 6

fig6_result run_fig6() {
  fig6_result result;
  const core::growth_rate r = core::growth_rate::paper_hops();
  for (double t = 1.0; t <= 5.0 + 1e-9; t += 0.25) {
    result.times.push_back(t);
    result.rate.push_back(r(t));
  }
  return result;
}

void print_fig6(std::ostream& out, const fig6_result& result) {
  out << "Figure 6 — growth rate r(t) = 1.4*exp(-1.5 (t-1)) + 0.25 "
         "(paper Eq. 7)\n\n";
  text_table table({"t", "r(t)"});
  for (std::size_t i = 0; i < result.times.size(); ++i)
    table.add_row({text_table::num(result.times[i], 2),
                   text_table::num(result.rate[i], 4)});
  out << table;
  out << "\n  r(1) = " << text_table::num(result.rate.front(), 3)
      << ", r(5) = " << text_table::num(result.rate.back(), 3)
      << " (decreasing, floor 0.25)\n\n";
}

// ------------------------------------------- Fig. 7 / Table I / Table II

paper_sweeps make_paper_sweeps(digg::digg_dataset data, int max_hops) {
  paper_sweeps sweeps;
  sweeps.context =
      engine::scenario_context::from_dataset(std::move(data), max_hops);
  const std::size_t hops = 0;
  const std::size_t interests = 1;

  sweeps.prediction.models = {"dl"};
  sweeps.prediction.slices = {hops, interests};

  sweeps.diffusion_ablation.models = {"dl", "heat", "per_distance_logistic"};
  sweeps.diffusion_ablation.slices = {hops};

  // The calibrate specs fit on the t <= 4 window and are evaluated on
  // t = 2..6 like every other row; the spatial rows evaluate the paper's
  // §V r(x, t) conjecture on the same slice.
  sweeps.growth_ablation.models = {"dl"};
  sweeps.growth_ablation.slices = {hops};
  sweeps.growth_ablation.rates = {
      "preset",        "constant:0.25",
      "constant:0.5",  "constant:0.8",
      "spatial:preset|1.25,1,0.85,0.7,0.6,0.5",
      "calibrate:4",   "calibrate-spatial:4"};

  sweeps.options.keep_traces = true;
  sweeps.options.calibration.a_max = 3.0;
  sweeps.options.calibration.b_min = 0.5;
  sweeps.options.calibration.c_max = 0.6;
  return sweeps;
}

core::accuracy_table trace_accuracy(const engine::model_trace& trace,
                                    const engine::dataset_slice& slice) {
  std::vector<std::vector<double>> actual(trace.distances.size());
  for (std::size_t i = 0; i < trace.distances.size(); ++i) {
    for (const double t : trace.times)
      actual[i].push_back(
          slice.actual_at(trace.distances[i], static_cast<int>(t)));
  }
  return core::make_accuracy_table(trace.distances, trace.times,
                                   trace.predicted, actual);
}

void print_fig7(std::ostream& out, const engine::model_trace& trace,
                const engine::dataset_slice& slice) {
  out << "Figure 7 — predicted vs actual density, story " << slice.story
      << ", metric: " << social::to_string(slice.metric) << "\n"
      << "model: " << slice.base_params.describe() << "\n\n";
  std::vector<std::string> headers{"t"};
  for (int x : trace.distances) {
    headers.push_back("actual d=" + std::to_string(x));
    headers.push_back("pred d=" + std::to_string(x));
  }
  text_table table(std::move(headers));
  // t = 1 is the model's input: predicted equals actual there.
  std::vector<std::string> first{"1"};
  for (const double v : slice.profile_at(1)) {
    first.push_back(text_table::num(v, 2));
    first.push_back(text_table::num(v, 2));
  }
  table.add_row(std::move(first));
  for (std::size_t j = 0; j < trace.times.size(); ++j) {
    std::vector<std::string> row{text_table::num(trace.times[j], 0)};
    for (std::size_t i = 0; i < trace.distances.size(); ++i) {
      row.push_back(text_table::num(
          slice.actual_at(trace.distances[i], static_cast<int>(trace.times[j])),
          2));
      row.push_back(text_table::num(trace.predicted[i][j], 2));
    }
    table.add_row(std::move(row));
  }
  out << table << "\n";
}

const std::vector<paper_accuracy_row>& paper_table1() {
  static const std::vector<paper_accuracy_row> rows = {
      {1, 98.27, 97.47, 97.74, 97.48, 99.55, 99.09},
      {2, 86.99, 93.59, 96.63, 87.16, 80.80, 76.78},
      {3, 90.28, 83.23, 87.98, 90.99, 93.35, 95.94},
      {4, 92.98, 86.75, 91.39, 99.00, 95.68, 92.06},
      {5, 93.77, 89.05, 91.61, 97.79, 97.92, 92.49},
      {6, 94.56, 90.03, 89.48, 96.04, 97.57, 99.67},
  };
  return rows;
}

const std::vector<paper_accuracy_row>& paper_table2() {
  static const std::vector<paper_accuracy_row> rows = {
      {1, 97.21, 98.74, 96.75, 92.70, 97.91, 99.97},
      {2, 93.67, 86.58, 93.99, 96.11, 96.14, 95.52},
      {3, 93.11, 87.71, 92.86, 96.14, 95.39, 93.44},
      {4, 91.64, 87.18, 91.38, 93.23, 93.63, 92.75},
      {5, 39.84, 66.26, 44.43, 33.91, 28.68, 25.92},
  };
  return rows;
}

void print_accuracy_table(std::ostream& out,
                          const engine::dataset_slice& slice,
                          const core::accuracy_table& accuracy,
                          const std::vector<paper_accuracy_row>& reference,
                          const std::string& table_name) {
  out << table_name << " — prediction accuracy, story " << slice.story
      << ", metric: " << social::to_string(slice.metric) << "\n"
      << "(measured on the synthetic dataset; paper values in "
         "parentheses)\n\n";

  text_table table({"distance", "average", "t=2", "t=3", "t=4", "t=5", "t=6"});
  const std::vector<double> row_avg = accuracy.row_averages();
  for (std::size_t i = 0; i < accuracy.distances.size(); ++i) {
    const paper_accuracy_row* paper = nullptr;
    for (const auto& row : reference) {
      if (static_cast<int>(row[0]) == accuracy.distances[i]) paper = &row;
    }
    std::vector<std::string> cells;
    cells.push_back(std::to_string(accuracy.distances[i]));
    const auto fmt = [&](double measured, double paper_pct) {
      return text_table::pct(measured, 2) + " (" +
             text_table::num(paper_pct, 2) + "%)";
    };
    cells.push_back(fmt(row_avg[i], paper ? (*paper)[1] : 0.0));
    for (std::size_t j = 0; j < accuracy.times.size() && j < 5; ++j)
      cells.push_back(fmt(accuracy.cells[i][j], paper ? (*paper)[j + 2] : 0.0));
    table.add_row(std::move(cells));
  }
  out << table;
  out << "\n  overall average accuracy: "
      << text_table::pct(accuracy.overall_average(), 2) << "\n\n";
}

}  // namespace dlm::eval
