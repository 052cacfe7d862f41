#include "eval/ablations.h"

#include <cmath>
#include <ostream>

#include "core/accuracy.h"
#include "core/dl_model.h"
#include "engine/scenario_runner.h"
#include "eval/table.h"
#include "models/heat_model.h"
#include "models/per_distance_logistic.h"

namespace dlm::eval {
namespace {

/// Mean prediction accuracy of `predicted` against `r.actual` over
/// t = 2..6 for one distance row.
double row_accuracy(const std::vector<double>& predicted,
                    const std::vector<double>& actual) {
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t j = 1; j < actual.size(); ++j) {  // skip t = 1
    acc += core::prediction_accuracy(predicted[j], actual[j]);
    ++n;
  }
  return n > 0 ? acc / static_cast<double>(n) : 0.0;
}

}  // namespace

diffusion_ablation_result run_diffusion_ablation(
    const experiment_context& ctx, std::size_t story_index,
    social::distance_metric metric, int max_distance) {
  const prediction_experiment dl =
      run_prediction(ctx, story_index, metric, max_distance);

  diffusion_ablation_result out;
  out.distances = dl.distances;

  // Initial profile shared by all three models.
  std::vector<double> initial;
  for (const auto& row : dl.actual) initial.push_back(row.front());

  // Growth-only baseline (d = 0): per-distance logistic under the same
  // rate field and K — one callable per distance group, so a spatial
  // r(x, t) keeps its per-group rates here too.
  const core::rate_field rate = dl.params.r;
  std::vector<models::rate_fn> rates;
  for (const int x : dl.distances)
    rates.push_back([rate, x](double t) { return rate(x, t); });
  models::per_distance_logistic logistic(initial, /*t0=*/1.0, dl.params.k,
                                         std::move(rates));

  // Diffusion-only baseline: Neumann heat equation from the same profile.
  const std::size_t heat_nodes = 101;
  core::initial_condition phi(initial);
  const std::vector<double> phi_samples =
      phi.sample(dl.params.x_min, static_cast<double>(max_distance),
                 heat_nodes);

  double dl_acc = 0.0, log_acc = 0.0, heat_acc = 0.0;
  for (std::size_t i = 0; i < dl.distances.size(); ++i) {
    // DL rows come from the prediction experiment.
    out.dl_accuracy.push_back(
        row_accuracy(dl.predicted[i], dl.actual[i]));

    // Logistic rows.
    std::vector<double> log_pred{initial[i]};
    for (std::size_t j = 1; j < dl.times.size(); ++j)
      log_pred.push_back(logistic.predict(dl.times[j])[i]);
    out.logistic_accuracy.push_back(row_accuracy(log_pred, dl.actual[i]));

    // Heat rows: evaluate the series solution at the integer distance.
    std::vector<double> heat_pred{initial[i]};
    for (std::size_t j = 1; j < dl.times.size(); ++j) {
      const std::vector<double> profile = models::heat_neumann_series(
          phi_samples, dl.params.x_min, static_cast<double>(max_distance),
          dl.params.d, dl.times[j] - 1.0);
      const double pos = (static_cast<double>(dl.distances[i]) -
                          dl.params.x_min) /
                         (static_cast<double>(max_distance) - dl.params.x_min);
      const auto idx = static_cast<std::size_t>(
          std::lround(pos * static_cast<double>(heat_nodes - 1)));
      heat_pred.push_back(profile[idx]);
    }
    out.heat_accuracy.push_back(row_accuracy(heat_pred, dl.actual[i]));

    dl_acc += out.dl_accuracy.back();
    log_acc += out.logistic_accuracy.back();
    heat_acc += out.heat_accuracy.back();
  }
  const auto n = static_cast<double>(dl.distances.size());
  out.dl_overall = dl_acc / n;
  out.logistic_overall = log_acc / n;
  out.heat_overall = heat_acc / n;
  return out;
}

void print_diffusion_ablation(std::ostream& out,
                              const diffusion_ablation_result& r) {
  out << "Ablation — what the diffusion term buys (story s1, hops)\n"
      << "DL = full model; logistic = growth only (d=0, temporal baseline);\n"
      << "heat = diffusion only (r=0; mass-conserving, cannot grow)\n\n";
  text_table table({"distance", "DL", "logistic (d=0)", "heat (r=0)"});
  for (std::size_t i = 0; i < r.distances.size(); ++i) {
    table.add_row({std::to_string(r.distances[i]),
                   text_table::pct(r.dl_accuracy[i], 2),
                   text_table::pct(r.logistic_accuracy[i], 2),
                   text_table::pct(r.heat_accuracy[i], 2)});
  }
  table.add_row({"overall", text_table::pct(r.dl_overall, 2),
                 text_table::pct(r.logistic_overall, 2),
                 text_table::pct(r.heat_overall, 2)});
  out << table << "\n";
}

std::vector<growth_ablation_row> run_growth_ablation(
    const experiment_context& ctx, std::size_t story_index) {
  const int max_distance = 6;
  const social::density_field field =
      ctx.density(story_index, social::distance_metric::friendship_hops);
  const int upper = std::min(max_distance, field.max_distance());

  // The observed surface (t = 1..6) as an engine slice; the whole
  // ablation is then one engine sweep over the `rates` axis.  The
  // calibrated variants are "calibrate" specs (fit on the t <= 4 window,
  // evaluate on t = 2..6) instead of hand-rolled fit::calibrate_dl
  // calls; the spatial rows ("spatial:...", "calibrate-spatial:4")
  // evaluate the paper's §V r(x, t) conjecture on the same Digg slice.
  std::vector<std::vector<double>> surface(static_cast<std::size_t>(upper));
  for (int x = 1; x <= upper; ++x) {
    for (int t = 1; t <= 6; ++t)
      surface[static_cast<std::size_t>(x - 1)].push_back(field.at(x, t));
  }
  const engine::scenario_context context = engine::scenario_context::
      from_surface("growth-ablation", social::distance_metric::friendship_hops,
                   std::move(surface), core::dl_parameters::paper_hops(upper));

  engine::sweep_spec spec;
  spec.models = {"dl"};
  spec.rates = {"preset", "constant:0.25", "constant:0.5", "constant:0.8",
                "spatial:preset|1.25,1,0.85,0.7,0.6,0.5", "calibrate:4",
                "calibrate-spatial:4"};
  spec.t_end = 6.0;

  engine::solve_cache cache;
  engine::runner_options options;
  options.cache = &cache;
  options.calibration.a_max = 3.0;
  options.calibration.b_min = 0.5;
  options.calibration.c_max = 0.6;
  const engine::sweep_result result =
      engine::run_sweep(context, spec, options);

  std::vector<growth_ablation_row> rows;
  for (const engine::result_row& row : result.table.rows()) {
    growth_ablation_row out_row;
    if (row.rate == "preset") {
      out_row.label = "paper r(t) = 1.4 exp(-1.5(t-1)) + 0.25";
    } else if (row.rate.starts_with("constant:")) {
      out_row.label =
          "constant r = " + row.rate.substr(sizeof("constant:") - 1);
    } else if (row.rate.starts_with("spatial:")) {
      out_row.label = "fixed r(x,t) = m(x)*preset, m = " +
                      row.rate.substr(row.rate.find('|') + 1);
    } else if (row.rate.starts_with("calibrate-spatial")) {
      out_row.fitted = true;
      out_row.fit_sse = row.fit_sse;
      out_row.label = "calibrated r(x,t) (fit m on t<=4): m = ";
      for (std::size_t i = 0; i < row.fit_m.size(); ++i) {
        if (i > 0) out_row.label += ',';
        out_row.label += text_table::num(row.fit_m[i], 2);
      }
    } else {
      out_row.fitted = true;
      out_row.fit_sse = row.fit_sse;
      out_row.label = "calibrated r(t) (fit on t<=4): r(t) = " +
                      text_table::num(row.fit_a, 2) + " exp(-" +
                      text_table::num(row.fit_b, 2) + "(t-1)) + " +
                      text_table::num(row.fit_c, 2);
    }
    out_row.overall_accuracy = row.accuracy;
    rows.push_back(std::move(out_row));
  }
  return rows;
}

void print_growth_ablation(std::ostream& out,
                           const std::vector<growth_ablation_row>& rows) {
  out << "Ablation — growth-rate family (story s1, hops, t = 2..6)\n"
      << "fit SSE = squared residuals on the t <= 4 window (calibrated\n"
      << "rows); calibrated r(x,t) vs r(t) evaluates the paper's §V\n"
      << "spatio-temporal conjecture on the same Digg slice\n\n";
  text_table table({"growth rate", "overall accuracy", "fit SSE"});
  for (const auto& row : rows)
    table.add_row({row.label, text_table::pct(row.overall_accuracy, 2),
                   row.fitted ? text_table::num(row.fit_sse, 3) : "-"});
  out << table << "\n";
}

}  // namespace dlm::eval
