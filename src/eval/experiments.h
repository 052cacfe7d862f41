// Experiment runners and printers: one per paper figure/table (DESIGN.md
// §2).
//
// Figs. 2–6 solve no model: they read the synthetic June-2009 dataset
// through an `experiment_context` and have a run_/print_ pair each.
// Fig. 7 and Tables I/II solve the DL model: they are the `prediction`
// sweep of `paper_sweeps`, run by engine::run_sweep, and their printers
// read its kept traces.  Bench binaries stay thin either way.  Paper
// reference values are embedded so each bench prints paper-vs-measured
// side by side, which EXPERIMENTS.md records.
#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/accuracy.h"
#include "digg/simulator.h"
#include "engine/scenario_runner.h"
#include "social/density.h"
#include "social/distance.h"

namespace dlm::eval {

/// Shared dataset context, built once per bench process.
struct experiment_context {
  digg::digg_dataset data;

  /// Density field of flagship story `story_index` under `metric`
  /// (horizon = scenario horizon).
  [[nodiscard]] social::density_field density(
      std::size_t story_index, social::distance_metric metric) const;

  /// Builds the dataset for `config` (defaults to the standard scenario).
  [[nodiscard]] static experiment_context make(
      const digg::scenario_config& config = digg::scenario_config{});
};

// ---------------------------------------------------------------- Fig. 2
/// Distribution of users over friendship-hop distance per story.
struct fig2_result {
  std::vector<std::string> story_names;
  /// fraction[story][k]: share of reachable users at hop k+1 (k < 10).
  std::vector<std::vector<double>> fraction;
};
[[nodiscard]] fig2_result run_fig2(const experiment_context& ctx);
void print_fig2(std::ostream& out, const fig2_result& result);

// ------------------------------------------------------- Fig. 3 / Fig. 5
/// Density over 50 hours at distances 1..max for one story and metric.
struct density_series_result {
  std::string story_name;
  social::distance_metric metric = social::distance_metric::friendship_hops;
  std::vector<int> distances;
  /// density[i][h]: density of distances[i] at hour h+1.
  std::vector<std::vector<double>> density;
  /// First hour at which the top-distance series is within 5% of its final
  /// value — the paper's "stable after about N hours" observation.
  [[nodiscard]] int saturation_hour() const;
};
[[nodiscard]] density_series_result run_density_series(
    const experiment_context& ctx, std::size_t story_index,
    social::distance_metric metric, int max_distance = 5);
void print_density_series(std::ostream& out, const density_series_result& r,
                          const std::string& figure_name);

// ---------------------------------------------------------------- Fig. 4
/// s1 density-vs-distance profiles, one per hour.
struct fig4_result {
  std::vector<int> distances;
  /// profile[h][i]: density at distances[i], hour h+1.
  std::vector<std::vector<double>> profile;
  /// Largest hour-over-hour increment at distance 1 per hour (shows the
  /// shrinking increments that motivate a decaying r(t)).
  [[nodiscard]] std::vector<double> increments_at_distance1() const;
};
[[nodiscard]] fig4_result run_fig4(const experiment_context& ctx);
void print_fig4(std::ostream& out, const fig4_result& result);

// ---------------------------------------------------------------- Fig. 6
/// The paper's growth-rate function sampled over [1, 6].
struct fig6_result {
  std::vector<double> times;
  std::vector<double> rate;
};
[[nodiscard]] fig6_result run_fig6();
void print_fig6(std::ostream& out, const fig6_result& result);

// ------------------------------------------- Fig. 7 / Table I / Table II
/// The paper's model-solving experiments as engine sweeps over one
/// dataset, defined once (like make_comparison_sweep): the benches, the
/// example and the tests run these specs through engine::run_sweep and
/// print or check the rows and kept traces.
struct paper_sweeps {
  /// One hop and one interest slice per flagship story (from_dataset);
  /// story s1's are slices 0 (hops) and 1 (interests).
  engine::scenario_context context;
  /// Fig. 7 and Tables I/II: DL (strang-cn, grid 20, dt 0.02, the
  /// metric's paper rate) solved from s1's hour-1 profile and scored at
  /// t = 2..6; row 0 is s1/hops, row 1 s1/interests.
  engine::sweep_spec prediction;
  /// Diffusion-term ablation on s1/hops: one row each for dl, heat
  /// (r = 0, diffusion only) and per_distance_logistic (d = 0, growth
  /// only), all from the same hour-1 profile.
  engine::sweep_spec diffusion_ablation;
  /// Growth-rate ablation on s1/hops: DL under the paper rate, three
  /// constants, a fixed spatial r(x, t) and rates calibrated on t <= 4,
  /// temporal and per-hop (paper §V).
  engine::sweep_spec growth_ablation;
  /// Options for every run: traces kept (the printers score them per
  /// distance) and the growth ablation's calibration box.
  engine::runner_options options;
};

/// Builds the paper sweeps over `data`, hop slices truncated at
/// `max_hops`.  Takes ownership of the dataset.
[[nodiscard]] paper_sweeps make_paper_sweeps(digg::digg_dataset data,
                                             int max_hops = 6);

/// Accuracy of a kept sweep trace against its slice's observed surface,
/// one row per distance and one column per evaluated hour (paper Eq. 8).
[[nodiscard]] core::accuracy_table trace_accuracy(
    const engine::model_trace& trace, const engine::dataset_slice& slice);

/// Prints predicted vs actual density at t = 1 and every evaluated hour;
/// the t = 1 row is the slice's hour-1 profile, the model's input.
void print_fig7(std::ostream& out, const engine::model_trace& trace,
                const engine::dataset_slice& slice);

/// Paper Table I (hops) and Table II (interests) reference accuracies for
/// story s1, laid out as {distance, average, t2, t3, t4, t5, t6} percent.
using paper_accuracy_row = std::array<double, 7>;
[[nodiscard]] const std::vector<paper_accuracy_row>& paper_table1();
[[nodiscard]] const std::vector<paper_accuracy_row>& paper_table2();

/// Prints `accuracy` (measured on `slice`) beside the paper's reference
/// rows.
void print_accuracy_table(std::ostream& out,
                          const engine::dataset_slice& slice,
                          const core::accuracy_table& accuracy,
                          const std::vector<paper_accuracy_row>& reference,
                          const std::string& table_name);

}  // namespace dlm::eval
