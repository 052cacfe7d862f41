#include "eval/comparison.h"

#include <utility>
#include <vector>

#include "digg/simulator.h"
#include "engine/model_registry.h"
#include "graph/generators.h"

namespace dlm::eval {

comparison_sweep make_comparison_sweep() {
  num::rng rand(777);
  graph::digg_graph_params gp;
  gp.users = 12000;
  gp.attach = 6;
  graph::digraph followers = graph::digg_follower_graph(gp, rand);

  // A well-followed initiator and its organic cascade.
  graph::node_id initiator = 0;
  for (graph::node_id v = 0; v < followers.node_count(); ++v) {
    if (followers.in_degree(v) > followers.in_degree(initiator)) initiator = v;
  }
  digg::cascade_params cp;
  cp.horizon_hours = 12;
  const std::vector<social::vote> votes =
      digg::simulate_cascade(followers, initiator, 0, 0, cp, rand);

  comparison_sweep sweep;
  sweep.votes = votes.size();
  sweep.context = engine::scenario_context::from_cascade(
      std::move(followers), initiator, votes, cp.horizon_hours);
  // Baselines collapse the axes they ignore: a calibrate spec collapses to
  // "preset" for models that cannot calibrate, a spatial spec to its
  // temporal base for models without a spatial-rate axis, and non-line
  // domains expand only under strang_cn, so the 2-D ADI sheet and the
  // coupled communities ride along without multiplying every scheme.
  sweep.spec.models = engine::default_registry().names();
  sweep.spec.schemes = {core::dl_scheme::ftcs, core::dl_scheme::strang_cn,
                        core::dl_scheme::implicit_newton,
                        core::dl_scheme::mol_rk4};
  sweep.spec.grid = {20, 40};
  sweep.spec.rates = {"preset", "constant:0.5",
                      "spatial:preset|1.2,1,0.8,0.65", "calibrate",
                      "calibrate-spatial"};
  sweep.spec.domains = {"line", "grid2d:1,4", "comm:3|mix=0.05"};
  sweep.spec.t_end = cp.horizon_hours;
  sweep.calibration.coarse_steps = 3;
  return sweep;
}

}  // namespace dlm::eval
