// The unified diffusion-model interface of the batch engine.
//
// Every predictor in the repo — the paper's DL reaction-diffusion model
// and all baselines (heat equation, global logistic, per-distance
// logistic, SI epidemic) — is wrapped behind this one polymorphic
// interface so sweeps can treat "a model" as data: look it up by name in
// the registry, hand it a scenario + dataset slice, get back a predicted
// density trace scored uniformly by the runner.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "engine/scenario.h"

namespace dlm::fit {
struct calibration_options;
}  // namespace dlm::fit

namespace dlm::engine {

class solve_cache;
class thread_pool;
struct scenario_calibration;

/// A model's predicted density surface over integer distances × hours.
struct model_trace {
  std::vector<int> distances;  ///< 1..max_distance of the slice
  std::vector<double> times;   ///< evaluated hours (t0+1 .. t_end)
  /// predicted[i][j]: predicted density at distances[i], times[j].
  std::vector<std::vector<double>> predicted;
  /// Time step the solver actually used — differs from scenario.dt when a
  /// scheme clamps for stability (FTCS).  0 for models without a dt.
  double effective_dt = 0.0;
  /// Canonical label of the domain the model solved on ("line" unless the
  /// model supports domains and the scenario asked for another one).
  std::string domain = "line";
};

/// Abstract diffusion predictor.  Implementations must be stateless and
/// const-thread-safe: `solve` runs concurrently from the pool workers.
class diffusion_model {
 public:
  virtual ~diffusion_model() = default;

  /// Registry key / display name.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Which sweep axes the model consumes; `expand_sweep` collapses the
  /// others so a sweep never enqueues duplicate work.
  [[nodiscard]] virtual bool uses_scheme() const { return false; }
  [[nodiscard]] virtual bool uses_grid() const { return false; }
  [[nodiscard]] virtual bool uses_rate() const { return false; }

  /// Whether spatial rate specs ("spatial:...", "per-hop:...",
  /// "calibrate-spatial") are meaningful: the model evaluates the rate
  /// per distance.  Rate-using models that return false have a spatial
  /// spec collapsed to its temporal base by `expand_sweep` (the
  /// space-free global logistic cannot honour r(x, t)).
  [[nodiscard]] virtual bool supports_spatial_rate() const { return false; }

  /// Whether "calibrate" rate specs apply: the runner fits (d, K[, r])
  /// on the slice's early window before solving.  Only meaningful for
  /// models that honour scenario d/k overrides and the fitted rate —
  /// the DL adapter.  Rate-using models that return false run their
  /// preset rate when a sweep lists a calibrate spec.
  [[nodiscard]] virtual bool supports_calibration() const { return false; }

  /// Whether non-line domain specs ("grid2d:...", "comm:...") are
  /// meaningful: the model solves on the requested core::domain.
  /// `expand_sweep` collapses the domain axis to {"line"} for models that
  /// return false, and non-line domains only pair with the strang-cn
  /// scheme (the only one the domain solvers implement).
  [[nodiscard]] virtual bool supports_domain() const { return false; }

  /// Solves the scenario on the slice and returns the predicted trace at
  /// integer distances 1..slice.max_distance and integer hours
  /// floor(t0)+1 .. min(floor(t_end), slice.horizon_hours).
  [[nodiscard]] virtual model_trace solve(const scenario& sc,
                                          const dataset_slice& slice) const = 0;

  /// Fits the "calibrate" rate spec `sc.rate` on the slice's early
  /// window (see engine/calibration.h for `options`, `cache` and
  /// `pool`).  The default runs calibrate_scenario in this process; a
  /// model that executes elsewhere (engine::remote_registry) fits there.
  /// Callers go through prepare_solve, which checks the capability
  /// flags first.
  [[nodiscard]] virtual scenario_calibration calibrate(
      const scenario& sc, const dataset_slice& slice,
      const fit::calibration_options& options, solve_cache* cache,
      thread_pool* pool) const;

  /// Whether solve_batch advances multiple scenarios in one pass (the DL
  /// adapter's lockstep SoA solve).  The runner only groups scenarios of
  /// models that return true; for everything else batching would just
  /// serialize independent solves onto one worker.
  [[nodiscard]] virtual bool supports_batch() const { return false; }

  /// Solves several scenarios of this model against one slice, returning
  /// traces in scenario order.  Every trace is bitwise identical to the
  /// corresponding solve() — batch-capable models dispatch to a lockstep
  /// solver with that exact contract; the default implementation simply
  /// loops solve().  All scenarios must reference the given slice.
  [[nodiscard]] virtual std::vector<model_trace> solve_batch(
      std::span<const scenario> scenarios, const dataset_slice& slice) const;

  /// The evaluation hours shared by every adapter (see `solve`).
  [[nodiscard]] static std::vector<double> evaluation_times(
      const scenario& sc, const dataset_slice& slice);
};

}  // namespace dlm::engine
