// Declarative scenario descriptions for the batch engine.
//
// A `scenario` names everything one model run needs — which model, which
// dataset slice, solver scheme / grid resolution / growth-rate preset and
// the evaluation window — as plain data, so sweeps can be expanded,
// queued, executed on a thread pool and reproduced from their CSV record.
// A `dataset_slice` is the engine's dataset abstraction: the observed
// density surface of one story under one distance metric plus the paper
// parameter preset for that metric, with optional graph/partition handles
// for models (SI) that spread on the explicit follower graph.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dl_parameters.h"
#include "core/dl_solver.h"
#include "digg/simulator.h"
#include "graph/digraph.h"
#include "social/distance.h"
#include "social/story.h"

namespace dlm::engine {

/// One story × distance-metric view of a dataset: the observed density
/// surface (percent scale) plus everything a model adapter may consume.
struct dataset_slice {
  std::string name;    ///< unique key, e.g. "s1/hops"
  std::string story;   ///< story label, e.g. "s1"
  social::distance_metric metric = social::distance_metric::friendship_hops;
  int max_distance = 0;    ///< spatial domain bound L (groups 1..L)
  int horizon_hours = 0;   ///< temporal extent (hours 1..horizon)
  /// actual[x-1][t-1]: observed density of group x at hour t.
  std::vector<std::vector<double>> actual;
  /// The paper's parameter preset for this metric with x_max = max_distance
  /// (the growth rate may be overridden per scenario).
  core::dl_parameters base_params;

  /// Follower graph / initiator / partition for graph-driven models.
  /// Null for slices built from a bare surface; adapters that need them
  /// throw std::invalid_argument when absent.
  const graph::digraph* followers = nullptr;
  graph::node_id initiator = 0;
  const social::distance_partition* partition = nullptr;

  /// Content fingerprint, computed by scenario_context::add_slice: a hash
  /// of the metric, surface, base parameters and cheap structural
  /// invariants of the graph handles (node/edge counts, partition group
  /// sizes).  Folded into solve-cache keys so two contexts that reuse a
  /// slice *name* for different data never share cache entries.  Stable
  /// across processes — the persistent cache (engine/cache_io.h) depends
  /// on a rebuilt context hashing to the same fingerprint.
  std::uint64_t fingerprint = 0;

  /// Observed density at group x (1-based), hour t (1-based).
  /// Throws std::out_of_range outside the surface.
  [[nodiscard]] double actual_at(int x, int t) const;

  /// Observed profile at hour t over groups 1..max_distance.
  [[nodiscard]] std::vector<double> profile_at(int t) const;
};

/// An immutable collection of slices plus ownership of the backing data
/// (dataset / graphs / partitions the slices point into).  Move-only.
class scenario_context {
 public:
  scenario_context() = default;
  scenario_context(scenario_context&&) = default;
  scenario_context& operator=(scenario_context&&) = default;
  scenario_context(const scenario_context&) = delete;
  scenario_context& operator=(const scenario_context&) = delete;

  /// Adds a slice; returns its index.  Throws std::invalid_argument on a
  /// duplicate name or an empty/ragged surface.
  std::size_t add_slice(dataset_slice slice);

  [[nodiscard]] std::size_t slice_count() const noexcept {
    return slices_.size();
  }
  [[nodiscard]] const dataset_slice& slice(std::size_t index) const;
  /// Lookup by name; throws std::invalid_argument for unknown names.
  [[nodiscard]] const dataset_slice& slice(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> slice_names() const;

  /// Builds one hop slice and one interest slice per flagship story of a
  /// calibrated dataset (hops truncated at `max_hops`).  Takes ownership.
  [[nodiscard]] static scenario_context from_dataset(digg::digg_dataset data,
                                                     int max_hops = 6);

  /// Builds a single hop slice from an organic cascade: the vote stream of
  /// one story on an explicit follower graph.
  [[nodiscard]] static scenario_context from_cascade(
      graph::digraph followers, graph::node_id initiator,
      const std::vector<social::vote>& votes, int horizon_hours,
      int max_hops = 6);

  /// Builds a single slice from a bare density surface (no graph) —
  /// handy for tests and solver-convergence studies.
  [[nodiscard]] static scenario_context from_surface(
      std::string name, social::distance_metric metric,
      std::vector<std::vector<double>> actual, core::dl_parameters params);

 private:
  std::vector<dataset_slice> slices_;
  // Backing stores the slices point into (heap-stable across moves).
  std::shared_ptr<digg::digg_dataset> data_;
  std::vector<std::unique_ptr<graph::digraph>> graphs_;
  std::vector<std::unique_ptr<social::distance_partition>> partitions_;
};

/// One work item of a sweep: everything `scenario_runner` needs to solve
/// and score a single model on a single slice.
struct scenario {
  std::string model;            ///< registry key, e.g. "dl"
  std::size_t slice = 0;        ///< index into the scenario_context
  core::dl_scheme scheme = core::dl_scheme::strang_cn;
  std::size_t points_per_unit = 20;  ///< grid resolution (grid models)
  double dt = 0.02;                  ///< solver time step (DL)
  std::string rate = "preset";       ///< growth-rate spec (see make_rate)
  std::string domain = "line";       ///< domain spec (see make_domain)
  double t0 = 1.0;              ///< observation hour (initial profile)
  double t_end = 6.0;           ///< last evaluated hour
  std::uint64_t seed = 20090601;  ///< RNG seed for stochastic models
  /// Optional overrides of the slice's base (d, K); empty keeps the base
  /// value.  Set by the runner when a "calibrate" rate spec resolves, so
  /// the solved scenario (and its cache key) records the fitted values.
  std::optional<double> d_override;
  std::optional<double> k_override;
};

/// Declarative sweep: the cross product of the axes below over the chosen
/// slices, with axes a model does not consume collapsed to one canonical
/// value (a heat run is not duplicated per scheme, an SI run not per rate).
struct sweep_spec {
  std::vector<std::string> models;
  /// Slice indices; empty means every slice in the context.
  std::vector<std::size_t> slices;
  std::vector<core::dl_scheme> schemes = {core::dl_scheme::strang_cn};
  std::vector<std::size_t> grid = {20};  ///< points_per_unit values
  std::vector<double> dts = {0.02};
  std::vector<std::string> rates = {"preset"};
  /// Domain specs (see make_domain).  Collapsed to {"line"} for models
  /// without a domain axis; non-line domains pair only with strang_cn.
  std::vector<std::string> domains = {"line"};
  double t0 = 1.0;
  double t_end = 6.0;
  std::uint64_t seed = 20090601;
};

/// Growth-rate spec parser.  Accepted forms (temporal):
///   "preset"           — the paper rate matching the slice metric
///   "paper_hops"       — r(t) = 1.4·e^{−1.5(t−1)} + 0.25
///   "paper_interest"   — r(t) = 1.6·e^{−(t−1)} + 0.1
///   "constant:<v>"     — r(t) = v
///   "decay:<a>,<b>,<c>" — r(t) = a·e^{−b(t−1)} + c
/// and spatial (r varies with distance, paper §V):
///   "spatial:<base>|<m1>,<m2>,..." — r(x, t) = m(x)·base(t): <base> is
///       any temporal form above, m_i applies at distance i, linearly
///       interpolated between integer distances and clamped outside (a
///       short list extends its last multiplier to farther groups);
///   "per-hop:<spec1>;<spec2>;..." — one temporal form per distance
///       group, values and integrals interpolated across groups.
/// Calibration specs ("calibrate", "calibrate-fixed", "calibrate-spatial",
/// optionally with a ":<hour>" fit-window suffix — see
/// engine/calibration.h) are not concrete rates: the scenario runner
/// resolves them to a concrete form before any model solves, so passing
/// one here throws std::invalid_argument.  Every rejection quotes the
/// offending spec and lists this grammar.
[[nodiscard]] core::rate_field make_rate(const std::string& spec,
                                         social::distance_metric metric);

/// The accepted `make_rate` grammar, one form per line — appended to
/// every make_rate rejection so a failure deep inside a sweep is
/// attributable without source-diving.
[[nodiscard]] const std::string& rate_spec_grammar();

/// True for the concrete spatial forms ("spatial:...", "per-hop:...").
/// Purely syntactic; parse errors surface in make_rate.
[[nodiscard]] bool is_spatial_rate_spec(const std::string& spec);

/// The temporal spec a spatial form collapses to for models without a
/// spatial-rate axis: the <base> of a "spatial:..." spec, "preset" for
/// "per-hop:...".  Non-spatial specs pass through unchanged.
[[nodiscard]] std::string spatial_base_spec(const std::string& spec);

/// Domain spec parser (core::domain, see core/domain.h).  Accepted forms:
///   "line" (or "" / "-")           — the classic 1-D distance axis
///   "grid2d:<y_min>,<y_max>"       — 2-D distance × interest sheet,
///       solved by the Peaceman–Rachford ADI variant of strang-cn
///   "comm:<K>"                     — K uncoupled per-community 1-D lines
///   "comm:<K>|mix=<rate>"          — uniform cross-community mixing
///   "comm:<K>|mix=<m11>,...,<mKK>" — full K×K mixing matrix (row-major;
///       entry (c,c2) is the flow rate from community c2 into c)
///   "comm:<K>|...|scale=<s1>,...,<sK>" — per-community initial-profile
///       scales (mix= and scale= segments compose in any order)
/// Every rejection names the offending token's 1-based position, quotes
/// the spec and lists this grammar (see domain_spec_grammar).
[[nodiscard]] core::domain make_domain(const std::string& spec);

/// The accepted `make_domain` grammar, one form per line — appended to
/// every make_domain rejection.
[[nodiscard]] const std::string& domain_spec_grammar();

}  // namespace dlm::engine
