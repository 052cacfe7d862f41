// Batched SoA solver: the load-bearing contract is bitwise identity with
// the single-request solve — for every scheme, rate family, batch width
// and lane order, solve_dl(span<const solve_request>) must produce
// exactly the trace solve_dl(request) produces, so cache keys, golden
// fits and CSV output cannot depend on how scenarios were grouped.  A
// single line Strang–CN or implicit-Newton request is itself one padded
// pack of the same kernels; domain_solver_test's golden hashes pin the
// bits of those.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <random>
#include <vector>

#include "core/dl_solver.h"
#include "engine/calibration.h"
#include "engine/scenario_runner.h"
#include "engine/thread_pool.h"

namespace {

using namespace dlm::core;

const std::vector<double> observed{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};

dl_solver_options options_for(dl_scheme scheme) {
  dl_solver_options opts;
  opts.scheme = scheme;
  opts.points_per_unit = 20;
  opts.dt = scheme == dl_scheme::ftcs ? 0.01 : 0.02;
  return opts;
}

rate_field rate_for(int family) {
  switch (family) {
    case 0:  // temporal: constant in x
      return growth_rate::paper_hops();
    case 1:  // separable m(x)·base(t)
      return rate_field::separable(growth_rate::paper_hops(),
                                   {1.0, 0.9, 0.8, 0.7, 0.5, 0.4});
    case 2:  // one rate per distance group
      return rate_field::per_group(
          {growth_rate::paper_hops(), growth_rate::constant(0.4),
           growth_rate::exponential_decay(1.0, 1.2, 0.2),
           growth_rate::constant(0.3), growth_rate::paper_interest(),
           growth_rate::constant(0.25)});
    default:  // per-group, anchored past x_min: clamped below x = 2
      return rate_field::per_group(
          {growth_rate::exponential_decay(0.8, 0.7, 0.2),
           growth_rate::constant(0.35),
           growth_rate::exponential_decay(0.5, 2.0, 0.1)},
          2.0);
  }
}

/// Lane parameters varied so lanes are genuinely independent: distinct
/// diffusion coefficients (distinct CN factorizations) and capacities.
dl_parameters params_for(int family, std::size_t lane) {
  dl_parameters params = dl_parameters::paper_hops(6.0);
  params.d = 0.01 * (1.0 + 0.15 * static_cast<double>(lane));
  params.k = 25.0 - static_cast<double>(lane);
  params.r = rate_for(family);
  return params;
}

void expect_bitwise_equal(const dl_solution& a, const dl_solution& b,
                          const std::string& what) {
  ASSERT_EQ(a.times().size(), b.times().size()) << what;
  ASSERT_EQ(std::memcmp(a.times().data(), b.times().data(),
                        a.times().size() * sizeof(double)),
            0)
      << what << ": times differ";
  const std::vector<double>& da = a.states().data();
  const std::vector<double>& db = b.states().data();
  ASSERT_EQ(da.size(), db.size()) << what;
  ASSERT_EQ(std::memcmp(da.data(), db.data(), da.size() * sizeof(double)), 0)
      << what << ": states differ";
}

TEST(SolverBatch, BitwiseEqualAcrossSchemesFamiliesAndWidths) {
  const initial_condition phi(observed);
  // Widths covering the two-lane packs and eight-lane chunks: the
  // singleton (one padded pack, as a single request runs), one pack,
  // padded odd packs, the largest chunk, and groups that split into
  // chunks (9 = 8 + a padded chunk of one, 12 = 8 + 4).  ftcs and
  // mol_rk4 step the scalar loop at every width.
  for (std::size_t width : {1, 2, 3, 4, 5, 7, 8, 9, 12}) {
    for (dl_scheme scheme : {dl_scheme::ftcs, dl_scheme::strang_cn,
                             dl_scheme::implicit_newton, dl_scheme::mol_rk4}) {
      for (int family = 0; family < 4; ++family) {
        std::vector<dl_parameters> params;
        params.reserve(width);
        for (std::size_t l = 0; l < width; ++l)
          params.push_back(params_for(family, l));
        std::vector<solve_request> requests;
        requests.reserve(width);
        for (std::size_t l = 0; l < width; ++l)
          requests.push_back({.params = &params[l],
                              .phi = &phi,
                              .t0 = 1.0,
                              .t_end = 6.0,
                              .options = options_for(scheme)});

        const std::vector<dl_solution> batched = solve_dl(requests);
        ASSERT_EQ(batched.size(), width);
        for (std::size_t l = 0; l < width; ++l) {
          const dl_solution single = solve_dl(requests[l]);
          expect_bitwise_equal(
              batched[l], single,
              to_string(scheme) + " family=" + std::to_string(family) +
                  " width=" + std::to_string(width) +
                  " lane=" + std::to_string(l));
        }
      }
    }
  }
}

TEST(SolverBatch, NewtonLanesIterateToTheirOwnConvergence) {
  // Lanes whose Newton solves need different iteration counts in the
  // same step: a lane at rest (d = 0, r = 0: the warm start is already
  // the root), the paper preset, and stiff lanes (large d and r).  Each
  // lane must stop exactly where its single solve stops — a mask that
  // kept iterating a converged lane, or stopped a slow one early, moves
  // bits.
  const initial_condition phi(observed);
  std::vector<dl_parameters> params(4, dl_parameters::paper_hops(6.0));
  params[0].d = 0.0;
  params[0].r = growth_rate::constant(0.0);
  params[2].d = 0.45;
  params[2].r = growth_rate::constant(2.5);
  params[3].d = 0.2;
  params[3].k = 8.0;
  params[3].r = rate_for(1);
  dl_solver_options opts = options_for(dl_scheme::implicit_newton);
  opts.dt = 0.1;

  // Iteration caps tell the lanes apart: the resting lane converges
  // before its first update (one allowed iteration changes nothing),
  // the stiff lane needs more than two.
  const auto solve_capped = [&](std::size_t l, int cap) {
    dl_solver_options capped = opts;
    capped.newton_max_iter = cap;
    return solve_dl({.params = &params[l],
                     .phi = &phi,
                     .t0 = 1.0,
                     .t_end = 4.0,
                     .options = capped});
  };
  const auto same = [](const dl_solution& a, const dl_solution& b) {
    return a.states().data() == b.states().data();
  };
  EXPECT_TRUE(same(solve_capped(0, 1), solve_capped(0, 16)));
  EXPECT_FALSE(same(solve_capped(2, 2), solve_capped(2, 16)));

  for (std::size_t width : {2, 3, 4, 5, 9}) {
    std::vector<solve_request> requests;
    for (std::size_t l = 0; l < width; ++l)
      requests.push_back({.params = &params[(l + width) % 4],
                          .phi = &phi,
                          .t0 = 1.0,
                          .t_end = 4.0,
                          .options = opts});
    const std::vector<dl_solution> batched = solve_dl(requests);
    for (std::size_t l = 0; l < width; ++l)
      expect_bitwise_equal(batched[l], solve_dl(requests[l]),
                           "newton width=" + std::to_string(width) +
                               " lane=" + std::to_string(l));
  }
}

TEST(SolverBatch, ShardBenchShapeIsBitwiseEqual) {
  // dl_shard's bench sweep shape: grid 80 (401 nodes), strang-cn lanes
  // that share d (one CN elimination for the whole chunk) and differ in
  // a constant rate — a full eight-lane chunk, and a group of twelve
  // that runs as chunks of eight and four.
  const initial_condition phi(observed);
  dl_solver_options opts = options_for(dl_scheme::strang_cn);
  opts.points_per_unit = 80;
  for (std::size_t width : {8, 12}) {
    std::vector<dl_parameters> params(width, dl_parameters::paper_hops(6.0));
    for (std::size_t l = 0; l < width; ++l)
      params[l].r =
          growth_rate::constant(0.05 + 0.0025 * static_cast<double>(l));
    std::vector<solve_request> requests;
    for (std::size_t l = 0; l < width; ++l)
      requests.push_back({.params = &params[l],
                          .phi = &phi,
                          .t0 = 1.0,
                          .t_end = 6.0,
                          .options = opts});
    const std::vector<dl_solution> batched = solve_dl(requests);
    ASSERT_EQ(batched.front().states().cols(), 401u);
    for (std::size_t l = 0; l < width; ++l)
      expect_bitwise_equal(batched[l], solve_dl(requests[l]),
                           "grid 80 width=" + std::to_string(width) +
                               " lane=" + std::to_string(l));
  }
}

TEST(SolverBatch, ZeroPivotNewtonLaneFailsLikeItsSingleSolve) {
  // d = 0, r·h = 1 and a node at zero density make the Jacobian's first
  // pivot exactly 0: 1 + 2·0 − 1·(1 − 0).  The single solve throws
  // domain_error there; the batch must throw the same, not hand back
  // the healthy lane.
  std::vector<double> samples(101, 0.5);
  samples[0] = 0.0;
  dl_parameters zero_pivot = dl_parameters::paper_hops(6.0);
  zero_pivot.d = 0.0;
  zero_pivot.r = growth_rate::constant(2.0);
  const dl_parameters healthy = dl_parameters::paper_hops(6.0);
  dl_solver_options opts = options_for(dl_scheme::implicit_newton);
  opts.dt = 0.5;
  const solve_request bad{.params = &zero_pivot,
                          .phi_samples = samples,
                          .t0 = 1.0,
                          .t_end = 2.0,
                          .options = opts};
  const solve_request good{.params = &healthy,
                           .phi_samples = samples,
                           .t0 = 1.0,
                           .t_end = 2.0,
                           .options = opts};
  EXPECT_THROW((void)solve_dl(bad), std::domain_error);
  const std::vector<solve_request> requests{good, bad};
  try {
    (void)solve_dl(requests);
    ADD_FAILURE() << "batched zero pivot did not throw";
  } catch (const std::domain_error& e) {
    EXPECT_STREQ(e.what(), "solve_tridiagonal: zero pivot");
  }

  // A lane that has converged never factorizes, so its zero pivot is no
  // error — in a batch either, while another lane still iterates.
  const std::vector<double> rest(101, 0.0);
  const solve_request resting{.params = &zero_pivot,
                              .phi_samples = rest,
                              .t0 = 1.0,
                              .t_end = 2.0,
                              .options = opts};
  const std::vector<solve_request> mixed{good, resting};
  const std::vector<dl_solution> batched = solve_dl(mixed);
  expect_bitwise_equal(batched[1], solve_dl(resting), "resting lane");
  expect_bitwise_equal(batched[0], solve_dl(good), "healthy lane");

  // An odd chunk pads its last pack with a copy of its last lane.  When
  // that lane is the failing one, the copy fails with it: one throw, the
  // single solve's message, never a second error or a swallowed one.
  const std::vector<solve_request> odd{good, good, bad};
  int throws = 0;
  try {
    (void)solve_dl(odd);
  } catch (const std::domain_error& e) {
    ++throws;
    EXPECT_STREQ(e.what(), "solve_tridiagonal: zero pivot");
  }
  EXPECT_EQ(throws, 1);
}

TEST(SolverBatch, SampledPhiMatchesThePlainRequest) {
  const dl_parameters params = dl_parameters::paper_hops(6.0);
  const initial_condition phi(observed);
  const dl_solver_options opts = options_for(dl_scheme::strang_cn);
  const dl_solution via_phi = solve_dl(
      {.params = &params, .phi = &phi, .t0 = 1.0, .t_end = 6.0, .options = opts});

  const std::vector<double> samples =
      phi.sample(params.x_min, params.x_max, 101);
  const dl_solution via_samples = solve_dl({.params = &params,
                                            .phi_samples = samples,
                                            .t0 = 1.0,
                                            .t_end = 6.0,
                                            .options = opts});
  expect_bitwise_equal(via_samples, via_phi, "pre-sampled profile");
}

TEST(SolverBatch, MixedSpanSplitsIntoCompatibleGroupsIndexStably) {
  const initial_condition phi(observed);
  // An interleaved span: two dt groups, a newton lane and a scalar-path
  // mol_rk4 lane — every lane must come back in request order, bitwise
  // equal to its single solve.
  std::vector<dl_parameters> params;
  for (std::size_t l = 0; l < 7; ++l) params.push_back(params_for(0, l));
  dl_solver_options coarse = options_for(dl_scheme::strang_cn);
  dl_solver_options fine = coarse;
  fine.dt = 0.01;
  dl_solver_options newton = options_for(dl_scheme::implicit_newton);
  dl_solver_options rk4 = options_for(dl_scheme::mol_rk4);

  std::vector<solve_request> requests;
  const auto add = [&](std::size_t l, const dl_solver_options& opts) {
    requests.push_back({.params = &params[l],
                        .phi = &phi,
                        .t0 = 1.0,
                        .t_end = 6.0,
                        .options = opts});
  };
  add(0, coarse);
  add(1, fine);
  add(2, coarse);
  add(3, newton);
  add(4, fine);
  add(5, rk4);
  add(6, coarse);

  const std::vector<dl_solution> batched = solve_dl(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const dl_solution single = solve_dl(requests[i]);
    expect_bitwise_equal(batched[i], single,
                         "mixed span lane " + std::to_string(i));
  }
}

TEST(SolverBatch, ThreadLocalWorkspaceReuseIsDeterministic) {
  const initial_condition phi(observed);
  std::vector<dl_parameters> params;
  for (std::size_t l = 0; l < 5; ++l) params.push_back(params_for(1, l));
  std::vector<solve_request> requests;
  for (std::size_t l = 0; l < 5; ++l)
    requests.push_back({.params = &params[l],
                        .phi = &phi,
                        .t0 = 1.0,
                        .t_end = 6.0,
                        .options = options_for(dl_scheme::strang_cn)});

  // The reference runs on a new thread, so on a fresh workspace.
  const std::vector<dl_solution> reference =
      std::async(std::launch::async, [&] { return solve_dl(requests); }).get();

  // Reusing this thread's workspace across repeated solves — and across
  // a differently-shaped group in between — never changes bits.
  const std::vector<dl_solution> first = solve_dl(requests);
  std::vector<solve_request> narrow(requests.begin(), requests.begin() + 2);
  (void)solve_dl(narrow);
  const std::vector<dl_solution> reused = solve_dl(requests);
  for (std::size_t l = 0; l < 5; ++l) {
    expect_bitwise_equal(first[l], reference[l],
                         "first lane " + std::to_string(l));
    expect_bitwise_equal(reused[l], reference[l],
                         "reused lane " + std::to_string(l));
  }

  // Thread-local batch workspaces under the pool: every worker reuses its
  // own workspace across repeated batched solves, all bitwise equal.
  dlm::engine::thread_pool pool(4);
  std::vector<std::vector<dl_solution>> results(16);
  for (std::size_t r = 0; r < results.size(); ++r)
    pool.submit([&, r] { results[r] = solve_dl(requests); });
  pool.wait();
  for (std::size_t r = 0; r < results.size(); ++r) {
    ASSERT_EQ(results[r].size(), 5u);
    for (std::size_t l = 0; l < 5; ++l)
      expect_bitwise_equal(results[r][l], reference[l],
                           "pool run " + std::to_string(r) + " lane " +
                               std::to_string(l));
  }
}

TEST(SolverBatch, InvalidRequestsThrowLikeTheScalarPath) {
  const initial_condition phi(observed);
  dl_parameters good = dl_parameters::paper_hops(6.0);
  dl_parameters bad = good;
  bad.d = -1.0;
  std::vector<solve_request> requests;
  requests.push_back({.params = &good, .phi = &phi});
  requests.push_back({.params = &bad, .phi = &phi});
  EXPECT_THROW((void)solve_dl(requests), std::invalid_argument);

  std::vector<solve_request> missing_params(1);
  EXPECT_THROW((void)solve_dl(missing_params), std::invalid_argument);

  // No initial data at all.
  std::vector<solve_request> no_phi;
  no_phi.push_back({.params = &good});
  EXPECT_THROW((void)solve_dl(no_phi), std::invalid_argument);
}

// ---- Engine-level batching ------------------------------------------------

/// Same synthetic surface the runner tests use: per-distance logistic
/// growth, faster near the source.
dlm::engine::scenario_context engine_context() {
  const int max_d = 5;
  const int horizon = 8;
  std::vector<std::vector<double>> actual(max_d);
  for (int x = 1; x <= max_d; ++x) {
    for (int t = 1; t <= horizon; ++t) {
      const double k = 25.0;
      const double n0 = 2.0 / x;
      const double grown =
          k / (1.0 + (k - n0) / n0 * std::exp(-0.8 * (t - 1.0)));
      actual[static_cast<std::size_t>(x - 1)].push_back(grown);
    }
  }
  return dlm::engine::scenario_context::from_surface(
      "synthetic", dlm::social::distance_metric::friendship_hops,
      std::move(actual), dl_parameters::paper_hops(max_d));
}

/// A sweep mixing batchable work (dl across schemes/grids) with models
/// the runner must keep scalar (heat, logistic, per_distance_logistic).
dlm::engine::sweep_spec engine_sweep() {
  dlm::engine::sweep_spec spec;
  spec.models = {"dl", "heat", "logistic", "per_distance_logistic"};
  spec.schemes = {dl_scheme::ftcs, dl_scheme::strang_cn,
                  dl_scheme::implicit_newton, dl_scheme::mol_rk4};
  spec.grid = {10, 20};
  spec.rates = {"preset", "constant:0.8"};
  spec.t_end = 8.0;
  return spec;
}

TEST(SolverBatch, BatchSweepIsAnIndexStablePartition) {
  using dlm::engine::scenario;
  const dlm::engine::scenario_context ctx = engine_context();
  std::vector<scenario> scenarios =
      dlm::engine::expand_sweep(engine_sweep(), ctx);
  // A calibrate-spec dl scenario: calibrate lanes group only with the same
  // spec on other slices, so on this one-slice context it stays a chunk
  // of one.
  scenario cal = scenarios.front();
  cal.rate = "calibrate";
  scenarios.push_back(cal);

  for (std::size_t width : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            std::size_t{8}}) {
    const std::vector<std::vector<std::size_t>> chunks =
        dlm::engine::batch_sweep(scenarios, dlm::engine::default_registry(),
                                 width);
    // Exact partition of 0..N-1, members ascending, chunks ordered by
    // their first member.
    std::vector<bool> seen(scenarios.size(), false);
    std::size_t previous_front = 0;
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      ASSERT_FALSE(chunks[c].empty());
      if (c > 0) {
        EXPECT_GT(chunks[c].front(), previous_front);
      }
      previous_front = chunks[c].front();
      for (std::size_t m = 0; m < chunks[c].size(); ++m) {
        if (m > 0) {
          EXPECT_GT(chunks[c][m], chunks[c][m - 1]);
        }
        ASSERT_LT(chunks[c][m], scenarios.size());
        EXPECT_FALSE(seen[chunks[c][m]]) << "duplicate index";
        seen[chunks[c][m]] = true;
      }
      if (width == 1) {
        EXPECT_EQ(chunks[c].size(), 1u);
      }
      if (width != 0) {
        EXPECT_LE(chunks[c].size(), std::max<std::size_t>(width, 1));
      }
      // Chunk members agree on everything the lockstep solver requires.
      const scenario& first = scenarios[chunks[c].front()];
      for (const std::size_t i : chunks[c]) {
        EXPECT_EQ(scenarios[i].model, first.model);
        EXPECT_EQ(scenarios[i].slice, first.slice);
        EXPECT_EQ(scenarios[i].scheme, first.scheme);
        EXPECT_EQ(scenarios[i].points_per_unit, first.points_per_unit);
        EXPECT_EQ(scenarios[i].dt, first.dt);
      }
      // Non-batch models never share a chunk, and solve chunks hold no
      // calibrate spec.
      if (chunks[c].size() > 1) {
        EXPECT_EQ(first.model, "dl");
        for (const std::size_t i : chunks[c])
          EXPECT_FALSE(dlm::engine::is_calibrate_spec(scenarios[i].rate));
      }
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](bool b) { return b; }));
  }
}

TEST(SolverBatch, ShuffledSweepEmitsByteIdenticalCsvAtAnyWidth) {
  using dlm::engine::scenario;
  const dlm::engine::scenario_context ctx = engine_context();
  std::vector<scenario> scenarios =
      dlm::engine::expand_sweep(engine_sweep(), ctx);
  // The regression: a sweep whose batchable scenarios arrive interleaved
  // with incompatible ones must still emit rows in request order.  A fixed
  // seed keeps the shuffled order reproducible.
  std::mt19937 gen(20090601);
  std::shuffle(scenarios.begin(), scenarios.end(), gen);

  dlm::engine::runner_options scalar;
  scalar.batch_width = 1;  // batching off: the pure scalar path
  scalar.threads = 2;
  scalar.keep_traces = true;
  const dlm::engine::sweep_result reference =
      dlm::engine::run_sweep(ctx, scenarios, scalar);
  const std::string want = reference.table.to_csv();

  for (std::size_t width : {std::size_t{0}, std::size_t{3}, std::size_t{8}}) {
    dlm::engine::runner_options batched;
    batched.batch_width = width;
    batched.threads = 4;
    batched.keep_traces = true;
    const dlm::engine::sweep_result result =
        dlm::engine::run_sweep(ctx, scenarios, batched);
    EXPECT_EQ(result.table.to_csv(), want)
        << "CSV changed at batch_width=" << width;
    ASSERT_EQ(result.traces.size(), scenarios.size());
    // Traces are bitwise the scalar ones, too (the CSV only sees scores).
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const dlm::engine::model_trace& got = result.traces[i];
      const dlm::engine::model_trace& ref = reference.traces[i];
      ASSERT_EQ(got.predicted.size(), ref.predicted.size()) << i;
      for (std::size_t x = 0; x < got.predicted.size(); ++x) {
        ASSERT_EQ(got.predicted[x].size(), ref.predicted[x].size()) << i;
        ASSERT_EQ(std::memcmp(got.predicted[x].data(), ref.predicted[x].data(),
                              got.predicted[x].size() * sizeof(double)),
                  0)
            << "trace differs: scenario " << i << " distance row " << x;
      }
    }
  }
}

}  // namespace
