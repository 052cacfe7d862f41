// The core::domain contract, pinned end to end.
//
// The domain layer generalizes the solver's historical 1-D line into
// three domain kinds (line, 2-D distance × interest sheet, K coupled
// communities) — and its first obligation is to change NOTHING about the
// line: the four 1-D schemes must stay bitwise identical to the
// pre-domain solver, existing cache keys must stay byte-identical, and
// line-only CSV must keep its historical column set.  This suite pins
// those invariants with golden FNV-1a hashes captured from the
// pre-refactor solver, then exercises the new kinds: a y-uniform 2-D
// sheet collapsing to the 1-D solution, K=1 communities matching the
// line bitwise, the `domain:` scenario grammar with position-naming
// rejections, sweep expansion/caching across mixed domains, and the
// resident service answering domain requests.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dl_model.h"
#include "core/dl_parameters.h"
#include "core/dl_solver.h"
#include "core/domain.h"
#include "engine/scenario_runner.h"
#include "engine/service.h"
#include "engine/solve_cache.h"

namespace {

using namespace dlm;
using namespace dlm::engine;

// ------------------------------------------------------------- fixtures

const std::vector<double>& observed() {
  static const std::vector<double> obs{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};
  return obs;
}

/// The reference 1-D solve every golden hash below was captured from:
/// paper hop parameters, 20 points per unit, hourly records over [1, 6].
/// `rate` replaces the paper's r(t) when given.
core::dl_solution solve_reference(
    core::dl_scheme scheme, const core::domain& dom = {},
    const std::optional<core::rate_field>& rate = std::nullopt) {
  core::dl_parameters p = core::dl_parameters::paper_hops(6.0);
  p.dom = dom;
  if (rate) p.r = *rate;
  const core::initial_condition phi =
      core::dl_model::build_initial(p, observed());
  core::solve_request req;
  req.params = &p;
  req.phi = &phi;
  req.t0 = 1.0;
  req.t_end = 6.0;
  req.options.scheme = scheme;
  req.options.points_per_unit = 20;
  req.options.dt = scheme == core::dl_scheme::ftcs ? 0.002 : 0.02;
  return core::solve_dl(req);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Bit-exact content hash: recorded times then every state double.
std::uint64_t hash_solution(const core::dl_solution& sol) {
  std::uint64_t h = 14695981039346656037ULL;
  const std::vector<double>& times = sol.times();
  h = fnv1a(h, times.data(), times.size() * sizeof(double));
  const std::vector<double>& data = sol.states().data();
  h = fnv1a(h, data.data(), data.size() * sizeof(double));
  return h;
}

/// A surface generated by a known DL model (the standard engine-test
/// context: calibratable, instant to build).
scenario_context make_context() {
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  truth.d = 0.06;
  truth.k = 22.0;
  const core::dl_model model(truth, observed(), 1.0, 6.0);
  std::vector<std::vector<double>> surface(observed().size());
  for (std::size_t i = 0; i < observed().size(); ++i) {
    surface[i].push_back(observed()[i]);
    for (int t = 2; t <= 6; ++t)
      surface[i].push_back(model.predict(static_cast<int>(i) + 1, t));
  }
  return scenario_context::from_surface(
      "dom", social::distance_metric::friendship_hops, std::move(surface),
      core::dl_parameters::paper_hops(6.0));
}

// ------------------------------------------------ 1-D bitwise invariance

TEST(DomainLine, AllFourSchemesMatchPreRefactorGoldenHashes) {
  // Captured from the solver BEFORE the domain layer existed.  A changed
  // hash means the refactor moved at least one bit of 1-D output — which
  // would silently invalidate persistent caches, golden fits and CSVs.
  EXPECT_EQ(hash_solution(solve_reference(core::dl_scheme::ftcs)),
            8563029355222422981ULL);
  EXPECT_EQ(hash_solution(solve_reference(core::dl_scheme::strang_cn)),
            12594215034540148056ULL);
  EXPECT_EQ(hash_solution(solve_reference(core::dl_scheme::implicit_newton)),
            11316498957585979020ULL);
  EXPECT_EQ(hash_solution(solve_reference(core::dl_scheme::mol_rk4)),
            13995942156041330501ULL);

  // Spot values, so a hash mismatch has a human-readable anchor.
  const core::dl_solution sol = solve_reference(core::dl_scheme::strang_cn);
  EXPECT_EQ(sol.at(2.0, 4.0), 4.1008597869276526);
  EXPECT_EQ(sol.at(5.0, 6.0), 3.1269208373731376);
  EXPECT_EQ(sol.states().size(), 6u);
  EXPECT_EQ(sol.states().cols(), 101u);

  // The implicit schemes under every rate family solver_batch_test
  // batches (temporal, separable, per-group, per-group anchored past
  // x_min), captured from the scalar Strang–CN / implicit-Newton loops
  // before the packed lanes became the only line implementation.
  const core::rate_field families[] = {
      core::growth_rate::paper_hops(),
      core::rate_field::separable(core::growth_rate::paper_hops(),
                                  {1.0, 0.9, 0.8, 0.7, 0.5, 0.4}),
      core::rate_field::per_group(
          {core::growth_rate::paper_hops(), core::growth_rate::constant(0.4),
           core::growth_rate::exponential_decay(1.0, 1.2, 0.2),
           core::growth_rate::constant(0.3),
           core::growth_rate::paper_interest(),
           core::growth_rate::constant(0.25)}),
      core::rate_field::per_group(
          {core::growth_rate::exponential_decay(0.8, 0.7, 0.2),
           core::growth_rate::constant(0.35),
           core::growth_rate::exponential_decay(0.5, 2.0, 0.1)},
          2.0),
  };
  const struct {
    core::dl_scheme scheme;
    std::uint64_t hashes[4];  ///< one per entry of `families`
  } implicit_goldens[] = {
      {core::dl_scheme::strang_cn,
       {12594215034540148056ULL, 6356994963473792530ULL,
        9605994866880897921ULL, 14192600285610169882ULL}},
      {core::dl_scheme::implicit_newton,
       {11316498957585979020ULL, 14638427052065694229ULL,
        1374740488350499599ULL, 4072573255695815261ULL}},
  };
  for (const auto& golden : implicit_goldens)
    for (std::size_t f = 0; f < 4; ++f)
      EXPECT_EQ(hash_solution(solve_reference(golden.scheme, {}, families[f])),
                golden.hashes[f])
          << core::to_string(golden.scheme) << " family " << f;
}

TEST(DomainSolver, NonLineDomainsMatchTheirGoldenHashes) {
  // Captured from the ADI sheet and the coupled-community solver as they
  // stood before lockstep calibration; any rewrite of either stepping
  // loop (a transposed lockstep ADI, say) must keep every output bit.
  EXPECT_EQ(hash_solution(solve_reference(core::dl_scheme::strang_cn,
                                          core::domain::grid(1.0, 4.0))),
            0x316cd0f3fc11761bULL);
  EXPECT_EQ(hash_solution(solve_reference(core::dl_scheme::strang_cn,
                                          core::domain::coupled(3, 0.05))),
            0x1664d0135da3dcf0ULL);
}

TEST(DomainCommunities, SingleCommunityIsBitwiseIdenticalToTheLine) {
  const core::dl_solution line = solve_reference(core::dl_scheme::strang_cn);
  const core::dl_solution one =
      solve_reference(core::dl_scheme::strang_cn, core::domain::coupled(1));
  ASSERT_EQ(one.states().data().size(), line.states().data().size());
  EXPECT_EQ(std::memcmp(one.states().data().data(),
                        line.states().data().data(),
                        line.states().data().size() * sizeof(double)),
            0);
  EXPECT_EQ(one.blocks(), 1u);
}

TEST(DomainGrid2d, YUniformSheetMatchesTheLineToTolerance) {
  // A sheet with no y-variation (broadcast initial profile, x-only rate)
  // must reproduce the 1-D dynamics: the ADI split differs from the 1-D
  // Strang step only by the y-diffusion passes, which are identity on a
  // y-constant field up to roundoff.
  const core::dl_solution line = solve_reference(core::dl_scheme::strang_cn);
  const core::dl_solution sheet = solve_reference(
      core::dl_scheme::strang_cn, core::domain::grid(1.0, 4.0));
  EXPECT_GT(sheet.blocks(), 1u);
  for (int x = 1; x <= 6; ++x)
    for (int t = 2; t <= 6; ++t)
      EXPECT_NEAR(sheet.at(x, t), line.at(x, t), 1e-12)
          << "x=" << x << " t=" << t;
}

TEST(DomainCommunities, MixingConservesBoundedMassAndCouples) {
  // Three communities, asymmetric initial mass: without mixing they
  // evolve independently; with mixing the scaled-down communities must
  // gain mass relative to their unmixed runs.
  core::domain mixed = core::domain::coupled(3, 0.2);
  mixed.scales = {1.0, 0.4, 0.1};
  core::domain unmixed = core::domain::coupled(3);
  unmixed.scales = {1.0, 0.4, 0.1};
  const core::dl_solution with =
      solve_reference(core::dl_scheme::strang_cn, mixed);
  const core::dl_solution without =
      solve_reference(core::dl_scheme::strang_cn, unmixed);
  // value_at block-averages; compare the raw final rows community-wise.
  const std::size_t nx = with.states().cols() / 3;
  const auto final_with = with.states()[with.states().size() - 1];
  const auto final_without = without.states()[without.states().size() - 1];
  double mass_with = 0.0, mass_without = 0.0;
  for (std::size_t i = 0; i < nx; ++i) {
    mass_with += final_with[2 * nx + i];       // weakest community
    mass_without += final_without[2 * nx + i];
  }
  EXPECT_GT(mass_with, mass_without);
  EXPECT_LT(with.max_abs(), 100.0);  // bounded, no blow-up
}

TEST(DomainSolver, NonLineDomainsRejectEverySchemeButStrangCn) {
  for (const core::dl_scheme scheme :
       {core::dl_scheme::ftcs, core::dl_scheme::implicit_newton,
        core::dl_scheme::mol_rk4}) {
    try {
      (void)solve_reference(scheme, core::domain::grid(1.0, 4.0));
      FAIL() << "scheme " << static_cast<int>(scheme) << " did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "supports only the strang-cn scheme"),
                std::string::npos)
          << e.what();
    }
  }
}

// --------------------------------------------------- domain spec grammar

TEST(DomainSpec, ParsesAndCanonicalizesEveryForm) {
  EXPECT_TRUE(make_domain("line").is_line());
  EXPECT_TRUE(make_domain("").is_line());
  EXPECT_TRUE(make_domain("-").is_line());
  EXPECT_EQ(make_domain("line").label(), "line");

  const core::domain grid = make_domain("grid2d:1,4");
  EXPECT_EQ(grid.kind, core::domain_kind::grid2d);
  EXPECT_EQ(grid.label(), "grid2d:1,4");

  const core::domain comm = make_domain("comm:3|mix=0.05");
  EXPECT_EQ(comm.kind, core::domain_kind::communities);
  EXPECT_EQ(comm.community_count, 3u);
  EXPECT_TRUE(comm.has_mixing());
  // Labels round-trip through the parser to the same canonical form.
  EXPECT_EQ(make_domain(comm.label()).label(), comm.label());

  const core::domain scaled = make_domain("comm:2|mix=0.1|scale=1,0.5");
  ASSERT_EQ(scaled.scales.size(), 2u);
  EXPECT_EQ(scaled.scales[1], 0.5);
  // Segment order is free.
  EXPECT_EQ(make_domain("comm:2|scale=1,0.5|mix=0.1").label(),
            scaled.label());

  // A full matrix whose off-diagonals are uniform collapses in the label.
  const core::domain full = make_domain("comm:2|mix=0,0.1,0.1,0");
  EXPECT_EQ(full.label(), make_domain("comm:2|mix=0.1").label());
}

TEST(DomainSpec, RejectionsNameThePositionTheSpecAndTheGrammar) {
  const auto expect_rejected = [](const std::string& spec,
                                  const std::string& position) {
    try {
      (void)make_domain(spec);
      FAIL() << "spec '" << spec << "' was not rejected";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + spec + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("accepted domain specs"), std::string::npos)
          << what;
      EXPECT_NE(what.find(position), std::string::npos) << what;
    }
  };
  expect_rejected("bogus", "at position 1");
  expect_rejected("grid2d:1", "at position 8");         // missing y_max
  expect_rejected("grid2d:4,1", "at position 8");       // y_min >= y_max
  expect_rejected("grid2d:a,4", "at position 8");       // bad number
  expect_rejected("comm:0", "at position 6");           // zero communities
  expect_rejected("comm:x", "at position 6");           // bad count
  expect_rejected("comm:2|bogus=1", "at position 8");   // unknown segment
  expect_rejected("comm:2|mix=0.1,0.2", "at position 12");  // 1 or K*K
  expect_rejected("comm:2|scale=1", "at position 14");  // one per community
  expect_rejected("comm:2|mix=1,,4,1", "at position 14");  // empty entry
  expect_rejected("comm:2|", "at position 8");          // empty segment
}

TEST(DomainSpec, RateSpecRejectionsNowNameThePositionToo) {
  // The position retrofit covers the existing rate grammar as well: the
  // offending token, not just the spec.
  const auto expect_position = [](const std::string& spec,
                                  const std::string& position) {
    try {
      (void)make_rate(spec, social::distance_metric::friendship_hops);
      FAIL() << "spec '" << spec << "' was not rejected";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + spec + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("accepted growth-rate specs"), std::string::npos)
          << what;
      EXPECT_NE(what.find(position), std::string::npos) << what;
    }
  };
  expect_position("bogus", "at position 1");
  expect_position("constant:abc", "at position 10");
  expect_position("decay:1.0", "at position 7");
  // "spatial:preset|1,,2": the empty multiplier starts at character 18.
  expect_position("spatial:preset|1,,2", "at position 18");
  expect_position("spatial:preset|1,-0.5", "at position 18");
  // "per-hop:preset;bogus": the bad entry starts at character 16.
  expect_position("per-hop:preset;bogus", "at position 16");
}

// ------------------------------------------------- sweep / cache / CSV

TEST(DomainSweep, ExpandCollapsesDomainsForDomainFreeModelsAndSkipsFtcs) {
  const scenario_context ctx = make_context();
  sweep_spec spec;
  spec.models = {"dl", "heat"};
  spec.schemes = {core::dl_scheme::strang_cn, core::dl_scheme::ftcs};
  spec.domains = {"line", "grid2d:1,4", "-"};  // "-" dedups into "line"
  const std::vector<scenario> scenarios = expand_sweep(spec, ctx);

  std::size_t dl_line = 0, dl_grid = 0, heat = 0;
  for (const scenario& sc : scenarios) {
    if (sc.model == "heat") {
      ++heat;
      EXPECT_EQ(sc.domain, "line");
    } else if (sc.domain == "line") {
      ++dl_line;
    } else {
      ++dl_grid;
      // Non-line never pairs with a non-strang scheme.
      EXPECT_EQ(sc.scheme, core::dl_scheme::strang_cn);
    }
  }
  EXPECT_EQ(dl_line, 2u);  // strang-cn + ftcs
  EXPECT_EQ(dl_grid, 1u);  // strang-cn only
  EXPECT_EQ(heat, 1u);     // no scheme or domain axis
}

TEST(DomainSweep, LineCacheKeysAreByteIdenticalToPreDomainKeys) {
  const scenario_context ctx = make_context();
  const std::unique_ptr<diffusion_model> model =
      default_registry().make("dl");
  scenario sc;
  sc.model = "dl";
  const std::string line_key = scenario_cache_key(sc, ctx.slice(0), *model);
  // The domain axis must not leak into 1-D keys: persistent caches from
  // before the axis existed keep hitting.
  EXPECT_EQ(line_key.find("domain="), std::string::npos);

  sc.domain = "grid2d:1,4";
  const std::string grid_key = scenario_cache_key(sc, ctx.slice(0), *model);
  EXPECT_NE(grid_key, line_key);
  EXPECT_NE(grid_key.find("|domain=grid2d:1,4"), std::string::npos);

  // Canonical labels key the cache, not the raw spelling: a full uniform
  // matrix and its collapsed rate produce one entry.
  sc.domain = "comm:2|mix=0,0.1,0.1,0";
  const std::string a = scenario_cache_key(sc, ctx.slice(0), *model);
  sc.domain = "comm:2|mix=0.1";
  EXPECT_EQ(a, scenario_cache_key(sc, ctx.slice(0), *model));
}

TEST(DomainSweep, MixedDomainWarmSweepSolvesNothingAndKeepsCsvBytes) {
  const scenario_context ctx = make_context();
  sweep_spec spec;
  spec.models = {"dl"};
  spec.domains = {"line", "grid2d:1,4", "comm:3|mix=0.05"};

  solve_cache cache;
  runner_options options;
  options.cache = &cache;
  const sweep_result cold = run_sweep(ctx, spec, options);
  ASSERT_EQ(cold.table.size(), 3u);
  const std::string csv = cold.table.to_csv();
  // Non-line rows surface the domain column with canonical labels.
  EXPECT_NE(csv.find(",domain"), std::string::npos);
  EXPECT_NE(csv.find("grid2d:1,4"), std::string::npos);
  EXPECT_NE(csv.find("comm:3|mix=0.050000000000000003"), std::string::npos);

  // Every domain variant actually predicted something sensible.
  for (const result_row& row : cold.table.rows()) {
    EXPECT_GT(row.accuracy, 0.0) << row.domain;
    EXPECT_EQ(row.cells, 30u) << row.domain;
  }

  // Warm re-run: every scenario is a pure cache lookup — zero PDE
  // solves (misses frozen, one hit per scenario) and byte-identical CSV.
  const cache_stats after_cold = cache.stats();
  EXPECT_EQ(after_cold.misses, 3u);
  const sweep_result warm = run_sweep(ctx, spec, options);
  const cache_stats after_warm = cache.stats();
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  EXPECT_EQ(after_warm.hits, after_cold.hits + 3u);
  EXPECT_EQ(warm.table.to_csv(), csv);

  // And the CSV round-trips through the optional domain column.
  const result_table parsed = result_table::from_csv(csv);
  ASSERT_EQ(parsed.size(), 3u);
  for (std::size_t i = 0; i < parsed.size(); ++i)
    EXPECT_TRUE(parsed.row(i).same_result(cold.table.row(i))) << i;
}

TEST(DomainSweep, LineOnlySweepKeepsTheHistoricalCsvColumns) {
  const scenario_context ctx = make_context();
  sweep_spec spec;
  spec.models = {"dl"};
  const sweep_result result = run_sweep(ctx, spec, {});
  const std::string csv = result.table.to_csv();
  EXPECT_EQ(csv.find("domain"), std::string::npos);
}

// ------------------------------------------------------------- service

TEST(DomainService, SolveAndPredictAcceptDomainRequests) {
  scenario_context context = make_context();
  const std::string slice = context.slice_names().at(0);
  service_options options;
  options.socket_path =
      (std::filesystem::temp_directory_path() /
       ("dlm_domain_service_" + std::to_string(::getpid()) + ".sock"))
          .string();
  dl_service service(std::move(context), options);
  service_client client(options.socket_path);

  const std::string base = "solve model=dl slice=" + slice;
  // Line responses keep their historical shape (no domain field).
  const std::string line = client.request(base);
  ASSERT_EQ(line.rfind("ok trace", 0), 0u) << line;
  EXPECT_EQ(line.find("domain="), std::string::npos);

  // Non-line solves answer deterministically and name their domain.
  const std::string sheet = client.request(base + " domain=grid2d:1,4");
  ASSERT_EQ(sheet.rfind("ok trace", 0), 0u) << sheet;
  EXPECT_NE(sheet.find(" domain=grid2d:1,4"), std::string::npos);
  EXPECT_NE(sheet, line);
  EXPECT_EQ(client.request(base + " domain=grid2d:1,4"), sheet);

  const std::string predict = client.request(
      "predict model=dl slice=" + slice + " domain=comm:2|mix=0.1 x=2 t=4");
  ASSERT_EQ(predict.rfind("ok ", 0), 0u) << predict;

  // A malformed domain surfaces the position-naming grammar error.
  const std::string bad = client.request(base + " domain=grid2d:1");
  ASSERT_EQ(bad.rfind("err ", 0), 0u) << bad;
  EXPECT_NE(bad.find("make_domain:"), std::string::npos) << bad;
  EXPECT_NE(bad.find("at position"), std::string::npos) << bad;

  service.stop();
}

}  // namespace
