// Performance micro-benchmarks: DL solver schemes, spline construction,
// and the tridiagonal kernel.
//
// Every solver benchmark reports two counters next to ns/op:
//
//  * allocs_per_solve — heap allocations per whole solve (counting
//    allocator, bench/alloc_counter.h).  On the warm thread-local
//    workspace this is the handful of per-solve allocations: sampling φ,
//    the times/trace buffers that leave with the dl_solution, and the
//    span call's grouping and result vectors.
//  * allocs_per_step — the marginal allocations of adding a time step,
//    measured by differencing two warm solves that differ only in step
//    count.  The hot-path contract is that this is exactly 0 for every
//    scheme (steady-state stepping never touches the heap).
//
// The bench CI workflow runs this binary with --benchmark_out to emit
// BENCH_solver.json; the counters land in each benchmark's JSON record,
// seeding the perf trajectory (op/grid/scheme are encoded in the names,
// e.g. "bm_strang/20" = strang-cn at 20 points per unit).

#include <benchmark/benchmark.h>

#include <cmath>

#include "alloc_counter.h"
#include "core/dl_model.h"
#include "core/dl_solver.h"
#include "numerics/cubic_spline.h"
#include "numerics/tridiagonal.h"

namespace {

using namespace dlm;

const std::vector<double> observed{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};

core::dl_solver_options options_for(core::dl_scheme scheme,
                                    std::size_t points_per_unit) {
  core::dl_solver_options opts;
  opts.scheme = scheme;
  opts.points_per_unit = points_per_unit;
  opts.dt = scheme == core::dl_scheme::ftcs ? 0.005 : 0.02;
  return opts;
}

/// Marginal allocations per extra time step: two warm solves over the
/// same window and recording grid, one with half the step size.  Any
/// per-step allocation would show up multiplied by the extra steps.
double allocs_per_step(const core::dl_parameters& params,
                       const core::initial_condition& phi,
                       core::dl_solver_options opts) {
  core::solve_request request{.params = &params, .phi = &phi, .options = opts};
  (void)solve_dl(request);  // warm this thread's workspace
  const std::uint64_t before = bench::allocations_now();
  (void)solve_dl(request);
  const std::uint64_t base = bench::allocations_now() - before;
  const double steps_base = std::ceil(5.0 / opts.dt);
  request.options.dt *= 0.5;  // same window + records, twice the steps
  (void)solve_dl(request);
  const std::uint64_t before_fine = bench::allocations_now();
  (void)solve_dl(request);
  const std::uint64_t fine = bench::allocations_now() - before_fine;
  // Signed: a stray one-off allocation (libc lazy init, arena growth)
  // during either measurement must not wrap the counter.
  return static_cast<double>(static_cast<std::int64_t>(fine) -
                             static_cast<std::int64_t>(base)) /
         steps_base;
}

void bm_solve(benchmark::State& state, core::dl_scheme scheme,
              const core::dl_parameters& params) {
  const core::initial_condition phi(observed);
  const core::dl_solver_options opts =
      options_for(scheme, static_cast<std::size_t>(state.range(0)));
  const double per_step = allocs_per_step(params, phi, opts);
  const core::solve_request request{
      .params = &params, .phi = &phi, .options = opts};
  const std::uint64_t before = bench::allocations_now();
  for (auto _ : state) {
    const core::dl_solution sol = solve_dl(request);
    benchmark::DoNotOptimize(sol.states().back().data());
  }
  state.counters["allocs_per_solve"] = benchmark::Counter(
      static_cast<double>(bench::allocations_now() - before),
      benchmark::Counter::kAvgIterations);
  state.counters["allocs_per_step"] = per_step;
}

void bm_solve_scheme(benchmark::State& state, core::dl_scheme scheme) {
  bm_solve(state, scheme, core::dl_parameters::paper_hops(6.0));
}

void bm_ftcs(benchmark::State& s) { bm_solve_scheme(s, core::dl_scheme::ftcs); }
void bm_strang(benchmark::State& s) {
  bm_solve_scheme(s, core::dl_scheme::strang_cn);
}
void bm_newton(benchmark::State& s) {
  bm_solve_scheme(s, core::dl_scheme::implicit_newton);
}
void bm_rk4(benchmark::State& s) {
  bm_solve_scheme(s, core::dl_scheme::mol_rk4);
}

BENCHMARK(bm_ftcs)->Arg(20)->Arg(80);
BENCHMARK(bm_strang)->Arg(20)->Arg(80)->Arg(320);
BENCHMARK(bm_newton)->Arg(20)->Arg(80);
BENCHMARK(bm_rk4)->Arg(20)->Arg(80);

// Strang–CN under a per-group rate (one growth_rate per distance group,
// blended across nodes): the rate varies in x, so every step takes one
// exp per node for each half-step instead of one per solve.
void bm_strang_spatial(benchmark::State& s) {
  core::dl_parameters params = core::dl_parameters::paper_hops(6.0);
  params.r = core::rate_field::per_group(
      {core::growth_rate::paper_hops(), core::growth_rate::constant(0.4),
       core::growth_rate::exponential_decay(1.0, 1.2, 0.2),
       core::growth_rate::constant(0.3), core::growth_rate::paper_interest(),
       core::growth_rate::constant(0.25)});
  bm_solve(s, core::dl_scheme::strang_cn, params);
}
BENCHMARK(bm_strang_spatial)->Arg(20)->Arg(80);

// Batched lockstep Strang–CN: Args(width, points per unit) — width
// independent scenarios (same grid/dt, per-lane d) advanced over this
// thread's SoA batch workspace.  items_processed counts scenarios, so the
// report's items/sec column is scenarios/sec directly — width 1 is a
// single request (one two-lane pack whose second lane is a discarded
// copy), width 3 pads its second pack the same way, and grid 80 is
// the dl_shard bench sweep's shape (401 nodes, 8 lanes per chunk).
void bm_batched_strang_cn(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  const core::dl_solver_options opts = options_for(
      core::dl_scheme::strang_cn, static_cast<std::size_t>(state.range(1)));
  std::vector<core::dl_parameters> params;
  params.reserve(width);
  for (std::size_t l = 0; l < width; ++l) {
    params.push_back(core::dl_parameters::paper_hops(6.0));
    params.back().d *= 1.0 + 0.15 * static_cast<double>(l);
  }
  const core::initial_condition phi(observed);
  std::vector<core::solve_request> requests;
  requests.reserve(width);
  for (std::size_t l = 0; l < width; ++l)
    requests.push_back({.params = &params[l], .phi = &phi, .options = opts});
  for (auto _ : state) {
    const std::vector<core::dl_solution> sols = core::solve_dl(requests);
    benchmark::DoNotOptimize(sols.back().states().back().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(width));
}
BENCHMARK(bm_batched_strang_cn)
    ->ArgsProduct({{1, 2, 3, 4, 8}, {20}})
    ->ArgsProduct({{1, 4, 8}, {80}});

// Batched implicit-Newton lanes at the calibration probe shape: grid 20,
// hours 1 → 4 (an auto fit window), per-lane d and K as a Nelder–Mead
// round probes them.  Each lane iterates to its own convergence under a
// mask, so width 1 (a single request, one padded pack) vs width 4/8 is
// the lane gain a lockstep calibration round sees; width 3 runs a padded
// pack too.
void bm_batched_newton(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  const core::dl_solver_options opts =
      options_for(core::dl_scheme::implicit_newton, 20);
  std::vector<core::dl_parameters> params;
  params.reserve(width);
  for (std::size_t l = 0; l < width; ++l) {
    params.push_back(core::dl_parameters::paper_hops(6.0));
    params.back().d *= 1.0 + 0.15 * static_cast<double>(l);
    params.back().k *= 1.0 - 0.05 * static_cast<double>(l);
  }
  const core::initial_condition phi(observed);
  std::vector<core::solve_request> requests;
  requests.reserve(width);
  for (std::size_t l = 0; l < width; ++l)
    requests.push_back(
        {.params = &params[l], .phi = &phi, .t_end = 4.0, .options = opts});
  for (auto _ : state) {
    const std::vector<core::dl_solution> sols = core::solve_dl(requests);
    benchmark::DoNotOptimize(sols.back().states().back().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(width));
}
BENCHMARK(bm_batched_newton)->Arg(1)->Arg(3)->Arg(4)->Arg(8);

// 2-D ADI sheet solve (core::domain::grid): Arg is points_per_unit on
// the distance axis; the interest axis spans [1, 5] at the same
// resolution, so Arg(20) steps an 80×121-node sheet.  The per-step
// contract matches the 1-D schemes: after the workspace warms, a
// steady-state ADI step (two tridiagonal passes + fused reaction
// half-steps) allocates nothing.
void bm_adi_2d_step(benchmark::State& state) {
  core::dl_parameters params = core::dl_parameters::paper_hops(6.0);
  params.dom = core::domain::grid(1.0, 5.0);
  const core::initial_condition phi(observed);
  core::dl_solver_options opts =
      options_for(core::dl_scheme::strang_cn,
                  static_cast<std::size_t>(state.range(0)));
  const double per_step = allocs_per_step(params, phi, opts);
  const core::solve_request request{
      .params = &params, .phi = &phi, .options = opts};
  const std::uint64_t before = bench::allocations_now();
  for (auto _ : state) {
    const core::dl_solution sol = solve_dl(request);
    benchmark::DoNotOptimize(sol.states().back().data());
  }
  state.counters["allocs_per_solve"] = benchmark::Counter(
      static_cast<double>(bench::allocations_now() - before),
      benchmark::Counter::kAvgIterations);
  state.counters["allocs_per_step"] = per_step;
}
BENCHMARK(bm_adi_2d_step)->Arg(20)->Arg(40);

// Coupled-community sweep (core::domain::coupled): Arg is the community
// count K, mixing every pair at a uniform rate.  items_processed counts
// community-lines stepped, so items/sec reads as 1-D-equivalent solves
// per second; the counters pin the same zero-allocation step contract.
void bm_coupled_communities(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  core::dl_parameters params = core::dl_parameters::paper_hops(6.0);
  params.dom = core::domain::coupled(k, 0.05);
  for (std::size_t c = 0; c < k; ++c)
    params.dom.scales.push_back(1.0 / static_cast<double>(c + 1));
  const core::initial_condition phi(observed);
  const core::dl_solver_options opts =
      options_for(core::dl_scheme::strang_cn, 20);
  const double per_step = allocs_per_step(params, phi, opts);
  const core::solve_request request{
      .params = &params, .phi = &phi, .options = opts};
  const std::uint64_t before = bench::allocations_now();
  for (auto _ : state) {
    const core::dl_solution sol = solve_dl(request);
    benchmark::DoNotOptimize(sol.states().back().data());
  }
  state.counters["allocs_per_solve"] = benchmark::Counter(
      static_cast<double>(bench::allocations_now() - before),
      benchmark::Counter::kAvgIterations);
  state.counters["allocs_per_step"] = per_step;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(k));
}
BENCHMARK(bm_coupled_communities)->Arg(2)->Arg(4)->Arg(8);

void bm_spline_build(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>(i);
    y[i] = std::sin(0.1 * static_cast<double>(i));
  }
  for (auto _ : state) {
    const num::cubic_spline s = num::cubic_spline::flat_ends(x, y);
    benchmark::DoNotOptimize(s(0.5 * static_cast<double>(n)));
  }
}
BENCHMARK(bm_spline_build)->Arg(8)->Arg(64)->Arg(512);

num::tridiagonal_matrix laplacian_like(std::size_t n) {
  num::tridiagonal_matrix a(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.diag[i] = 4.0;
    if (i + 1 < n) a.upper[i] = -1.0;
    if (i > 0) a.lower[i - 1] = -1.0;
  }
  return a;
}

void bm_tridiagonal_solve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const num::tridiagonal_matrix a = laplacian_like(n);
  std::vector<double> rhs(n, 1.0), scratch;
  for (auto _ : state) {
    std::vector<double> x = rhs;
    num::solve_tridiagonal_in_place(a, x, scratch);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(bm_tridiagonal_solve)->Arg(101)->Arg(1001)->Arg(10001);

// The cached-elimination solve the Strang–CN scheme runs every step:
// the coefficient sweep is amortized into factor(), so each solve is
// the rhs forward sweep + back substitution only.
void bm_tridiagonal_factored_solve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const num::tridiagonal_matrix a = laplacian_like(n);
  num::tridiagonal_factorization f;
  f.factor(a);
  std::vector<double> rhs(n, 1.0), x(n);
  for (auto _ : state) {
    x = rhs;  // capacity reused: the copy stays off the heap
    f.solve_in_place(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(bm_tridiagonal_factored_solve)->Arg(101)->Arg(1001)->Arg(10001);

}  // namespace
