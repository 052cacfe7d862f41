// Heap allocations of the solver and solve-cache hot paths, counted
// (ctest label `perf`).
//
// A steady-state time step must not touch the heap.  bench/alloc_counter.h
// replaces the global operator new family with a counting wrapper, and
// each case differences two warm solves over the same window and record
// grid, one with half the step size: the trace, the times and the
// solution objects are the same size in both, so any allocation made per
// step shows up as a nonzero difference.  Every solve runs on this
// thread's workspace, the only scratch solve_dl has.  Covered: a single
// request of each of the four schemes on the line (ftcs and mol_rk4 on
// the scalar loop, strang_cn and implicit_newton as one padded pack), the
// 2-D ADI sheet, coupled communities, and the batched Strang–CN and
// implicit-Newton lanes at width 4.
//
// Two more counts are pinned so they cannot creep up: the allocations of
// one warm single-request solve per scheme (the solution's trace, times
// and grouping vectors; bench/perf_solver's allocs_per_solve), and the
// solve cache's per-insert and per-lookup allocations — an insert with a
// moved key allocates its map node and nothing else, a lookup nothing.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "../bench/alloc_counter.h"
#include "core/dl_solver.h"
#include "engine/solve_cache.h"

namespace {

using namespace dlm;
using core::dl_scheme;

const std::vector<double> observed{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};

/// Runs one solve (or one batched call) at step `dt`.
using solve_fn = std::function<void(double dt)>;

/// Heap allocations of one warm call: the first call sizes this thread's
/// workspace for this shape, the second is counted.
std::int64_t warm_allocations(const solve_fn& solve, double dt) {
  solve(dt);
  const std::uint64_t before = bench::allocations_now();
  solve(dt);
  return static_cast<std::int64_t>(bench::allocations_now() - before);
}

struct step_case {
  std::string name;
  dl_scheme scheme = dl_scheme::strang_cn;
  core::domain dom{};
  std::size_t points_per_unit = 20;
  std::size_t lanes = 0;  ///< 0: one single-request solve; else lanes
};

void PrintTo(const step_case& c, std::ostream* os) { *os << c.name; }

const std::vector<step_case> cases = {
    {"ftcs", dl_scheme::ftcs},
    {"strang_cn", dl_scheme::strang_cn},
    {"implicit_newton", dl_scheme::implicit_newton},
    {"mol_rk4", dl_scheme::mol_rk4},
    {"grid2d_adi", dl_scheme::strang_cn, core::domain::grid(1.0, 5.0), 10},
    {"communities", dl_scheme::strang_cn, core::domain::coupled(4, 0.05)},
    {"batched_strang_cn_4", dl_scheme::strang_cn, {}, 20, 4},
    {"batched_newton_4", dl_scheme::implicit_newton, {}, 20, 4},
};

class StepAllocations : public ::testing::TestWithParam<step_case> {};

TEST_P(StepAllocations, AddedStepsAllocateNothing) {
  const step_case& c = GetParam();
  const core::initial_condition phi(observed);
  core::dl_solver_options opts;
  opts.scheme = c.scheme;
  opts.points_per_unit = c.points_per_unit;
  const double dt = c.scheme == dl_scheme::ftcs ? 0.005 : 0.02;

  // Per-lane d and K, as a calibration round probes them.
  const std::size_t lanes = c.lanes == 0 ? 1 : c.lanes;
  std::vector<core::dl_parameters> params;
  for (std::size_t l = 0; l < lanes; ++l) {
    params.push_back(core::dl_parameters::paper_hops(6.0));
    params.back().dom = c.dom;
    params.back().d *= 1.0 + 0.15 * static_cast<double>(l);
    params.back().k *= 1.0 - 0.05 * static_cast<double>(l);
  }

  const solve_fn solve = [&](double step) {
    std::vector<core::solve_request> requests;
    for (const core::dl_parameters& p : params) {
      requests.push_back({.params = &p, .phi = &phi, .options = opts});
      requests.back().options.dt = step;
    }
    (void)core::solve_dl(requests);
  };

  const std::int64_t base = warm_allocations(solve, dt);
  const std::int64_t fine = warm_allocations(solve, 0.5 * dt);
  // The counter is live: a solve hands back heap-owned traces.
  EXPECT_GT(base, 0);
  EXPECT_EQ(fine - base, 0)
      << base << " allocations at dt " << dt << ", " << fine << " at "
      << 0.5 * dt;
}

INSTANTIATE_TEST_SUITE_P(
    HotPath, StepAllocations, ::testing::ValuesIn(cases),
    [](const ::testing::TestParamInfo<step_case>& info) {
      return info.param.name;
    });

TEST(SolveAllocations, WarmSingleRequestSolveKeepsItsCount) {
  // The counts perf_solver reports at grid 20 (allocs_per_solve): every
  // scheme samples φ into its workspace, so all four read the same.
  const struct {
    dl_scheme scheme;
    std::int64_t max_allocations;
  } budgets[] = {
      {dl_scheme::ftcs, 6},
      {dl_scheme::mol_rk4, 6},
      {dl_scheme::strang_cn, 6},
      {dl_scheme::implicit_newton, 6},
  };
  const core::dl_parameters params = core::dl_parameters::paper_hops(6.0);
  const core::initial_condition phi(observed);
  for (const auto& budget : budgets) {
    core::dl_solver_options opts;
    opts.scheme = budget.scheme;
    opts.points_per_unit = 20;
    const core::solve_request request{
        .params = &params, .phi = &phi, .options = opts};
    const solve_fn solve = [&](double step) {
      core::solve_request r = request;
      r.options.dt = step;
      (void)core::solve_dl(r);
    };
    const double dt = budget.scheme == dl_scheme::ftcs ? 0.005 : 0.02;
    EXPECT_LE(warm_allocations(solve, dt), budget.max_allocations)
        << core::to_string(budget.scheme);
  }
}

TEST(CacheAllocations, StoreAllocatesOnlyTheMapNodeAndFindNothing) {
  // Calibration-probe-shaped keys: far past the short-string buffer, so
  // every copy of a key would be a heap allocation of its own.
  constexpr std::size_t kEntries = 1000;
  const std::string prefix =
      "cal|slice=bench#1234567890|model=dl|scheme=strang-cn|grid=20|"
      "dt=0.02|rate=paper_hops|t0=1|fit_end=3|v=";
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < kEntries; ++i)
    keys.push_back(prefix + std::to_string(i) + ",0.25");
  const std::string probe = keys[kEntries / 2];

  engine::solve_cache cache;
  const std::uint64_t before_store = bench::allocations_now();
  for (std::size_t i = 0; i < kEntries; ++i)
    cache.store_value(std::move(keys[i]), static_cast<double>(i));
  const double per_store =
      static_cast<double>(bench::allocations_now() - before_store) /
      static_cast<double>(kEntries);
  EXPECT_LE(per_store, 2.0);
  ASSERT_EQ(cache.size(), kEntries);

  (void)cache.find_value(probe);
  const std::uint64_t before_find = bench::allocations_now();
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(cache.find_value(probe).has_value());
  EXPECT_EQ(bench::allocations_now() - before_find, 0u);
}

}  // namespace
