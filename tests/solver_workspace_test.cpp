// Workspace-reuse determinism for the allocation-free solver hot path.
//
// The contract the thread-local workspace sells is "reuse never changes
// results": a solve on this thread's dirty, previously-used workspace
// must produce a trace bitwise identical to a solve on a fresh one — a
// solve on a new std::thread, whose workspace starts empty.  These tests
// pin that across all four schemes and the temporal/spatial rate
// families, plus mixed-size reuse (buffers shrink/grow between solves)
// and the trace_storage plumbing underneath.

#include "core/dl_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <vector>

#include "core/rate_field.h"
#include "core/trace_storage.h"

namespace {

using namespace dlm;
using core::dl_scheme;

const std::vector<double> observed{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};

core::dl_solver_options options_for(dl_scheme scheme,
                                    std::size_t points_per_unit = 20) {
  core::dl_solver_options opts;
  opts.scheme = scheme;
  opts.points_per_unit = points_per_unit;
  opts.dt = scheme == dl_scheme::ftcs ? 0.005 : 0.02;
  return opts;
}

core::dl_parameters spatial_params() {
  core::dl_parameters params = core::dl_parameters::paper_hops(6.0);
  params.r = core::rate_field::separable(
      params.r.base(), {1.3, 1.0, 0.75, 0.6, 0.5, 0.45}, params.x_min);
  return params;
}

void expect_bitwise_equal(const core::dl_solution& a,
                          const core::dl_solution& b, const char* what) {
  ASSERT_EQ(a.times().size(), b.times().size()) << what;
  for (std::size_t i = 0; i < a.times().size(); ++i)
    ASSERT_EQ(a.times()[i], b.times()[i]) << what << " time " << i;
  ASSERT_EQ(a.states().size(), b.states().size()) << what;
  ASSERT_EQ(a.states().cols(), b.states().cols()) << what;
  for (std::size_t s = 0; s < a.states().size(); ++s) {
    for (std::size_t i = 0; i < a.states().cols(); ++i) {
      // EXPECT_EQ on doubles is exact — bitwise identity is the contract.
      ASSERT_EQ(a.states()[s][i], b.states()[s][i])
          << what << " snapshot " << s << " node " << i;
    }
  }
}

/// The reference solve: on a new thread, so on a fresh workspace.
core::dl_solution solve_fresh(const core::solve_request& request) {
  return std::async(std::launch::async, [&] {
           return core::solve_dl(request);
         }).get();
}

class WorkspaceReuse : public ::testing::TestWithParam<dl_scheme> {};

TEST_P(WorkspaceReuse, BackToBackSolvesMatchFreshWorkspace) {
  const dl_scheme scheme = GetParam();
  const core::initial_condition phi(observed);
  const core::dl_solver_options opts = options_for(scheme);

  for (const bool spatial : {false, true}) {
    const core::dl_parameters params =
        spatial ? spatial_params() : core::dl_parameters::paper_hops(6.0);
    const char* what = spatial ? "spatial rate" : "temporal rate";

    const core::solve_request request{.params = &params,
                                      .phi = &phi,
                                      .t0 = 1.0,
                                      .t_end = 6.0,
                                      .options = opts};
    const core::dl_solution ref = solve_fresh(request);

    // This thread's workspace, twice in a row: the second solve starts
    // from dirty buffers and must not care.
    const core::dl_solution first = core::solve_dl(request);
    const core::dl_solution second = core::solve_dl(request);
    expect_bitwise_equal(first, ref, what);
    expect_bitwise_equal(second, ref, what);
  }
}

TEST_P(WorkspaceReuse, ReuseAcrossGridSizesAndRateFamilies) {
  const dl_scheme scheme = GetParam();
  const core::initial_condition phi(observed);

  // This thread's workspace dragged through different grid sizes and
  // rate families (buffers shrink and grow); each solve must equal its
  // fresh twin.
  for (const std::size_t ppu : {10u, 20u, 10u}) {
    for (const bool spatial : {false, true}) {
      const core::dl_parameters params =
          spatial ? spatial_params() : core::dl_parameters::paper_hops(6.0);
      const core::solve_request request{.params = &params,
                                        .phi = &phi,
                                        .t0 = 1.0,
                                        .t_end = 4.0,
                                        .options = options_for(scheme, ppu)};
      expect_bitwise_equal(solve_fresh(request), core::solve_dl(request),
                           spatial ? "spatial" : "temporal");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, WorkspaceReuse,
                         ::testing::Values(dl_scheme::ftcs,
                                           dl_scheme::strang_cn,
                                           dl_scheme::implicit_newton,
                                           dl_scheme::mol_rk4),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(WorkspaceReuse, TrailingShortStepRefactorsCleanly) {
  // t_end not a multiple of dt: the CN matrices are rebuilt and
  // refactored mid-run; reuse must still be bitwise stable.
  const core::initial_condition phi(observed);
  const core::dl_parameters params = core::dl_parameters::paper_hops(6.0);
  core::dl_solver_options opts = options_for(dl_scheme::strang_cn);
  opts.dt = 0.03;

  const core::solve_request request{.params = &params,
                                    .phi = &phi,
                                    .t0 = 1.0,
                                    .t_end = 5.75,
                                    .options = opts};
  const core::dl_solution a = core::solve_dl(request);
  const core::dl_solution b = core::solve_dl(request);
  expect_bitwise_equal(b, a, "trailing step");
  expect_bitwise_equal(solve_fresh(request), a, "trailing step, fresh");
}

TEST(TraceStorage, RowsViewTheContiguousBuffer) {
  core::trace_storage trace(3);
  trace.reserve(2);
  trace.append_row(std::vector<double>{1.0, 2.0, 3.0});
  trace.append_row(std::vector<double>{4.0, 5.0, 6.0});

  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.cols(), 3u);
  EXPECT_EQ(trace.data().size(), 6u);
  EXPECT_EQ(trace[1][0], 4.0);
  EXPECT_EQ(trace.front()[2], 3.0);
  EXPECT_EQ(trace.back()[2], 6.0);
  // Rows are views into one buffer, not copies.
  EXPECT_EQ(trace[0].data(), trace.data().data());
  EXPECT_EQ(trace[1].data(), trace.data().data() + 3);

  double sum = 0.0;
  for (const auto& row : trace)
    for (double v : row) sum += v;
  EXPECT_DOUBLE_EQ(sum, 21.0);

  EXPECT_THROW(trace.append_row(std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(core::trace_storage(0), std::invalid_argument);
  EXPECT_THROW(core::trace_storage(2, std::vector<double>{1.0, 2.0, 3.0}),
               std::invalid_argument);
}

TEST(TraceStorage, SolutionStatesAreContiguous) {
  const core::initial_condition phi(observed);
  const core::dl_parameters params = core::dl_parameters::paper_hops(6.0);
  const core::dl_solution sol =
      core::solve_dl({.params = &params, .phi = &phi, .t0 = 1.0, .t_end = 6.0,
                      .options = options_for(dl_scheme::strang_cn)});
  const core::trace_storage& states = sol.states();
  ASSERT_EQ(states.size(), sol.times().size());
  EXPECT_EQ(states.data().size(), states.size() * states.cols());
  for (std::size_t s = 0; s < states.size(); ++s)
    EXPECT_EQ(states[s].data(), states.data().data() + s * states.cols());
}

}  // namespace
