#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dl_model.h"
#include "fit/calibrate.h"
#include "fit/objective.h"
#include "fit/rate_profile.h"
#include "models/logistic.h"

namespace {

using namespace dlm;

// A synthetic "ground truth" DL model generates the observation window;
// calibration must recover (or match the fit quality of) its parameters.
fit::observation_window window_from_model(const core::dl_parameters& truth) {
  const std::vector<double> initial{1.9, 0.8, 1.1, 0.6, 0.4, 0.3};
  const core::dl_model model(truth, initial);
  fit::observation_window window;
  window.t0 = 1.0;
  window.initial = initial;
  window.times = {2.0, 3.0, 4.0, 5.0};
  window.observed.resize(initial.size());
  for (double t : window.times) {
    const std::vector<double> profile = model.predict_profile(t);
    for (std::size_t i = 0; i < profile.size(); ++i)
      window.observed[i].push_back(profile[i]);
  }
  return window;
}

TEST(ObservationWindow, ValidationCatchesShapeErrors) {
  fit::observation_window w;
  w.initial = {1.0, 2.0};
  w.times = {2.0};
  w.observed = {{1.5}, {2.5}};
  EXPECT_NO_THROW(w.validate());

  fit::observation_window bad = w;
  bad.times = {0.5};  // not after t0
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = w;
  bad.observed.pop_back();
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = w;
  bad.observed[0].push_back(9.0);
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  bad = w;
  bad.initial = {1.0};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(DlSse, ZeroForGeneratingParameters) {
  const core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  const fit::observation_window window = window_from_model(truth);
  EXPECT_LT(fit::dl_sse(truth, window), 1e-10);
}

TEST(DlSse, PositiveForWrongParameters) {
  const core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  const fit::observation_window window = window_from_model(truth);
  core::dl_parameters wrong = truth;
  wrong.k = 10.0;
  EXPECT_GT(fit::dl_sse(wrong, window), 0.1);
}

TEST(DlSse, InfiniteForInvalidParameters) {
  const fit::observation_window window =
      window_from_model(core::dl_parameters::paper_hops(6.0));
  core::dl_parameters invalid = core::dl_parameters::paper_hops(6.0);
  invalid.k = -5.0;
  EXPECT_TRUE(std::isinf(fit::dl_sse(invalid, window)));
}

TEST(CalibrateDl, RecoversDiffusionAndCapacity) {
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  truth.d = 0.08;
  truth.k = 20.0;
  const fit::observation_window window = window_from_model(truth);

  fit::calibration_options options;
  options.fit_rate = false;  // keep the known r(t); fit (d, K) only
  options.coarse_steps = 4;
  options.d_max = 0.3;
  options.k_min = 5.0;
  options.k_max = 50.0;

  const fit::calibration_result result =
      fit::calibrate_dl(window, core::dl_parameters::paper_hops(6.0), options);
  EXPECT_NEAR(result.params.d, 0.08, 0.02);
  EXPECT_NEAR(result.params.k, 20.0, 2.0);
  EXPECT_LT(result.sse, 1e-3);
  EXPECT_GT(result.evaluations, 10u);
}

TEST(CalibrateDl, RejectsDegenerateLatticeConfiguration) {
  const fit::observation_window window =
      window_from_model(core::dl_parameters::paper_hops(6.0));
  fit::calibration_options zero_steps;
  zero_steps.coarse_steps = 0;
  EXPECT_THROW((void)fit::calibrate_dl(window,
                                       core::dl_parameters::paper_hops(6.0),
                                       zero_steps),
               std::invalid_argument);
  fit::calibration_options inverted;
  inverted.d_min = 0.4;
  inverted.d_max = 0.1;
  EXPECT_THROW((void)fit::calibrate_dl(window,
                                       core::dl_parameters::paper_hops(6.0),
                                       inverted),
               std::invalid_argument);
}

TEST(CalibrateDl, BatchExecutorOrderDoesNotChangeTheFit) {
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  truth.d = 0.08;
  truth.k = 20.0;
  const fit::observation_window window = window_from_model(truth);

  fit::calibration_options options;
  options.fit_rate = false;
  options.coarse_steps = 3;
  options.d_max = 0.3;
  options.k_min = 5.0;
  options.k_max = 50.0;
  const core::dl_parameters start = core::dl_parameters::paper_hops(6.0);
  const fit::calibration_result serial = fit::calibrate_dl(window, start,
                                                           options);

  // The batch hook (a deliberately out-of-order serial executor) must
  // not change the outcome: each lattice task owns its slot.
  fit::calibration_options batched = options;
  std::size_t tasks_run = 0;
  batched.run_batch = [&tasks_run](std::vector<std::function<void()>> tasks) {
    for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) {
      (*it)();
      ++tasks_run;
    }
  };
  const fit::calibration_result via_batch = fit::calibrate_dl(window, start,
                                                              batched);
  EXPECT_EQ(tasks_run, 9u);  // the 3×3 lattice, one solve call a probe
  EXPECT_EQ(via_batch.x, serial.x);
  EXPECT_EQ(via_batch.sse, serial.sse);
  EXPECT_EQ(via_batch.evaluations, serial.evaluations);
}

TEST(CalibrateDl, FitWhoseEveryProbeFailsThrowsNamingTheSolveFailure) {
  const fit::observation_window window =
      window_from_model(core::dl_parameters::paper_hops(6.0));
  fit::calibration_options options;
  options.fit_rate = false;
  options.coarse_steps = 3;
  options.solver.dt = 1e-300;  // every probe's step count overflows
  // Width 1 sends the lattice round through run_batch, one task a probe.
  std::size_t probes = 0;
  options.run_batch = [&probes](std::vector<std::function<void()>> tasks) {
    for (const std::function<void()>& task : tasks) {
      task();
      ++probes;
    }
  };
  try {
    (void)fit::calibrate_dl(window, core::dl_parameters::paper_hops(6.0),
                            options);
    FAIL() << "a fit with no solvable probe must not report a fit";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "calibrate_dl: every coarse-lattice probe failed; the first: "
              "solve_dl: step count (t_end - t0)/dt must be finite and "
              "below 2^53");
  }
  // The search stops after the lattice round: no Nelder–Mead on +inf.
  EXPECT_EQ(probes, 9u);
}

TEST(CalibrateDl, FailedProbesWithAFiniteBestKeepTheFit) {
  // d < 0 is invalid, so the lattice's d = -0.2 column and every
  // Nelder–Mead probe below d = 0 score +inf; the fit is unchanged by
  // them.  The golden is the value this fit has always produced.
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  truth.d = 0.08;
  truth.k = 20.0;
  const fit::observation_window window = window_from_model(truth);
  fit::calibration_options options;
  options.fit_rate = false;
  options.coarse_steps = 4;
  options.d_min = -0.2;
  options.d_max = 0.4;
  options.k_min = 5.0;
  options.k_max = 50.0;
  const fit::calibration_result result = fit::calibrate_dl(
      window, core::dl_parameters::paper_hops(6.0), options);
  ASSERT_EQ(result.x.size(), 2u);
  EXPECT_EQ(result.x[0], 0x1.47ae14744e5f8p-4);  // 0.0799999999043
  EXPECT_EQ(result.x[1], 0x1.3ffffff786995p+4);  // 19.9999999684
  EXPECT_EQ(result.sse, 0x1.d2e4bcf940964p-56);
  EXPECT_EQ(result.evaluations, 145u);
}

TEST(CalibrateDl, FullRateFitImprovesOnBadStart) {
  core::dl_parameters truth = core::dl_parameters::paper_hops(6.0);
  const fit::observation_window window = window_from_model(truth);

  core::dl_parameters bad_start = truth;
  bad_start.d = 0.2;
  bad_start.k = 80.0;
  bad_start.r = core::growth_rate::constant(0.9);
  const double start_sse = fit::dl_sse(bad_start, window);

  fit::calibration_options options;
  options.fit_rate = true;
  options.coarse_steps = 3;
  const fit::calibration_result result =
      fit::calibrate_dl(window, bad_start, options);
  EXPECT_LT(result.sse, start_sse * 0.05);
}

TEST(FitRateProfile, RecoversKnownMultipliers) {
  // Generate per-distance growth with known multipliers via the exact
  // logistic propagator, then recover them.
  const core::growth_rate base = core::growth_rate::paper_hops();
  const double k = 25.0;
  const std::vector<double> truth{1.0, 0.9, 1.1, 0.5};
  const std::vector<double> initial{1.9, 0.8, 1.1, 0.6};
  std::vector<double> at_t4(4);
  for (std::size_t i = 0; i < 4; ++i) {
    at_t4[i] = models::logistic_step(
        initial[i], truth[i] * base.integral(1.0, 4.0), k);
  }
  const std::vector<double> fitted =
      fit::fit_rate_profile(initial, at_t4, base, k, 1.0, 4.0);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(fitted[i], truth[i], 0.08) << "distance " << i + 1;
}

TEST(FitRateProfile, DegenerateObservationsDefaultToUnity) {
  const core::growth_rate base = core::growth_rate::paper_hops();
  const std::vector<double> initial{0.0, 2.0};
  const std::vector<double> later{1.0, 1.5};  // no growth for index 1
  const std::vector<double> fitted =
      fit::fit_rate_profile(initial, later, base, 25.0, 1.0, 4.0);
  EXPECT_DOUBLE_EQ(fitted[0], 1.0);
  EXPECT_DOUBLE_EQ(fitted[1], 1.0);
}

}  // namespace
