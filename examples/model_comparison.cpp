// Model comparison on ORGANIC cascade data — ported to the batch engine.
//
// The calibrated generator behind the benches matches the paper's curves
// by construction; this example instead runs the *mechanistic* cascade
// simulator (follower spreading + front-page random arrivals, nothing
// fitted) and asks which model explains the organic data best.  One
// declarative sweep replaces the hand-rolled per-model loops: every
// registered model family (DL under all four schemes × two grid
// resolutions × five growth rates — the "calibrate" spec that fits
// (d, K, a, b, c) on the early window, plus the paper-§V spatial axis: a
// fixed separable r(x, t) = m(x)·r(t) and "calibrate-spatial", which
// fits the per-hop multipliers — plus the heat, logistic, per-distance
// logistic and SI baselines) runs on the same slice through
// engine::run_sweep, first single-threaded and then on the full pool to
// show the determinism + speedup contract.  A shared solve cache then
// replays the whole sweep warm: zero additional PDE solves, byte-identical
// CSV.
//
// With --cache-file the solve cache persists across runs (load on start,
// save on exit — see engine/cache_io.h): the second invocation's "cold"
// pass is served from the previous process's solves.
//
// Build & run:  ./build/examples/model_comparison [--cache-file dlm.cache]
//
// Batch mode (for scripting and sharded execution — see docs/sharding.md):
//
//   model_comparison --csv out.csv [--shard i/N] [--cache-file f]
//
// runs the sweep once (no demo passes), writes the CSV to the file (or
// stdout when --shard is given without --csv) and exits.  With --shard
// only that shard's scenarios run — rows keep their global sweep
// indices, so N shard CSVs recombine through `dl_shard --merge` into
// the exact bytes of the unsharded CSV.

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "digg/simulator.h"
#include "engine/cache_io.h"
#include "engine/model_registry.h"
#include "engine/scenario_runner.h"
#include "engine/shard.h"
#include "engine/solve_cache.h"
#include "graph/generators.h"

int main(int argc, char** argv) {
  using namespace dlm;

  std::string cache_file;
  std::string csv_path;
  engine::shard_spec shard;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cache-file" && i + 1 < argc) {
      cache_file = argv[++i];
    } else if (arg == "--csv" && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (arg == "--shard" && i + 1 < argc) {
      try {
        shard = engine::parse_shard_spec(argv[++i]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--cache-file <path>] [--csv <path>] "
                   "[--shard <i>/<N>]\n",
                   argv[0]);
      return 2;
    }
  }
  const bool batch = !shard.is_all() || !csv_path.empty();

  num::rng rand(777);
  graph::digg_graph_params gp;
  gp.users = 12000;
  gp.attach = 6;
  graph::digraph followers = graph::digg_follower_graph(gp, rand);

  // Pick a well-followed initiator and run the organic cascade.
  graph::node_id initiator = 0;
  for (graph::node_id v = 0; v < followers.node_count(); ++v) {
    if (followers.in_degree(v) > followers.in_degree(initiator)) initiator = v;
  }
  digg::cascade_params cp;
  cp.horizon_hours = 12;
  const std::vector<social::vote> votes =
      digg::simulate_cascade(followers, initiator, 0, 0, cp, rand);
  if (!batch)
    std::printf("organic cascade: %zu votes in %d hours from initiator %u "
                "(%zu followers)\n\n",
                votes.size(), cp.horizon_hours, initiator,
                followers.in_degree(initiator));

  const engine::scenario_context ctx = engine::scenario_context::from_cascade(
      std::move(followers), initiator, votes, cp.horizon_hours);

  // One declarative sweep over every model family: DL expands over all
  // four schemes × grids × rates (the "calibrate" spec fits the paper's
  // untuned parameters to the first half of the window before solving;
  // the spatial specs exercise the §V r(x, t) axis — "calibrate-spatial"
  // fits one rate multiplier per distance group on the same window);
  // baselines collapse the axes they ignore — a calibrate spec collapses
  // to "preset" for models that cannot calibrate, a spatial spec to its
  // temporal base for models without a spatial-rate axis.
  engine::sweep_spec spec;
  spec.models = engine::default_registry().names();
  spec.schemes = {core::dl_scheme::ftcs, core::dl_scheme::strang_cn,
                  core::dl_scheme::implicit_newton, core::dl_scheme::mol_rk4};
  spec.grid = {20, 40};
  spec.rates = {"preset", "constant:0.5", "spatial:preset|1.2,1,0.8,0.65",
                "calibrate", "calibrate-spatial"};
  // The core::domain axis rides along: non-line domains expand only
  // under strang_cn, so the sweep covers the 2-D ADI sheet and the
  // coupled communities without multiplying every scheme.
  spec.domains = {"line", "grid2d:1,4", "comm:3|mix=0.05"};
  spec.t_end = cp.horizon_hours;

  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(spec, ctx);
  if (!batch)
    std::printf("sweep: %zu scenarios over %zu model families\n\n",
                scenarios.size(), spec.models.size());

  // ------------------------------------------------------- batch mode
  // One deterministic pass, CSV out, exit status honest: an unwritable
  // --cache-file or a failed flush is a nonzero exit, not a lost save.
  if (batch) {
    engine::runner_options options;
    options.threads = 0;
    options.calibration.coarse_steps = 3;
    options.shard = shard;
    std::optional<engine::persistent_cache> batch_persist;
    if (!cache_file.empty()) {
      batch_persist.emplace(cache_file);
      if (!batch_persist->write_error().empty()) return 1;  // on stderr
      options.cache = &batch_persist->cache();
    }
    const engine::sweep_result result =
        engine::run_sweep(ctx, scenarios, options);
    const std::string csv = result.table.to_csv();
    if (csv_path.empty()) {
      std::fwrite(csv.data(), 1, csv.size(), stdout);
    } else {
      std::ofstream out(csv_path, std::ios::binary | std::ios::trunc);
      out.write(csv.data(), static_cast<std::streamsize>(csv.size()));
      out.flush();
      if (!out) {
        std::fprintf(stderr, "%s: cannot write '%s'\n", argv[0],
                     csv_path.c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "shard %s: %zu of %zu scenarios -> %s\n",
                 shard.label().c_str(), result.table.size(),
                 scenarios.size(),
                 csv_path.empty() ? "stdout" : csv_path.c_str());
    if (batch_persist) {
      try {
        batch_persist->flush();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: cache flush failed: %s\n", argv[0],
                     e.what());
        return 1;
      }
    }
    return 0;
  }

  engine::runner_options serial;
  serial.threads = 1;
  serial.calibration.coarse_steps = 3;  // 3^5 lattice points per fit
  const engine::sweep_result one = engine::run_sweep(ctx, scenarios, serial);

  engine::runner_options parallel = serial;  // hardware_concurrency
  parallel.threads = 0;
  const engine::sweep_result many =
      engine::run_sweep(ctx, scenarios, parallel);

  std::printf("%s\n", many.table.to_text().c_str());

  const engine::result_row& best = many.table.best();
  std::printf("best: %s on %s (scheme %s, rate %s -> %s) — %.2f%% over %zu "
              "cells\n",
              best.model.c_str(), best.slice.c_str(), best.scheme.c_str(),
              best.rate.c_str(), best.resolved_rate.c_str(),
              100.0 * best.accuracy, best.cells);

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("\nwall time: %.1f ms with 1 thread, %.1f ms with %u threads "
              "(%.2fx speedup)\n",
              one.wall_ms, many.wall_ms, hw,
              many.wall_ms > 0.0 ? one.wall_ms / many.wall_ms : 0.0);
  std::printf("deterministic: result CSV identical across thread counts: %s\n",
              one.table.to_csv() == many.table.to_csv() ? "yes" : "NO");

  // Same sweep again through a shared solve cache: the cold pass fills
  // it, the warm pass must hit for every trace and every calibration
  // probe — zero additional PDE solves — and still reproduce the CSV
  // byte for byte.  With --cache-file the cache outlives the process:
  // loaded here, saved when `persist` goes out of scope, so a rerun's
  // cold pass hits instead of solving.
  std::optional<engine::persistent_cache> persist;
  engine::solve_cache local_cache;
  engine::solve_cache* cache_ptr = &local_cache;
  if (!cache_file.empty()) {
    persist.emplace(cache_file);
    if (!persist->write_error().empty()) return 1;  // reported on stderr
    cache_ptr = &persist->cache();
    const engine::cache_load_result& load = persist->startup_load();
    if (load.loaded)
      std::printf("\ncache file: loaded %zu traces + %zu values from %s\n",
                  load.traces, load.values, cache_file.c_str());
    else if (load.file_missing)
      std::printf("\ncache file: %s missing, starting cold\n",
                  cache_file.c_str());
    else
      std::printf("\ncache file: rejected %s (%s), starting cold\n",
                  cache_file.c_str(), load.error.c_str());
  }
  engine::solve_cache& cache = *cache_ptr;
  engine::runner_options cached = parallel;
  cached.cache = &cache;
  const engine::sweep_result cold = engine::run_sweep(ctx, scenarios, cached);
  const engine::cache_stats after_cold = cache.stats();
  const engine::sweep_result warm = engine::run_sweep(ctx, scenarios, cached);
  const engine::cache_stats after_warm = cache.stats();
  std::printf("\nsolve cache: cold run %.1f ms (%zu misses), warm run %.1f ms "
              "(%zu new misses, %zu hits)\n",
              cold.wall_ms, after_cold.misses, warm.wall_ms,
              after_warm.misses - after_cold.misses,
              after_warm.hits - after_cold.hits);
  std::printf("warm CSV identical to cold: %s\n",
              warm.table.to_csv() == cold.table.to_csv() ? "yes" : "NO");
  if (persist)
    std::printf("saving %zu cache entries to %s\n", cache.size(),
                cache_file.c_str());

  // Domain axis demo (core::domain): the same DL scenario solved on the
  // 1-D line, on a 2-D distance × interest sheet (Peaceman–Rachford
  // ADI) and as three mixed communities.  Non-line domains run only
  // under strang_cn, and their canonical labels show up in the CSV's
  // `domain` column and in the solve-cache keys — line rows keep the
  // historical spelling, so this sweep shares cache entries with the
  // big one above.
  engine::sweep_spec domain_spec;
  domain_spec.models = {"dl"};
  domain_spec.schemes = {core::dl_scheme::strang_cn};
  domain_spec.grid = {20};
  domain_spec.rates = {"preset"};
  domain_spec.domains = {"line", "grid2d:1,4", "comm:3|mix=0.05"};
  domain_spec.t_end = cp.horizon_hours;
  const engine::sweep_result domains =
      engine::run_sweep(ctx, engine::expand_sweep(domain_spec, ctx), cached);
  std::printf("\ndomain sweep (line vs 2-D ADI sheet vs coupled "
              "communities):\n%s\n",
              domains.table.to_text().c_str());

  if (persist) {
    // Flush explicitly so an I/O failure is a nonzero exit instead of a
    // best-effort destructor message.
    try {
      persist->flush();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: cache flush failed: %s\n", argv[0], e.what());
      return 1;
    }
  }
  return 0;
}
