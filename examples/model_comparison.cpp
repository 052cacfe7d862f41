// Model comparison on ORGANIC cascade data, on the batch engine.
//
// eval::make_comparison_sweep (src/eval/comparison.h) builds the sweep:
// a mechanistic cascade (nothing fitted) and every registered model
// family over schemes, grids, growth rates and domains.  This example
// runs it first single-threaded and then on the full pool to show the
// determinism + speedup contract.  A shared solve cache then replays the
// whole sweep warm: zero additional PDE solves, byte-identical CSV.
//
// With --cache-file the solve cache persists across runs (load on start,
// save on exit — see engine/cache_io.h): the second invocation's "cold"
// pass is served from the previous process's solves.
//
// Build & run:  ./build/examples/model_comparison [--cache-file dlm.cache]
//
// For one batch pass with CSV output, or sharded execution, run the same
// sweep through `dl_shard --sweep comparison` (see docs/sharding.md).

#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/cache_io.h"
#include "engine/scenario_runner.h"
#include "engine/solve_cache.h"
#include "eval/comparison.h"

int main(int argc, char** argv) {
  using namespace dlm;

  std::string cache_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cache-file" && i + 1 < argc) {
      cache_file = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--cache-file <path>]\n", argv[0]);
      return 2;
    }
  }

  const eval::comparison_sweep sweep = eval::make_comparison_sweep();
  const engine::scenario_context& ctx = sweep.context;
  const engine::dataset_slice& cascade = ctx.slice(0);
  std::printf("organic cascade: %zu votes in %d hours from initiator %u "
              "(%zu followers)\n\n",
              sweep.votes, cascade.horizon_hours, cascade.initiator,
              cascade.followers->in_degree(cascade.initiator));

  const std::vector<engine::scenario> scenarios =
      engine::expand_sweep(sweep.spec, ctx);
  std::printf("sweep: %zu scenarios over %zu model families\n\n",
              scenarios.size(), sweep.spec.models.size());

  engine::runner_options serial;
  serial.threads = 1;
  serial.calibration = sweep.calibration;
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
  // record — zero additional PDE solves — and still reproduce the CSV
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
  domain_spec.t_end = sweep.spec.t_end;
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
