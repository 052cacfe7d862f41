// The three benchmark workloads.  Each fills `rep` with its end-to-end
// metrics (untraced) or its per-layer metrics (traced), plus its output
// checks.  See perfbench/README.md for what each one stresses and why.
#pragma once

#include "common.h"

namespace perfbench {

/// In-process run_sweep on the run's Digg test-scale datasets, round
/// robin: every model × 4 DL schemes × grid 20 × {preset, calibrate,
/// calibrate-spatial}, 4 pool threads, a fresh solve_cache per sweep.
void run_paper_calibrate(const run_config& config, report& rep);

/// `dl_shard --shards 4 --threads 1 --sweep bench` over grids 80/160/320
/// × 512 constant rates; all batched strang-cn lanes.
void run_shard_batched(const run_config& config, report& rep);

/// An in-process dl_service on the run's Digg test-scale datasets (one
/// merged context) driven by 4 closed-loop service_client connections
/// (see request_stream.h).
void run_serve_mixed(const run_config& config, report& rep);

}  // namespace perfbench
