// The four benchmark workloads. Each returns the metrics of the requested
// mode (end-to-end with tracing off, per-layer with it on) plus every
// correctness violation it found, counted per job.
#pragma once

#include "report.hpp"

namespace perfbench {

/// mkp-scalar / qkp-bitslice: in-process SolveService, one worker, cache
/// off, one closed-loop client.
Outcome run_solve_workload(const RunOptions& options);

/// serve-open / fleet-open: one job in flight against a saim_serve
/// --listen child over TCP, or a saim_shard fleet over its pipes.
Outcome run_served_workload(const RunOptions& options);

}  // namespace perfbench
