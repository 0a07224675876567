// Execution knobs of the cooperative visitor engine
// (runtime/visitor_engine.hpp): delivery mode, phase-1 growth mode and the
// per-run engine_config. The solver builds one engine_config per solve
// (core::detail::make_engine_config) and hands it to every engine phase.
#pragma once

#include <cstddef>
#include <cstdint>

#include "runtime/mailbox.hpp"
#include "runtime/perf_model.hpp"
#include "util/cancellation.hpp"

namespace dsteiner::obs {
class engine_probe;
}  // namespace dsteiner::obs

namespace dsteiner::runtime {

enum class execution_mode {
  async,  ///< immediate delivery: communication overlaps computation
  bsp,    ///< deliveries held until the round boundary (superstep model)
};

/// How visitors are ordered inside a phase-1 run.
enum class growth_mode {
  /// Strict lowest-priority-first order (the paper's optimization). The
  /// schedule — and therefore every metric — is deterministic. Default
  /// everywhere.
  strict_order,
  /// Delta-stepping buckets: visitors are grouped into buckets of width
  /// `bucket_delta` and a whole bucket is drained per round/superstep, in
  /// any order inside the bucket. The output *tree* is still identical (the
  /// lexicographic (distance, seed, pred) admission has a unique fixed
  /// point) but the schedule, and so round counts and message tallies, are
  /// not. Fewer barriers per solve — the cold-solve p50 lever.
  bucketed,
};

struct engine_config {
  queue_policy policy = queue_policy::priority;
  execution_mode mode = execution_mode::async;
  std::size_t batch_size = 64;  ///< visitors a rank drains per round
  cost_model costs{};

  /// Phase-1 scheduling: strict priority order (default) or delta-stepping
  /// buckets. Only the solver's phase-1 run ever sets `bucketed`; all other
  /// phases are strict by construction.
  growth_mode growth = growth_mode::strict_order;

  /// Bucket width for `growth_mode::bucketed`. Must be > 0 when bucketed
  /// (the solver resolves 0 to graph::heuristic_delta before the run).
  std::uint64_t bucket_delta = 0;

  /// bucketed only: vertices with degree above this threshold scatter via
  /// edge-tile work items spread round-robin over ranks instead of one
  /// monolithic visit, so power-law hubs cannot serialize a bucket.
  /// 0 disables tiling.
  std::uint64_t tile_threshold = 0;

  /// Cooperative cancellation/deadline checkpoint, polled once per round.
  /// Null disables the poll. Must outlive the run.
  const util::run_budget* budget = nullptr;

  /// Per-round telemetry sink (query-scoped tracing, src/obs/). Null (the
  /// default) disables sampling entirely — the engine never reads from the
  /// probe, so execution and output are identical either way. Must outlive
  /// the run. Same hash-exclusion rule as `budget`.
  obs::engine_probe* probe = nullptr;
};

}  // namespace dsteiner::runtime
