// Execution knobs of the cooperative visitor engine
// (runtime/visitor_engine.hpp): delivery mode and the per-run engine_config.
// Every phase, phase 1 included, drains each rank's mailbox in its
// queue_policy order, batch_size visitors per round. The solver builds one
// engine_config per solve (core::detail::make_engine_config) and hands it to
// every engine phase.
#pragma once

#include <cstddef>

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

struct engine_config {
  queue_policy policy = queue_policy::priority;
  execution_mode mode = execution_mode::async;
  std::size_t batch_size = 64;  ///< visitors a rank drains per round
  cost_model costs{};

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
