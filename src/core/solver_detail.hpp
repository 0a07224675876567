// Internal pipeline pieces shared by the cold solver (steiner_solver.cpp) and
// the warm-start path (warm_start.cpp). Not part of the public API.
#pragma once

#include <span>
#include <vector>

#include "core/distance_graph.hpp"
#include "core/steiner_solver.hpp"
#include "core/warm_start.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/visitor_engine.hpp"

namespace dsteiner::core::detail {

/// Validates, deduplicates and sorts a user seed list. Throws
/// std::out_of_range on ids >= num_vertices.
[[nodiscard]] std::vector<graph::vertex_id> dedup_seeds(
    graph::vertex_id num_vertices, std::span<const graph::vertex_id> seeds);
[[nodiscard]] std::vector<graph::vertex_id> dedup_seeds(
    const graph::csr_graph& graph, std::span<const graph::vertex_id> seeds);

/// The engine configuration every phase of a solve runs with: the solver's
/// scheduling knobs plus its cancellation budget and trace probe.
[[nodiscard]] inline runtime::engine_config make_engine_config(
    const solver_config& solver) {
  runtime::engine_config config{solver.policy, solver.mode, solver.batch_size,
                                solver.costs};
  config.budget = solver.budget;  // the engine polls the checkpoint per round
  if (solver.trace != nullptr) config.probe = &solver.trace->probe();
  return config;
}

/// Opens a solver-phase span: stamps the probe's phase label (so engine
/// samples taken during the phase carry it) and remembers the start offset.
/// `close(metrics)` records the span with the phase's engine totals and the
/// cost model's simulated-seconds prediction — the per-phase half of the
/// measured-vs-model comparison. No-ops throughout when `trace` is null.
class phase_span {
 public:
  phase_span(obs::query_trace* trace, const char* name,
             const runtime::cost_model& costs) noexcept
      : trace_(trace), name_(name), costs_(&costs) {
    if (trace_ == nullptr) return;
    trace_->probe().set_phase(name_);
    start_ = trace_->now_seconds();
  }

  void close(const runtime::phase_metrics& metrics) noexcept {
    if (trace_ == nullptr) return;
    trace_->close_span(name_, "phase", start_, metrics.rounds,
                       metrics.visitors_processed + metrics.visitors_skipped,
                       metrics.messages_total(),
                       metrics.sim_seconds(*costs_));
    trace_ = nullptr;  // close once
  }

 private:
  obs::query_trace* trace_;
  const char* name_;
  const runtime::cost_model* costs_;
  double start_ = 0.0;
};

/// Full cold solve on the cooperative engine, optionally capturing
/// warm-start artifacts.
[[nodiscard]] steiner_result solve_cold(const graph::csr_graph& graph,
                                        std::span<const graph::vertex_id> seeds,
                                        const solver_config& config,
                                        solve_artifacts* capture);

/// Phases 3-6 of Alg. 3 (MST, pruning, tree-edge collection, result
/// assembly), shared between cold and warm solves. `per_rank_en` must hold
/// the globally-reduced EN maps; `state` the converged Voronoi labelling.
/// Fills the remaining phase metrics, the output tree, memory totals, runs
/// optional validation, and captures (seed_list, state, pre-pruning EN) into
/// `capture` when non-null.
void finish_solve(const graph::csr_graph& graph,
                  const runtime::dist_graph& dgraph,
                  const runtime::communicator& comm,
                  const runtime::engine_config& engine,
                  const solver_config& config,
                  std::span<const graph::vertex_id> seed_list,
                  const steiner_state& state,
                  std::vector<cross_edge_map>& per_rank_en,
                  steiner_result& result, solve_artifacts* capture);

}  // namespace dsteiner::core::detail
