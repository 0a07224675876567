#include "core/steiner_solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "core/distance_graph.hpp"
#include "core/mst_prim.hpp"
#include "core/pruning.hpp"
#include "core/solver_detail.hpp"
#include "core/steiner_state.hpp"
#include "core/tree_edges.hpp"
#include "core/validation.hpp"
#include "core/voronoi.hpp"
#include "core/warm_start.hpp"
#include "runtime/comm.hpp"
#include "util/timer.hpp"

namespace dsteiner::core {

namespace detail {

std::vector<graph::vertex_id> dedup_seeds(
    graph::vertex_id num_vertices, std::span<const graph::vertex_id> seeds) {
  std::unordered_set<graph::vertex_id> unique;
  std::vector<graph::vertex_id> result;
  result.reserve(seeds.size());
  for (const graph::vertex_id s : seeds) {
    if (s >= num_vertices) {
      throw std::out_of_range("solve_steiner_tree: seed id out of range");
    }
    if (unique.insert(s).second) result.push_back(s);
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<graph::vertex_id> dedup_seeds(
    const graph::csr_graph& graph, std::span<const graph::vertex_id> seeds) {
  return dedup_seeds(graph.num_vertices(), seeds);
}

void finish_solve(const graph::csr_graph& graph,
                  const runtime::dist_graph& dgraph,
                  const runtime::communicator& comm,
                  const runtime::engine_config& engine,
                  const solver_config& config,
                  std::span<const graph::vertex_id> seed_list,
                  const steiner_state& state,
                  std::vector<cross_edge_map>& per_rank_en,
                  steiner_result& result, solve_artifacts* capture) {
  // Checkpoint between the reduction and the sequential tail: phases 3-5 run
  // without an engine (no per-round poll), so the boundaries are where a
  // cancelled or expired solve stops.
  if (config.budget != nullptr) config.budget->check();
  result.distance_graph_edges = per_rank_en.front().size();
  {
    std::uint64_t en_bytes = 0;
    for (const auto& local : per_rank_en) {
      en_bytes += local.size() * (sizeof(seed_pair) + sizeof(cross_edge_entry));
    }
    result.memory.distance_graph_bytes = en_bytes;
  }
  // Capture G'1 before pruning shrinks the per-rank maps in place.
  if (capture != nullptr) capture->global_en = per_rank_en.front();

  // Step 3: sequential MST of G'1, replicated (line 17).
  distance_graph_mst mst;
  {
    phase_span span(config.trace, runtime::phase_names::mst, config.costs);
    runtime::phase_metrics metrics;
    mst = compute_distance_graph_mst(per_rank_en.front(), seed_list, comm,
                                     metrics);
    result.phases.phase(runtime::phase_names::mst) = metrics;
    span.close(metrics);
  }
  if (config.budget != nullptr) config.budget->check();
  result.spans_all_seeds = mst.spans_all_seeds;
  if (!mst.spans_all_seeds && !config.allow_disconnected_seeds) {
    throw std::runtime_error(
        "solve_steiner_tree: seeds are not mutually reachable "
        "(set allow_disconnected_seeds to obtain a Steiner forest)");
  }

  // Step 4: global edge pruning (line 18).
  {
    phase_span span(config.trace, runtime::phase_names::pruning, config.costs);
    auto metrics = prune_cross_edges(comm, per_rank_en, mst.mst_pairs);
    result.phases.phase(runtime::phase_names::pruning) = metrics;
    span.close(metrics);
  }

  // Step 5: Steiner tree edges (line 19) and result assembly (line 20).
  {
    phase_span span(config.trace, runtime::phase_names::tree_edge, config.costs);
    std::vector<std::vector<graph::weighted_edge>> per_rank_es;
    auto metrics =
        collect_tree_edges(dgraph, state, per_rank_en.front(), per_rank_es, engine);
    result.tree_edges = comm.allgather(per_rank_es, metrics);
    // D(GS): one partial sum per rank, reduced (Alg. 3 line 20).
    std::vector<std::vector<graph::weight_t>> partial(
        static_cast<std::size_t>(config.num_ranks),
        std::vector<graph::weight_t>(1, 0));
    for (std::size_t r = 0; r < per_rank_es.size(); ++r) {
      for (const auto& e : per_rank_es[r]) partial[r][0] += e.weight;
    }
    comm.allreduce(partial,
                   [](graph::weight_t a, graph::weight_t b) { return a + b; },
                   metrics);
    result.total_distance = partial.front().front();
    result.phases.phase(runtime::phase_names::tree_edge) = metrics;
    span.close(metrics);
  }
  std::sort(result.tree_edges.begin(), result.tree_edges.end(),
            [](const graph::weighted_edge& a, const graph::weighted_edge& b) {
              return std::tuple{a.source, a.target} < std::tuple{b.source, b.target};
            });
  result.memory.tree_bytes =
      result.tree_edges.size() * sizeof(graph::weighted_edge);
  result.memory.collective_buffer_bytes = comm.peak_buffer_bytes();
  for (const auto& [name, metrics] : result.phases.by_name()) {
    result.memory.queue_peak_bytes =
        std::max(result.memory.queue_peak_bytes, metrics.queue_peak_bytes);
  }

  if (config.validate && result.spans_all_seeds) {
    const auto check = validate_steiner_tree(graph, seed_list, result.tree_edges);
    if (!check) {
      throw std::logic_error("solve_steiner_tree: invalid output tree: " +
                             check.error);
    }
  }
  if (capture != nullptr) {
    capture->seeds.assign(seed_list.begin(), seed_list.end());
    capture->state = state;
    capture->graph_fingerprint = graph.fingerprint();
  }
}

steiner_result solve_cold(const graph::csr_graph& graph,
                          std::span<const graph::vertex_id> seeds,
                          const solver_config& config,
                          solve_artifacts* capture) {
  steiner_result result;
  if (config.budget != nullptr) config.budget->check();
  const std::vector<graph::vertex_id> seed_list = dedup_seeds(graph, seeds);
  result.num_seeds = seed_list.size();
  result.memory.graph_bytes = graph.memory_bytes();
  if (seed_list.size() <= 1) return result;

  const runtime::dist_graph_config dconfig{
      config.num_ranks, config.scheme, config.use_delegates,
      config.delegate_threshold};
  const runtime::dist_graph dgraph(graph, dconfig);
  result.delegate_count = dgraph.delegate_count();
  result.memory.partition_bytes = dgraph.memory_bytes();

  const runtime::engine_config engine = make_engine_config(config);
  const runtime::communicator comm(config.num_ranks, config.costs);
  comm.reset_peak_buffer();

  // Step 1: Voronoi cells (Alg. 3 line 12).
  steiner_state state(graph.num_vertices());
  result.memory.state_bytes = state.memory_bytes() + graph.num_vertices() / 8;
  {
    phase_span span(config.trace, runtime::phase_names::voronoi, config.costs);
    const runtime::phase_metrics metrics =
        compute_voronoi_cells(dgraph, seed_list, state, engine);
    result.phases.phase(runtime::phase_names::voronoi) = metrics;
    span.close(metrics);
  }

  // Step 2a: partition-local min cross-cell edges (line 13).
  std::vector<cross_edge_map> per_rank_en;
  {
    phase_span span(config.trace, runtime::phase_names::local_min_edge,
                    config.costs);
    auto metrics = find_local_min_edges(dgraph, state, per_rank_en, engine);
    result.phases.phase(runtime::phase_names::local_min_edge) = metrics;
    span.close(metrics);
  }

  // Step 2b: global Allreduce(MIN) (line 14). The reduction runs off-engine,
  // so checkpoint at its boundary.
  if (config.budget != nullptr) config.budget->check();
  {
    phase_span span(config.trace, runtime::phase_names::global_min_edge,
                    config.costs);
    global_reduce_options options;
    options.dense = config.dense_distance_graph;
    options.seeds = seed_list;
    options.chunk_items = config.allreduce_chunk_items;
    auto metrics = reduce_global_min_edges(comm, per_rank_en, options);
    result.phases.phase(runtime::phase_names::global_min_edge) = metrics;
    span.close(metrics);
  }

  // Steps 3-6: MST, pruning, tree edges, assembly.
  finish_solve(graph, dgraph, comm, engine, config, seed_list, state,
               per_rank_en, result, capture);
  return result;
}

}  // namespace detail

steiner_result solve_steiner_tree(const graph::csr_graph& graph,
                                  std::span<const graph::vertex_id> seeds,
                                  const solver_config& config) {
  return detail::solve_cold(graph, seeds, config, nullptr);
}

obs::query_features extract_query_features(graph::vertex_id num_vertices,
                                           std::uint64_t num_arcs,
                                           std::size_t seed_count) {
  using qf = obs::query_features;
  obs::query_features f;
  const double seeds = static_cast<double>(seed_count);
  const double log_n = std::log2(1.0 + static_cast<double>(num_vertices));
  const double log_m = std::log2(1.0 + static_cast<double>(num_arcs));
  f.x[qf::k_bias] = 1.0;
  f.x[qf::k_seeds] = seeds;
  f.x[qf::k_log_vertices] = log_n;
  f.x[qf::k_log_arcs] = log_m;
  f.x[qf::k_seeds_log_n] = seeds * log_n;
  f.x[qf::k_seeds_sq] = seeds * seeds;
  return f;
}

}  // namespace dsteiner::core
