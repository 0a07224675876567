#include "graph/dijkstra.hpp"

#include <algorithm>
#include <cassert>
#include <queue>
#include <tuple>

namespace dsteiner::graph {

sssp_result dijkstra(const csr_graph& graph, vertex_id source) {
  assert(source < graph.num_vertices());
  sssp_result result;
  result.distance.assign(graph.num_vertices(), k_inf_distance);
  result.parent.assign(graph.num_vertices(), k_no_vertex);

  using entry = std::pair<weight_t, vertex_id>;  // (distance, vertex)
  std::priority_queue<entry, std::vector<entry>, std::greater<>> heap;
  result.distance[source] = 0;
  heap.push({0, source});
  while (!heap.empty()) {
    const auto [dist, v] = heap.top();
    heap.pop();
    if (dist != result.distance[v]) continue;  // stale entry
    const auto nbrs = graph.neighbors(v);
    const auto wts = graph.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const vertex_id u = nbrs[i];
      const weight_t candidate = dist + wts[i];
      ++result.relaxations;
      if (candidate < result.distance[u] ||
          (candidate == result.distance[u] && v < result.parent[u])) {
        result.distance[u] = candidate;
        result.parent[u] = v;
        heap.push({candidate, u});
      }
    }
  }
  return result;
}

voronoi_assignment multi_source_voronoi(const csr_graph& graph,
                                        std::span<const vertex_id> seeds) {
  voronoi_assignment result;
  const vertex_id n = graph.num_vertices();
  result.distance.assign(n, k_inf_distance);
  result.src.assign(n, k_no_vertex);
  result.pred.assign(n, k_no_vertex);

  // Relax at push: a vertex's (distance, seed, pred) label is written as soon
  // as a candidate strictly improves it, and only improving candidates enter
  // the heap. An entry whose tuple no longer equals its vertex's label was
  // superseded after it was pushed and is skipped on pop, so each label is
  // scattered at most once. Labels only ever decrease, and the fixed point
  // is the unique lexicographic minimum whatever the order.
  using entry = std::tuple<weight_t, vertex_id, vertex_id, vertex_id>;
  std::priority_queue<entry, std::vector<entry>, std::greater<>> heap;
  const auto state_of = [&](vertex_id v) {
    return std::tuple{result.distance[v], result.src[v], result.pred[v]};
  };
  const auto offer = [&](weight_t dist, vertex_id seed, vertex_id from,
                         vertex_id v) {
    if (std::tuple{dist, seed, from} >= state_of(v)) return;
    result.distance[v] = dist;
    result.src[v] = seed;
    result.pred[v] = from;
    heap.push({dist, seed, from, v});
  };
  for (const vertex_id s : seeds) {
    assert(s < n);
    offer(0, s, s, s);  // seeds own themselves at distance 0 (Alg. 3 line 8)
  }

  while (!heap.empty()) {
    const auto [dist, seed, from, v] = heap.top();
    heap.pop();
    if (std::tuple{dist, seed, from} != state_of(v)) continue;  // superseded
    const auto nbrs = graph.neighbors(v);
    const auto wts = graph.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      ++result.relaxations;
      offer(dist + wts[i], seed, v, nbrs[i]);
    }
  }
  return result;
}

std::vector<std::vector<weight_t>> apsp_over_seeds(
    const csr_graph& graph, std::span<const vertex_id> seeds,
    std::vector<std::vector<vertex_id>>* parents) {
  std::vector<std::vector<weight_t>> matrix;
  matrix.reserve(seeds.size());
  if (parents != nullptr) {
    parents->clear();
    parents->reserve(seeds.size());
  }
  for (const vertex_id s : seeds) {
    sssp_result run = dijkstra(graph, s);
    std::vector<weight_t> row;
    row.reserve(seeds.size());
    for (const vertex_id t : seeds) row.push_back(run.distance[t]);
    matrix.push_back(std::move(row));
    if (parents != nullptr) parents->push_back(std::move(run.parent));
  }
  return matrix;
}

std::vector<vertex_id> reconstruct_path(std::span<const vertex_id> parent,
                                        vertex_id source, vertex_id target) {
  std::vector<vertex_id> path;
  vertex_id v = target;
  while (v != k_no_vertex) {
    path.push_back(v);
    if (v == source) break;
    v = parent[v];
  }
  if (path.empty() || path.back() != source) return {};
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace dsteiner::graph
