#include "core/voronoi.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>
#include <vector>

namespace dsteiner::core {

namespace {

/// Handler implementing Alg. 4's visit() in the pre_visit/visit split of the
/// engine: pre_visit performs the state relaxation (lines 5-9), visit the
/// neighbour scatter (lines 10-13) unless a better update superseded it.
class voronoi_handler {
 public:
  voronoi_handler(const runtime::dist_graph& dgraph, steiner_state& state)
      : dgraph_(&dgraph), state_(&state) {}

  // Arrival-time admission check only: a visitor that cannot improve the
  // target's *current* state is dropped. The relaxation itself happens at
  // processing time (Alg. 4 lines 5-9 live in visit()), so a FIFO queue
  // exhibits the label-correcting cascades the paper measures in Fig. 6 and
  // the priority queue approximates Dijkstra's settling order.
  bool pre_visit(const voronoi_visitor& v, int rank) {
    // Relays carry their own label, run on arbitrary ranks and never touch
    // vertex state — admit unconditionally.
    if (v.kind == voronoi_visitor::kind_t::relay) return true;
    assert(dgraph_->owner(v.vj) == rank);
    (void)rank;
    return std::tuple{v.r, v.t, v.vp} < state_->tuple_of(v.vj);
  }

  template <typename Emitter>
  bool visit(const voronoi_visitor& v, int rank, Emitter& out) {
    if (v.kind == voronoi_visitor::kind_t::relay) {
      // Enumerate this rank's slice of the delegate's adjacency and scatter.
      dgraph_->for_each_arc_in_slice(
          v.vj, rank, [&](graph::vertex_id vi, graph::weight_t w) {
            out.to_vertex(voronoi_visitor{vi, v.vj, v.t, v.r + w});
          });
      return true;
    }
    // Alg. 4 lines 5-9: relax at processing time; skip if superseded.
    if (std::tuple{v.r, v.t, v.vp} >= state_->tuple_of(v.vj)) return false;
    state_->distance[v.vj] = v.r;
    state_->src[v.vj] = v.t;
    state_->pred[v.vj] = v.vp;
    if (dgraph_->is_delegate(v.vj)) {
      // Broadcast relays: each rank scatters its slice of the hub's edges.
      const int slices = dgraph_->num_ranks();
      for (int q = 0; q < slices; ++q) {
        voronoi_visitor relay{v.vj, v.vp, v.t, v.r,
                              voronoi_visitor::kind_t::relay};
        out.to_rank(q, relay);
      }
      return true;
    }
    dgraph_->for_each_arc(v.vj, [&](graph::vertex_id vi, graph::weight_t w) {
      out.to_vertex(voronoi_visitor{vi, v.vj, v.t, v.r + w});
    });
    return true;
  }

 private:
  const runtime::dist_graph* dgraph_;
  steiner_state* state_;
};

}  // namespace

runtime::phase_metrics compute_voronoi_cells(
    const runtime::dist_graph& dgraph, std::span<const graph::vertex_id> seeds,
    steiner_state& state, const runtime::engine_config& config) {
  std::vector<voronoi_visitor> initial;
  initial.reserve(seeds.size());
  for (const graph::vertex_id s : seeds) {
    initial.push_back(voronoi_visitor{s, s, s, 0});
  }
  voronoi_handler handler(dgraph, state);
  return runtime::run_visitors(dgraph.parts(), handler, std::move(initial),
                               config);
}

runtime::phase_metrics repair_voronoi_cells(
    const runtime::dist_graph& dgraph, std::vector<voronoi_visitor> initial,
    steiner_state& state, const runtime::engine_config& config) {
  voronoi_handler handler(dgraph, state);
  return runtime::run_visitors(dgraph.parts(), handler, std::move(initial),
                               config);
}

std::vector<voronoi_visitor> inject_fragments(
    const graph::csr_graph& graph,
    std::span<const sssp_fragment_view> fragments,
    std::span<const graph::vertex_id> seeds, steiner_state& state,
    std::size_t* preseeded) {
  const graph::vertex_id n = graph.num_vertices();

  // 1. Pre-seed: per-vertex lexicographic minimum across all usable
  // fragments. `touched` stays duplicate-free (a vertex is pushed only on its
  // first label) so the frontier scan below visits each adjacency once.
  std::vector<graph::vertex_id> touched;
  for (const sssp_fragment_view& frag : fragments) {
    if (!std::binary_search(seeds.begin(), seeds.end(), frag.seed)) {
      continue;  // labels from a non-seed would not be achievable here
    }
    for (std::size_t i = 0; i < frag.vertices.size(); ++i) {
      const graph::vertex_id v = frag.vertices[i];
      if (v >= n) continue;  // defensive: fragment from a different graph
      const std::tuple cand{frag.distance[i], frag.seed, frag.pred[i]};
      if (cand >= state.tuple_of(v)) continue;
      if (!state.reached(v)) touched.push_back(v);
      state.distance[v] = frag.distance[i];
      state.src[v] = frag.seed;
      state.pred[v] = frag.pred[i];
    }
  }
  if (preseeded != nullptr) *preseeded = touched.size();

  // 2. Seed bootstraps: seeds fully covered by a fragment drop theirs at
  // admission (equal tuple); everything else grows from scratch as usual.
  std::vector<voronoi_visitor> initial;
  initial.reserve(seeds.size() + touched.size());
  for (const graph::vertex_id s : seeds) {
    initial.push_back(voronoi_visitor{s, s, s, 0});
  }

  // 3. Improving frontier: scatter from a pre-seeded vertex across exactly
  // the arcs whose relaxation improves the target's current state — the
  // fragment surface and cross-fragment seams. One converged cell is
  // internally consistent (label(u) <= label(v) + w along every internal
  // arc), so interior arcs emit nothing; the scan is a comparison per arc,
  // not engine work.
  for (const graph::vertex_id v : touched) {
    const auto nbrs = graph.neighbors(v);
    const auto wts = graph.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const graph::vertex_id u = nbrs[i];
      const graph::weight_t d = state.distance[v] + wts[i];
      if (std::tuple{d, state.src[v], v} < state.tuple_of(u)) {
        initial.push_back(voronoi_visitor{u, v, state.src[v], d});
      }
    }
  }
  return initial;
}

}  // namespace dsteiner::core
