// Distributed Voronoi-cell computation (paper Alg. 4, "VORONOI_CELL_ASYNC").
//
// All |S| cells grow concurrently through asynchronous Bellman-Ford
// relaxations: when vertex vj is visited by neighbour vp from cell t with
// tentative distance r, vj joins N(t) if (r, t, vp) improves its state, then
// notifies its neighbours. Message prioritization (priority mailbox keyed on
// r) approximates Dijkstra's settling order and is the paper's headline
// optimization (§V-C).
//
// Vertex delegates: a high-degree vertex's scatter is split into per-rank
// relay visitors, each enumerating only that rank's slice of the adjacency.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/steiner_state.hpp"
#include "graph/types.hpp"
#include "runtime/dist_graph.hpp"
#include "runtime/perf_model.hpp"
#include "runtime/visitor_engine.hpp"

namespace dsteiner::core {

/// The VORONOI_CELL_VISITOR of Alg. 4 (lines 14-18), extended with a relay
/// kind for delegate scatter.
struct voronoi_visitor {
  graph::vertex_id vj = 0;  ///< vertex being visited
  graph::vertex_id vp = 0;  ///< vertex that sent the visitor (pred candidate)
  graph::vertex_id t = 0;   ///< seed owning vp's cell
  graph::weight_t r = 0;    ///< proposed distance d1(t, vj)

  enum class kind_t : std::uint8_t { normal, relay };
  kind_t kind = kind_t::normal;

  [[nodiscard]] graph::vertex_id target() const noexcept { return vj; }
  [[nodiscard]] std::uint64_t priority() const noexcept { return r; }
};

/// Runs Alg. 4 to quiescence, filling `state`. Seeds bootstrap themselves:
/// each s in S receives (r=0, t=s, vp=s).
[[nodiscard]] runtime::phase_metrics compute_voronoi_cells(
    const runtime::dist_graph& dgraph, std::span<const graph::vertex_id> seeds,
    steiner_state& state, const runtime::engine_config& config);

/// Warm-start repair: re-runs Alg. 4 to quiescence from caller-chosen initial
/// visitors over an existing (partially valid) `state`. Used after a seed-set
/// delta: `initial` carries the bootstrap visitors of added seeds plus
/// re-entry visitors along the boundary of reset (removed-cell) regions.
/// Because every update strictly decreases the lexicographic (d1, src, pred)
/// tuple and the fixed point is the unique minimum over all seed-to-vertex
/// paths, repairing from a converged donor state reaches the same labelling a
/// cold run would.
[[nodiscard]] runtime::phase_metrics repair_voronoi_cells(
    const runtime::dist_graph& dgraph, std::vector<voronoi_visitor> initial,
    steiner_state& state, const runtime::engine_config& config);

/// Fragment-injection entry point — the cross-query analogue of warm-start
/// frontier injection. Pre-seeds a fresh `state` with the lexicographic
/// minimum label each vertex gets across `fragments` (fragments whose seed is
/// not in the canonical `seeds` set are skipped: their labels would not be
/// achievable in this solve), then returns the initial visitor set that makes
/// relaxation from this state reach exactly the cold fixed point:
///
///   - one bootstrap visitor (r=0, t=s, vp=s) per seed, covering seeds with
///     no (or truncated) fragments;
///   - one scatter visitor per fragment-boundary arc whose relaxation would
///     improve its target's pre-seeded state. Interior arcs of a single
///     fragment never qualify (a converged cell satisfies the relaxation
///     inequality along every internal arc), so the frontier is the fragment
///     surface plus cross-fragment seams, not the whole membership.
///
/// Why this is bit-identical to cold: every pre-seeded label is an achievable
/// triple (so the state never drops below the true fixed point), and any wave
/// that a pre-seeded vertex absorbs without improvement is dominated — along
/// interior arcs by the cell's own internal consistency, and across every arc
/// where domination could break, an initial scatter was emitted. Relaxation
/// therefore still delivers the canonical optimal chain to every vertex, and
/// the unique lexicographic fixed point is reached with (typically far) fewer
/// relaxations.
///
/// `preseeded`, when non-null, receives the number of vertices pre-seeded.
[[nodiscard]] std::vector<voronoi_visitor> inject_fragments(
    const graph::csr_graph& graph,
    std::span<const sssp_fragment_view> fragments,
    std::span<const graph::vertex_id> seeds, steiner_state& state,
    std::size_t* preseeded = nullptr);

}  // namespace dsteiner::core
