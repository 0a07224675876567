// The distributed Steiner solver over a comm_backend mesh — Alg. 3 where
// every rank is a real participant owning one hash-partition shard of the
// vertex state and exchanging visitor batches as wire frames.
//
// Output contract: bit-identical to core::solve_steiner_tree on the same
// graph/seeds/config, for any world size and either backend. This does not
// require replicating the shared-memory schedule: the tree is the unique
// fixed point of lexicographic (distance, src, pred) minimisation, the
// cross-cell reduction uses the same (bridge distance, u, v) tie-break, the
// MST is content-determined, and the final edge list is canonically sorted —
// so any convergent execution lands on the same bytes. The loopback-vs-TCP
// and distributed-vs-single tests pin exactly this.
//
// Superstep shape per rank (phase 1; phase 6 walks reuse it):
//   drain admitted visitors to a local fixed point, batching cross-partition
//   relaxations per destination owner -> flush batches + a superstep marker
//   to every peer -> drain every peer's frames up to its marker -> two-phase
//   termination vote (sum outstanding | OR cancel). A
//   confirmed all-idle vote ends the phase; a folded cancel bit unwinds all
//   ranks together via util::operation_cancelled.
//
// Between phases 1 and 2 a ghost sync pushes every owned boundary vertex's
// converged (src, d1) label to each rank owning one of its neighbours, which
// is exactly the remote state the cross-edge scan reads (pred is never read
// remotely and stays unset on ghosts).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/steiner_solver.hpp"
#include "graph/csr_graph.hpp"
#include "runtime/net/cluster_telemetry.hpp"
#include "runtime/net/comm_backend.hpp"

namespace dsteiner::runtime::net {

/// One superstep's traffic through this rank: what the wire actually carried
/// versus what the perf model predicts for the same payload — the per-step
/// resolution behind the dsteiner_comm_bytes_{measured,modelled} histograms.
struct net_superstep_sample {
  std::uint32_t superstep = 0;
  /// Wire bytes sent this superstep (headers, markers and votes included).
  std::uint64_t bytes_measured = 0;
  /// Perf-model prediction: payload records x record size, no framing.
  std::uint64_t bytes_modelled = 0;
};

/// Per-rank telemetry from one distributed solve.
struct net_solve_report {
  int rank = 0;
  int world = 1;
  std::uint64_t supersteps = 0;   ///< BSP steps across phases 1 and 6
  std::uint64_t vote_rounds = 0;  ///< termination rounds (confirms included)
  std::uint64_t ghost_labels_sent = 0;
  std::uint64_t ghost_labels_applied = 0;
  std::uint64_t bytes_modelled = 0;  ///< sum over samples
  net_stats stats;                   ///< final backend counters
  std::vector<net_superstep_sample> samples;
  /// Telemetry samples this rank emitted (config.net_telemetry; one per
  /// superstep boundary plus one per one-shot exchange phase).
  std::vector<rank_telemetry> telemetry;
  /// Rank 0 only: every rank's telemetry merged into canonical order — the
  /// cluster observability plane's product. Empty on other ranks and when
  /// telemetry is off.
  cluster_trace cluster;
};

/// Runs one rank of the distributed solve over `net`. Every rank of the mesh
/// must call this with the same graph content, seed list and config —
/// the graph is replicated (each process loads it deterministically), the
/// *state* is partitioned by hash across `net.world_size()` ranks. Blocks
/// until the whole mesh converges; every rank returns the complete (identical)
/// result. Throws util::operation_cancelled when the folded vote carries a
/// cancel bit, and wire_error if the mesh dies mid-solve.
///
/// On a one-rank mesh the rank holds the whole state, which enables two
/// inputs: `capture` receives the warm-start artifacts exactly as
/// core::solve_steiner_tree_capture fills them, and `assists` pre-seeds
/// phase 1 from shared fragments and drops candidates above the oracle's
/// upper bounds (both output-neutral); `assist_out` reports what they
/// absorbed. Passing `capture` or non-empty `assists` on a larger mesh
/// throws std::invalid_argument.
[[nodiscard]] core::steiner_result solve_rank(
    const graph::csr_graph& graph, std::span<const graph::vertex_id> seeds,
    const core::solver_config& config, comm_backend& net,
    net_solve_report* report = nullptr, core::solve_artifacts* capture = nullptr,
    const core::solve_assists& assists = {},
    core::assist_stats* assist_out = nullptr);

/// Convenience harness: runs `world` ranks over an in-process loopback mesh
/// (one thread per rank beyond rank 0, which runs on the calling thread) and
/// returns rank 0's result. `reports`, when non-null, receives all ranks'
/// telemetry in rank order. At world 1 this is the service's cold-solve
/// kernel, where `capture`/`assists`/`assist_out` apply as in solve_rank; it
/// is also the reference side of the TCP bit-identity tests.
[[nodiscard]] core::steiner_result solve_loopback(
    const graph::csr_graph& graph, std::span<const graph::vertex_id> seeds,
    const core::solver_config& config, int world,
    std::vector<net_solve_report>* reports = nullptr,
    core::solve_artifacts* capture = nullptr,
    const core::solve_assists& assists = {},
    core::assist_stats* assist_out = nullptr);

}  // namespace dsteiner::runtime::net
