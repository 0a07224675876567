// Landmark distance oracle — cheap upper/lower bounds on graph distances.
//
// K landmark vertices, each with a full SSSP distance table, give two bounds
// for any pair (u, v) by the triangle inequality:
//
//   lower:  max_l |d(l,u) - d(l,v)|  <=  d(u,v)  <=  min_l d(l,u) + d(l,v)
//
// Three serving-layer consumers:
//   1. phase-1 pruning: for a query's seed set S, ub[v] = min_l (min_s d(l,s)
//      + d(l,v)) upper-bounds v's final Voronoi distance, so a frontier
//      visitor proposing a strictly larger distance is provably non-improving
//      and can be dropped at admission (core::solve_assists) — output
//      preserved, relaxation cascades cut;
//   2. admission cost model: the mean lower-bound distance from each seed to
//      its nearest co-seed ("seed spread") predicts how much graph a solve
//      must traverse, sharpening the per-path completion estimate beyond a
//      global p50;
//   3. donor pre-ranking: an added seed's future cell volume scales with its
//      lower-bound distance to the donor's seeds — rank donors without
//      probing them.
//
// Landmarks are degree/ecc-sampled: the first is the highest-degree vertex,
// the rest maximize the minimum distance to the landmarks already chosen
// (farthest-point sampling, which also lands one landmark per component).
// Trees build lazily in waves on a worker pool (runtime/parallel/), with
// cooperative cancellation checkpoints between waves.
//
// Epoch invalidation rides the existing edge-delta machinery instead of
// rebuilding eagerly: raising/disabling edges can only *grow* true distances,
// so stale tables remain valid upper bounds through lowered-only deltas and
// valid lower bounds through raised-only deltas. Each advance therefore
// degrades at most one side; a side is unusable only after a delta moved
// distances in its direction, and the next build restores both.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/epoch_graph.hpp"
#include "graph/types.hpp"
#include "util/cancellation.hpp"

namespace dsteiner::service::distshare {

class landmark_oracle {
 public:
  struct config {
    std::size_t num_landmarks = 8;  ///< clamped to |V|
    /// Worker threads for the build waves (0 = hardware concurrency).
    std::size_t build_threads = 0;
  };

  struct stats_data {
    std::uint64_t builds = 0;
    bool built = false;
    bool upper_valid = false;  ///< UBs usable against the current epoch
    bool lower_valid = false;  ///< LBs usable against the current epoch
    std::size_t landmarks = 0;
    std::uint64_t built_fingerprint = 0;
  };

  landmark_oracle() : landmark_oracle(config{}) {}
  explicit landmark_oracle(config cfg);

  /// Registers an epoch advance: `delta` is the applied edit batch deriving
  /// the new epoch (epoch_graph::delta_from_parent). Raised/disabled edits
  /// invalidate upper bounds, lowered/enabled ones invalidate lower bounds;
  /// bounds for the exact built fingerprint always stay usable (pinned
  /// queries on the build epoch keep full pruning).
  void advance_epoch(std::uint64_t new_fingerprint,
                     std::span<const graph::applied_edge_edit> delta);

  /// Blocking (re)build against `g`, whose content fingerprint is `fp`.
  /// Thread-safe and idempotent: a racing build for the same fingerprint
  /// returns without duplicating work. Throws util::operation_cancelled when
  /// `budget` trips between build waves.
  void build(const graph::csr_graph& g, std::uint64_t fp,
             const util::run_budget* budget = nullptr);

  /// True when a build against `current_fp` would improve the oracle (never
  /// built, or either bound side went stale for that epoch).
  [[nodiscard]] bool needs_build(std::uint64_t current_fp) const;

  /// Per-vertex upper bounds on min_{s in seeds} d(s, v) for the epoch with
  /// content fingerprint `fp` — the solve_assists::prune_upper_bound input.
  /// Empty when the upper side is unusable for that epoch. `seeds` must be
  /// canonical.
  [[nodiscard]] std::vector<graph::weight_t> prune_bounds(
      std::uint64_t fp, std::span<const graph::vertex_id> seeds) const;

  /// Lower bound on d(u, v) for epoch `fp`; 0 when unusable (always a valid
  /// lower bound). k_inf_distance when the landmarks prove u,v disconnected.
  [[nodiscard]] graph::weight_t lower_bound(std::uint64_t fp,
                                            graph::vertex_id u,
                                            graph::vertex_id v) const;

  /// Mean lower-bound distance from each seed to its nearest co-seed — the
  /// cost model's spread feature. 0.0 when unusable (or |seeds| < 2).
  [[nodiscard]] double seed_spread(
      std::uint64_t fp, std::span<const graph::vertex_id> seeds) const;

  [[nodiscard]] stats_data stats() const;

 private:
  struct tables {
    std::uint64_t fingerprint = 0;
    std::vector<graph::vertex_id> landmarks;
    /// dist[l][v] = d(landmarks[l], v); k_inf_distance if unreachable.
    std::vector<std::vector<graph::weight_t>> dist;
  };
  using tables_ptr = std::shared_ptr<const tables>;

  /// Snapshot usable for the given epoch and bound side, else nullptr.
  [[nodiscard]] tables_ptr usable(std::uint64_t fp, bool need_upper,
                                  bool need_lower) const;

  config config_;
  mutable std::mutex mutex_;
  tables_ptr tables_;          ///< swapped whole on rebuild
  std::uint64_t current_fp_ = 0;
  bool upper_valid_ = false;   ///< vs current_fp_
  bool lower_valid_ = false;
  std::uint64_t builds_ = 0;
};

}  // namespace dsteiner::service::distshare
