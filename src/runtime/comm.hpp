// Collective communication over the simulated ranks.
//
// The distributed algorithm uses MPI collectives in three places (Alg. 3/5):
// MPI_Allreduce(MPI_MIN) on cross-cell edge distances, a second Allreduce on
// source-vertex ids for tie-breaking, and result gathering. This module
// reproduces those semantics over per-rank in-process buffers, charges an
// alpha-beta (latency + bandwidth) cost to the simulated clock, and supports
// the *chunked* collective mode the paper describes in §V-F ("multiple
// collective operations on smaller chunks, e.g., 500K or 1M items per chunk"
// trading runtime for memory).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "runtime/perf_model.hpp"

namespace dsteiner::runtime {

class communicator {
 public:
  explicit communicator(int num_ranks, cost_model costs)
      : num_ranks_(num_ranks), costs_(costs) {}

  [[nodiscard]] int num_ranks() const noexcept { return num_ranks_; }
  [[nodiscard]] const cost_model& costs() const noexcept { return costs_; }

  /// Accounting for one collective call moving `bytes` per rank.
  void charge_collective(std::uint64_t bytes, phase_metrics& metrics) const;

  /// Peak per-rank collective buffer observed (Fig. 8 memory accounting).
  [[nodiscard]] std::uint64_t peak_buffer_bytes() const noexcept {
    return peak_buffer_bytes_;
  }
  void note_buffer_bytes(std::uint64_t bytes) const noexcept {
    if (bytes > peak_buffer_bytes_) peak_buffer_bytes_ = bytes;
  }
  void reset_peak_buffer() const noexcept { peak_buffer_bytes_ = 0; }

  /// Element-wise allreduce across per-rank dense vectors. All vectors must
  /// have identical length; on return every rank holds the reduction.
  /// `chunk_items == 0` performs a single monolithic collective; otherwise
  /// the reduction proceeds in chunks of that many items (smaller peak
  /// buffer, more alpha charges).
  template <typename T, typename Op>
  void allreduce(std::vector<std::vector<T>>& per_rank, Op op,
                 phase_metrics& metrics, std::size_t chunk_items = 0) const {
    if (per_rank.empty() || per_rank.front().empty()) return;
    const std::size_t items = per_rank.front().size();
    const std::size_t chunk = chunk_items == 0 ? items : chunk_items;
    for (std::size_t begin = 0; begin < items; begin += chunk) {
      const std::size_t end = begin + chunk < items ? begin + chunk : items;
      for (std::size_t i = begin; i < end; ++i) {
        T reduced = per_rank.front()[i];
        for (int r = 1; r < num_ranks_; ++r) reduced = op(reduced, per_rank[r][i]);
        for (int r = 0; r < num_ranks_; ++r) per_rank[r][i] = reduced;
      }
      const std::uint64_t bytes = (end - begin) * sizeof(T);
      charge_collective(bytes, metrics);
      note_buffer_bytes(bytes);
    }
  }

  /// Allreduce for sparse maps: the global result is the key-union with
  /// `value_min(a, b)` resolving duplicates; every rank receives a copy.
  /// This is the sparse realisation of Alg. 5's Allreduce over EN.
  ///
  /// Accounting mirrors the dense `allreduce` path: the payload is the merged
  /// (reduced) map each rank ends up holding, charged per chunk with the
  /// alpha-beta model and recorded as the per-chunk collective buffer.
  /// `chunk_items == 0` is one monolithic collective over all merged entries.
  template <typename Key, typename Value, typename Hash, typename ValueMin>
  void allreduce_map(
      std::vector<std::unordered_map<Key, Value, Hash>>& per_rank,
      ValueMin value_min, phase_metrics& metrics,
      std::size_t chunk_items = 0) const {
    std::unordered_map<Key, Value, Hash> merged;
    for (const auto& local : per_rank) {
      for (const auto& [key, value] : local) {
        const auto [it, inserted] = merged.emplace(key, value);
        if (!inserted) it->second = value_min(it->second, value);
      }
    }
    constexpr std::uint64_t entry_bytes = sizeof(Key) + sizeof(Value);
    const std::size_t items = merged.size();
    const std::size_t chunk = chunk_items == 0 ? items : chunk_items;
    for (std::size_t begin = 0; begin < items; begin += chunk) {
      const std::size_t end = begin + chunk < items ? begin + chunk : items;
      const std::uint64_t bytes = (end - begin) * entry_bytes;
      charge_collective(bytes, metrics);
      note_buffer_bytes(bytes);
    }
    // The merge order above fixes the merged map's iteration order, which
    // downstream phases consume (G'1 construction, tree-edge seeding), so
    // every rank receives a copy of that one map.
    for (auto& local : per_rank) local = merged;
  }

  /// Allgather: concatenation of all per-rank vectors (rank order).
  template <typename T>
  [[nodiscard]] std::vector<T> allgather(
      const std::vector<std::vector<T>>& per_rank, phase_metrics& metrics) const {
    std::vector<T> out;
    std::uint64_t bytes = 0;
    for (const auto& local : per_rank) {
      out.insert(out.end(), local.begin(), local.end());
      bytes += local.size() * sizeof(T);
    }
    charge_collective(bytes, metrics);
    note_buffer_bytes(bytes);
    return out;
  }

 private:
  int num_ranks_;
  cost_model costs_;
  mutable std::uint64_t peak_buffer_bytes_ = 0;
};

}  // namespace dsteiner::runtime
