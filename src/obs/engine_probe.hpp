// Per-superstep engine telemetry sink — the runtime half of src/obs/.
//
// The cooperative visitor engine (runtime/visitor_engine.hpp) records one
// aggregate `superstep_sample` per round plus one per active rank; the
// distributed rank loop (runtime/net/dist_solver.cpp) records one aggregate
// row per superstep on rank 0. Both write from the single thread that runs
// the solve (net ranks other than 0 carry no trace), so recording is a plain
// append into a vector plus one steady-clock read. Storage is bounded: once
// the probe reaches its capacity further samples are dropped (counted)
// instead of growing without limit, so a million-superstep solve cannot turn
// its trace into a memory hog.
//
// The probe never feeds back into execution: samples are observations of
// decisions already taken, so tracing-on and tracing-off solves stay
// bit-identical (under test in tests/test_obs.cpp).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

namespace dsteiner::obs {

/// One rank's (or the whole engine's, rank == -1) activity in one superstep.
struct superstep_sample {
  const char* phase = "";     ///< solver phase name (static string)
  std::uint32_t superstep = 0;
  std::int32_t rank = -1;     ///< -1 = engine aggregate row
  std::uint32_t visitors = 0;     ///< visit() dispatches this superstep
  std::uint32_t sent = 0;         ///< messages emitted this superstep
  std::uint32_t backlog = 0;      ///< mailbox depth after the compute batch
  float work_units = 0.0F;        ///< simulated work (cost-model units)
  float compute_seconds = 0.0F;   ///< wall time computing (aggregate rows)
  float barrier_wait_seconds = 0.0F;  ///< wall time waiting on peers/votes
  double end_offset_seconds = 0.0;    ///< stamp vs the trace origin (record())
};

class engine_probe {
 public:
  /// `origin` anchors sample timestamps (the owning trace's epoch);
  /// `capacity` bounds the number of samples kept.
  engine_probe(std::chrono::steady_clock::time_point origin,
               std::size_t capacity)
      : origin_(origin), capacity_(capacity) {
    samples_.reserve(std::min<std::size_t>(capacity, 64));
  }

  /// Current solver phase, stamped onto subsequent samples. Called by the
  /// solver between engine runs.
  void set_phase(const char* name) noexcept { phase_ = name; }

  /// Appends a sample, or drops it (counted) once the probe is full.
  void record(superstep_sample s) noexcept {
    if (samples_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    s.phase = phase_;
    s.end_offset_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      origin_)
            .count();
    samples_.push_back(s);
  }

  /// Read side — only valid once the solve is done (the trace is final).
  [[nodiscard]] std::span<const superstep_sample> samples() const noexcept {
    return samples_;
  }

  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::size_t capacity_;
  const char* phase_ = "";
  std::vector<superstep_sample> samples_;
  std::uint64_t dropped_ = 0;
};

}  // namespace dsteiner::obs
