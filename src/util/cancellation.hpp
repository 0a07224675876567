// Cooperative cancellation and deadline budgets for long-running work.
//
// The service's request/handle API lets a caller abandon a query (cancel) or
// bound it in time (deadline). Solves are CPU loops with no natural
// interruption points, so stopping one is cooperative: the work polls a
// *checkpoint* — `run_budget::check()` — at its natural round boundaries
// (visitor-engine rounds, distributed superstep votes, solver phase
// transitions) and unwinds via `operation_cancelled` when the budget is
// exhausted. Checkpoints are one or two relaxed atomic loads (plus a clock
// read only when a deadline is armed), cheap enough for every superstep.
//
// Split source/token like std::stop_source/std::stop_token: the party that
// may cancel holds the `cancel_source`; the work holds `cancel_token` copies.
// A default-constructed token is inert (never cancels), so plumbing stays
// unconditional.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace dsteiner::util {

/// Why a checkpoint stopped the work.
enum class cancel_reason : std::uint8_t {
  none = 0,
  cancelled,  ///< a cancel_source fired (caller abandoned the work)
  deadline,   ///< the absolute deadline passed
};

[[nodiscard]] constexpr const char* to_string(cancel_reason reason) noexcept {
  switch (reason) {
    case cancel_reason::none: return "none";
    case cancel_reason::cancelled: return "cancelled";
    case cancel_reason::deadline: return "deadline";
  }
  return "?";
}

/// Thrown by a checkpoint when its budget is exhausted. Partial work is
/// discarded by ordinary stack unwinding; catchers translate the reason into
/// their own status (the service maps it to request_status::cancelled or
/// ::expired).
class operation_cancelled : public std::runtime_error {
 public:
  explicit operation_cancelled(cancel_reason why)
      : std::runtime_error(why == cancel_reason::deadline
                               ? "operation stopped: deadline expired"
                               : "operation stopped: cancelled"),
        why_(why) {}

  [[nodiscard]] cancel_reason why() const noexcept { return why_; }

 private:
  cancel_reason why_;
};

class cancel_source;

/// Observer end of a cancellation channel. Copyable, cheap (one shared_ptr);
/// a default-constructed token never reports cancellation.
class cancel_token {
 public:
  cancel_token() = default;

  /// True if this token is connected to a source (i.e. cancellation is
  /// possible at all).
  [[nodiscard]] bool can_cancel() const noexcept { return state_ != nullptr; }

  [[nodiscard]] bool cancelled() const noexcept {
    return state_ != nullptr && state_->load(std::memory_order_acquire) != 0;
  }

 private:
  friend class cancel_source;
  explicit cancel_token(
      std::shared_ptr<const std::atomic<std::uint8_t>> state) noexcept
      : state_(std::move(state)) {}

  std::shared_ptr<const std::atomic<std::uint8_t>> state_;
};

/// Owner end: `request_cancel()` flips every token minted from this source.
/// Thread-safe; cancellation is sticky (there is no reset — mint a new
/// source per unit of work).
class cancel_source {
 public:
  cancel_source() : state_(std::make_shared<std::atomic<std::uint8_t>>(0)) {}

  [[nodiscard]] cancel_token token() const noexcept {
    return cancel_token{state_};
  }

  /// Requests cancellation. Returns true if this call was the first (the
  /// transition), false if the source had already fired.
  bool request_cancel() noexcept {
    std::uint8_t expected = 0;
    return state_->compare_exchange_strong(expected, 1,
                                           std::memory_order_acq_rel);
  }

  [[nodiscard]] bool cancel_requested() const noexcept {
    return state_->load(std::memory_order_acquire) != 0;
  }

 private:
  std::shared_ptr<std::atomic<std::uint8_t>> state_;
};

/// The QoS envelope one unit of work runs under: up to two cancellation
/// tokens (the service's per-request handle and the caller's own token) plus
/// an absolute deadline. Engines and solver phases poll it at checkpoints.
///
/// `polls` is optional observability for tests: when non-null, every
/// checkpoint evaluation increments it, proving the cooperative path is
/// actually wired through a given engine or phase.
struct run_budget {
  using clock = std::chrono::steady_clock;

  cancel_token cancel;       ///< handle-level token (query_handle::cancel)
  cancel_token user_cancel;  ///< caller-supplied request token
  /// Shared-work abandonment: the service arms this on single-flight leader
  /// solves with the group's interest token, so a solve whose every rider
  /// (and requester) walked away stops at the next checkpoint instead of
  /// running to completion for nobody.
  cancel_token group_cancel;
  clock::time_point deadline = clock::time_point::max();
  std::atomic<std::uint64_t>* polls = nullptr;

  [[nodiscard]] bool has_deadline() const noexcept {
    return deadline != clock::time_point::max();
  }

  /// Evaluates the budget. Cancellation outranks the deadline when both have
  /// tripped (the caller's intent is the stronger signal).
  [[nodiscard]] cancel_reason stop_reason() const noexcept {
    if (polls != nullptr) polls->fetch_add(1, std::memory_order_relaxed);
    if (cancel.cancelled() || user_cancel.cancelled() ||
        group_cancel.cancelled()) {
      return cancel_reason::cancelled;
    }
    if (has_deadline() && clock::now() >= deadline) {
      return cancel_reason::deadline;
    }
    return cancel_reason::none;
  }

  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_reason() != cancel_reason::none;
  }

  /// The checkpoint: throws operation_cancelled when the budget is exhausted.
  void check() const {
    const cancel_reason why = stop_reason();
    if (why != cancel_reason::none) throw operation_cancelled(why);
  }
};

}  // namespace dsteiner::util
