#include "service/metrics_text.hpp"

#include <cinttypes>
#include <cstdint>
#include <cstdio>

namespace dsteiner::service {

namespace {

void append_line(std::string& out, std::string_view text) {
  out.append(text);
  out.push_back('\n');
}

void append_metric(std::string& out, std::string_view prefix,
                   std::string_view name, std::string_view help,
                   std::string_view type, std::uint64_t value) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "# HELP %.*s_%.*s %.*s",
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data(),
                static_cast<int>(help.size()), help.data());
  append_line(out, buffer);
  std::snprintf(buffer, sizeof(buffer), "# TYPE %.*s_%.*s %.*s",
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data(),
                static_cast<int>(type.size()), type.data());
  append_line(out, buffer);
  std::snprintf(buffer, sizeof(buffer), "%.*s_%.*s %" PRIu64,
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data(), value);
  append_line(out, buffer);
}

void append_counter(std::string& out, std::string_view prefix,
                    std::string_view name, std::string_view help,
                    std::uint64_t value) {
  append_metric(out, prefix, name, help, "counter", value);
}

void append_gauge(std::string& out, std::string_view prefix,
                  std::string_view name, std::string_view help,
                  std::uint64_t value) {
  append_metric(out, prefix, name, help, "gauge", value);
}

/// A cumulative counter whose value is a float (seconds totals).
void append_counter_seconds(std::string& out, std::string_view prefix,
                            std::string_view name, std::string_view help,
                            double value) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "# HELP %.*s_%.*s %.*s",
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data(),
                static_cast<int>(help.size()), help.data());
  append_line(out, buffer);
  std::snprintf(buffer, sizeof(buffer), "# TYPE %.*s_%.*s counter",
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data());
  append_line(out, buffer);
  std::snprintf(buffer, sizeof(buffer), "%.*s_%.*s %.9g",
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data(), value);
  append_line(out, buffer);
}

/// One counter family with a `priority` label per class (one HELP/TYPE
/// header, k_priority_classes series).
void append_priority_counter(
    std::string& out, std::string_view prefix, std::string_view name,
    std::string_view help,
    const std::array<std::uint64_t, k_priority_classes>& values) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "# HELP %.*s_%.*s %.*s",
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data(),
                static_cast<int>(help.size()), help.data());
  append_line(out, buffer);
  std::snprintf(buffer, sizeof(buffer), "# TYPE %.*s_%.*s counter",
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data());
  append_line(out, buffer);
  for (std::size_t p = 0; p < k_priority_classes; ++p) {
    std::snprintf(buffer, sizeof(buffer),
                  "%.*s_%.*s{priority=\"%s\"} %" PRIu64,
                  static_cast<int>(prefix.size()), prefix.data(),
                  static_cast<int>(name.size()), name.data(),
                  to_string(static_cast<priority_class>(p)), values[p]);
    append_line(out, buffer);
  }
}

/// A gauge whose value is a float (ratios, seconds, burn rates).
void append_gauge_value(std::string& out, std::string_view prefix,
                        std::string_view name, std::string_view help,
                        double value) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "# HELP %.*s_%.*s %.*s",
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data(),
                static_cast<int>(help.size()), help.data());
  append_line(out, buffer);
  std::snprintf(buffer, sizeof(buffer), "# TYPE %.*s_%.*s gauge",
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data());
  append_line(out, buffer);
  std::snprintf(buffer, sizeof(buffer), "%.*s_%.*s %.9g",
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data(), value);
  append_line(out, buffer);
}

[[nodiscard]] const char* slo_class_name(std::size_t p) noexcept {
  return p < k_priority_classes ? to_string(static_cast<priority_class>(p))
                                : "other";
}

/// The SLO families: per-class objectives and lifetime good/bad counters,
/// plus the short/long-window burn-rate gauges. Shared between /metrics and
/// the standalone /slo route so both expose identical series.
void append_slo_block(std::string& out, std::string_view prefix,
                      const obs::slo_snapshot& slo) {
  char buffer[256];
  const int pn = static_cast<int>(prefix.size());
  const char* pd = prefix.data();

  append_gauge_value(out, prefix, "slo_error_budget",
                     "Allowed bad-event fraction over the long window",
                     slo.error_budget);

  const auto header = [&](const char* name, const char* help,
                          const char* type) {
    std::snprintf(buffer, sizeof(buffer), "# HELP %.*s_%s %s", pn, pd, name,
                  help);
    append_line(out, buffer);
    std::snprintf(buffer, sizeof(buffer), "# TYPE %.*s_%s %s", pn, pd, name,
                  type);
    append_line(out, buffer);
  };

  header("slo_objective_seconds", "Latency objective per priority class",
         "gauge");
  for (std::size_t p = 0; p < slo.classes.size(); ++p) {
    std::snprintf(buffer, sizeof(buffer),
                  "%.*s_slo_objective_seconds{priority=\"%s\"} %.9g", pn, pd,
                  slo_class_name(p), slo.classes[p].objective_seconds);
    append_line(out, buffer);
  }

  header("slo_good_total", "Completions within the class objective",
         "counter");
  for (std::size_t p = 0; p < slo.classes.size(); ++p) {
    std::snprintf(buffer, sizeof(buffer),
                  "%.*s_slo_good_total{priority=\"%s\"} %" PRIu64, pn, pd,
                  slo_class_name(p), slo.classes[p].good_total);
    append_line(out, buffer);
  }

  header("slo_bad_total", "Completions past the class objective", "counter");
  for (std::size_t p = 0; p < slo.classes.size(); ++p) {
    std::snprintf(buffer, sizeof(buffer),
                  "%.*s_slo_bad_total{priority=\"%s\"} %" PRIu64, pn, pd,
                  slo_class_name(p), slo.classes[p].bad_total);
    append_line(out, buffer);
  }

  header("slo_burn_rate",
         "Error-budget burn rate (1.0 = budget spent exactly at the "
         "sustainable rate) per priority class and window",
         "gauge");
  for (std::size_t p = 0; p < slo.classes.size(); ++p) {
    std::snprintf(buffer, sizeof(buffer),
                  "%.*s_slo_burn_rate{priority=\"%s\",window=\"short\"} %.9g",
                  pn, pd, slo_class_name(p), slo.classes[p].burn_rate_short);
    append_line(out, buffer);
    std::snprintf(buffer, sizeof(buffer),
                  "%.*s_slo_burn_rate{priority=\"%s\",window=\"long\"} %.9g",
                  pn, pd, slo_class_name(p), slo.classes[p].burn_rate_long);
    append_line(out, buffer);
  }

  header("slo_window_queries",
         "Completions scored inside the window, per priority class", "gauge");
  for (std::size_t p = 0; p < slo.classes.size(); ++p) {
    const auto& c = slo.classes[p];
    std::snprintf(buffer, sizeof(buffer),
                  "%.*s_slo_window_queries{priority=\"%s\",window=\"short\"} "
                  "%" PRIu64,
                  pn, pd, slo_class_name(p), c.short_good + c.short_bad);
    append_line(out, buffer);
    std::snprintf(buffer, sizeof(buffer),
                  "%.*s_slo_window_queries{priority=\"%s\",window=\"long\"} "
                  "%" PRIu64,
                  pn, pd, slo_class_name(p), c.long_good + c.long_bad);
    append_line(out, buffer);
  }
}

void append_histogram(std::string& out, std::string_view prefix,
                      std::string_view name, std::string_view help,
                      const latency_histogram::snapshot_data& hist) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "# HELP %.*s_%.*s %.*s",
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data(),
                static_cast<int>(help.size()), help.data());
  append_line(out, buffer);
  std::snprintf(buffer, sizeof(buffer), "# TYPE %.*s_%.*s histogram",
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data());
  append_line(out, buffer);

  // Prometheus buckets are cumulative: every finite log2 bound gets its own
  // series, then the mandatory le="+Inf" series. +Inf and _count both use
  // the summed buckets (not the separately-updated count atomic) so a racy
  // snapshot can never violate the +Inf == _count exposition invariant.
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < latency_histogram::k_buckets; ++i) {
    cumulative += hist.buckets[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%.*s_%.*s_bucket{le=\"%.9g\"} %" PRIu64,
                  static_cast<int>(prefix.size()), prefix.data(),
                  static_cast<int>(name.size()), name.data(),
                  latency_histogram::bucket_upper_seconds(i), cumulative);
    append_line(out, buffer);
  }
  std::snprintf(buffer, sizeof(buffer),
                "%.*s_%.*s_bucket{le=\"+Inf\"} %" PRIu64,
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data(), cumulative);
  append_line(out, buffer);
  std::snprintf(buffer, sizeof(buffer), "%.*s_%.*s_sum %.9g",
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data(), hist.total_seconds);
  append_line(out, buffer);
  std::snprintf(buffer, sizeof(buffer), "%.*s_%.*s_count %" PRIu64,
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data(), cumulative);
  append_line(out, buffer);
}

/// append_histogram with every bucket bound and the sum multiplied by
/// `scale`: the latency_histogram's log2 grid was laid out for seconds, so
/// byte-valued series record samples as bytes x 1/scale and re-scale the
/// exposition bounds back to bytes here.
void append_histogram_scaled(std::string& out, std::string_view prefix,
                             std::string_view name, std::string_view help,
                             const latency_histogram::snapshot_data& hist,
                             double scale) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "# HELP %.*s_%.*s %.*s",
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data(),
                static_cast<int>(help.size()), help.data());
  append_line(out, buffer);
  std::snprintf(buffer, sizeof(buffer), "# TYPE %.*s_%.*s histogram",
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data());
  append_line(out, buffer);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < latency_histogram::k_buckets; ++i) {
    cumulative += hist.buckets[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%.*s_%.*s_bucket{le=\"%.9g\"} %" PRIu64,
                  static_cast<int>(prefix.size()), prefix.data(),
                  static_cast<int>(name.size()), name.data(),
                  latency_histogram::bucket_upper_seconds(i) * scale,
                  cumulative);
    append_line(out, buffer);
  }
  std::snprintf(buffer, sizeof(buffer),
                "%.*s_%.*s_bucket{le=\"+Inf\"} %" PRIu64,
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data(), cumulative);
  append_line(out, buffer);
  std::snprintf(buffer, sizeof(buffer), "%.*s_%.*s_sum %.9g",
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data(),
                hist.total_seconds * scale);
  append_line(out, buffer);
  std::snprintf(buffer, sizeof(buffer), "%.*s_%.*s_count %" PRIu64,
                static_cast<int>(prefix.size()), prefix.data(),
                static_cast<int>(name.size()), name.data(), cumulative);
  append_line(out, buffer);
}

}  // namespace

std::string render_metrics_text(const service_snapshot& snap,
                                std::string_view prefix) {
  const service_stats& s = snap.stats;
  std::string out;
  out.reserve(8192);

  append_counter(out, prefix, "queries_total", "Queries executed", s.queries);
  append_counter(out, prefix, "cold_solves_total", "Full Alg. 3 solves",
                 s.cold_solves);
  append_counter(out, prefix, "warm_solves_total",
                 "Warm-start repairs (seed and edge deltas)", s.warm_solves);
  append_counter(out, prefix, "edge_warm_solves_total",
                 "Warm-start repairs that crossed graph epochs",
                 s.edge_warm_solves);
  append_counter(out, prefix, "warm_fallbacks_total",
                 "Warm attempts that fell back to cold", s.warm_fallbacks);
  append_counter(out, prefix, "cache_hits_total",
                 "Queries served from the result cache", s.cache_hits);
  append_counter(out, prefix, "stale_hits_total",
                 "Queries served from an older live epoch", s.stale_hits);
  append_counter(out, prefix, "coalesced_total",
                 "Queries that waited on an identical in-flight solve",
                 s.coalesced);
  append_counter(out, prefix, "epoch_advances_total",
                 "Graph epochs derived by edge edits", s.epoch_advances);

  append_counter(out, prefix, "cancelled_total",
                 "Requests stopped by cancellation (queued or mid-solve)",
                 s.cancelled);
  append_counter(out, prefix, "deadline_rejected_total",
                 "Requests rejected at admission as deadline-unmeetable",
                 s.deadline_rejected);
  append_counter(out, prefix, "deadline_expired_total",
                 "Requests whose deadline passed while queued or solving",
                 s.deadline_expired);
  append_counter(out, prefix, "stale_refreshes_total",
                 "Background refreshes enqueued after stale hits",
                 s.stale_refreshes);
  append_counter(out, prefix, "stale_refreshes_deduped_total",
                 "Stale-hit refreshes suppressed by the in-flight token",
                 s.stale_refreshes_deduped);
  append_counter(out, prefix, "leader_abandoned_total",
                 "Single-flight solves stopped after every rider walked away",
                 s.leader_abandoned);

  append_counter(out, prefix, "fragment_assisted_solves_total",
                 "Cold solves pre-seeded from the shared SSSP fragment store",
                 s.fragment_assisted);
  append_counter(out, prefix, "fragment_hits_total",
                 "Fragments borrowed into solves", s.fragment_hits);
  append_counter(out, prefix, "fragment_misses_total",
                 "Fragment borrow probes that found nothing",
                 s.fragments.misses);
  append_counter(out, prefix, "fragment_published_total",
                 "Per-seed fragments published by finished solves",
                 s.fragments.published);
  append_counter(out, prefix, "fragment_evictions_total",
                 "Fragments evicted by the memory budget",
                 s.fragments.evictions);
  append_counter(out, prefix, "fragment_retired_total",
                 "Fragments purged by epoch retirement", s.fragments.retired);
  append_gauge(out, prefix, "fragment_store_bytes",
               "Fragment store occupancy in bytes", s.fragments.bytes_in_use);
  append_gauge(out, prefix, "fragment_store_entries",
               "Fragments currently stored", s.fragments.fragments);
  append_counter(out, prefix, "preseeded_vertices_total",
                 "Vertex labels adopted from fragments before relaxation",
                 s.preseeded_vertices);
  append_counter(out, prefix, "oracle_pruned_visitors_total",
                 "Phase-1 visitors dropped by landmark upper bounds (the "
                 "prune-rate numerator; divide by engine visitors)",
                 s.oracle_pruned_visitors);
  append_counter(out, prefix, "oracle_builds_total",
                 "Landmark table (re)builds", s.oracle_builds);
  append_counter(out, prefix, "net_solves_total",
                 "Cold solves executed on the distributed comm_backend mesh",
                 s.distributed_solves);
  append_counter(out, prefix, "net_bytes_sent_total",
                 "Measured wire bytes sent by distributed solves, all ranks "
                 "(headers, markers and votes included)",
                 s.net_bytes_sent);
  append_counter(out, prefix, "net_bytes_modelled_total",
                 "Perf-model payload-byte prediction for the same solves "
                 "(records x record size, no framing)",
                 s.net_bytes_modelled);
  append_counter(out, prefix, "net_frames_sent_total",
                 "Typed frames put on the mesh by distributed solves",
                 s.net_frames_sent);
  append_counter(out, prefix, "net_supersteps_total",
                 "BSP supersteps executed by distributed solves (mesh-wide, "
                 "not per-rank)",
                 s.net_supersteps);
  append_counter(out, prefix, "net_vote_rounds_total",
                 "Two-phase termination vote rounds (confirm rounds included)",
                 s.net_vote_rounds);
  append_counter(out, prefix, "net_ghost_labels_total",
                 "Boundary vertex labels synchronized between ranks",
                 s.net_ghost_labels);
  append_counter(out, prefix, "cluster_telemetry_samples_total",
                 "Per-rank, per-superstep telemetry frames merged on rank 0",
                 s.cluster_telemetry_samples);
  append_counter(out, prefix, "cluster_supersteps_total",
                 "Superstep groups attributed by the straggler report",
                 s.cluster_supersteps);
  append_counter(out, prefix, "cluster_straggler_supersteps_total",
                 "Attributed supersteps whose max/median compute skew "
                 "reached 2x",
                 s.cluster_straggler_supersteps);
  append_counter(out, prefix, "bound_sharpened_admissions_total",
                 "Admission cost estimates scaled by oracle seed spread",
                 s.bound_sharpened);
  append_priority_counter(out, prefix, "requests_admitted_total",
                          "Requests admitted, by priority class",
                          s.admitted_by_priority);
  append_priority_counter(out, prefix, "requests_shed_total",
                          "Requests shed (rejected, displaced or expired in "
                          "queue), by priority class",
                          s.shed_by_priority);

  append_counter(out, prefix, "cache_lookup_hits_total",
                 "Result-cache lookup hits", s.cache.hits);
  append_counter(out, prefix, "cache_lookup_misses_total",
                 "Result-cache lookup misses", s.cache.misses);
  append_counter(out, prefix, "cache_insertions_total",
                 "Result-cache insertions", s.cache.insertions);
  append_counter(out, prefix, "cache_evictions_total",
                 "Result-cache capacity evictions", s.cache.evictions);
  append_counter(out, prefix, "cache_retired_total",
                 "Result-cache entries purged by epoch retirement",
                 s.cache.retired);
  append_gauge(out, prefix, "cache_entries", "Result-cache occupancy",
               s.cache.entries);

  append_counter(out, prefix, "executor_submitted_total",
                 "Tasks admitted to the worker pool", s.exec.submitted);
  append_counter(out, prefix, "executor_executed_total", "Tasks executed",
                 s.exec.executed);
  append_counter(out, prefix, "executor_rejected_total",
                 "try_submit load-shed refusals", s.exec.rejected);
  append_counter(out, prefix, "executor_expired_total",
                 "Queued tasks dropped past their deadline", s.exec.expired);
  append_counter(out, prefix, "executor_displaced_total",
                 "Queued tasks shed for higher-priority arrivals",
                 s.exec.displaced);
  append_counter(out, prefix, "executor_tasks_failed_total",
                 "Tasks that let an exception escape", s.exec.tasks_failed);
  append_counter(out, prefix, "executor_promoted_total",
                 "Queued tasks moved up a priority level by aging",
                 s.exec.promoted);
  append_counter_seconds(out, prefix, "executor_queue_wait_seconds_total",
                         "Cumulative queue wait of executed tasks",
                         s.exec.total_queue_wait_seconds);
  append_counter_seconds(out, prefix, "executor_exec_seconds_total",
                         "Cumulative wall seconds spent running tasks",
                         s.exec.total_exec_seconds);
  append_gauge(out, prefix, "executor_queue_depth",
               "Tasks currently queued for a worker", s.exec.queue_depth);
  append_gauge(out, prefix, "executor_peak_queue_depth",
               "Deepest admission queue observed", s.exec.peak_queue_depth);
  append_counter(out, prefix, "slow_queries_total",
                 "Queries retained in the slow-query log (threshold or SLO "
                 "violation)",
                 s.slow_queries);
  append_counter(out, prefix, "sampled_traces_total",
                 "Untraced queries promoted to a full trace by head sampling",
                 s.sampled_traces);
  append_counter(out, prefix, "slo_violations_total",
                 "Completions past their priority class latency objective",
                 s.slo_violations);
  append_counter(out, prefix, "model_priced_admissions_total",
                 "Admission estimates priced by the learned cost model",
                 s.model_admissions);

  append_gauge(out, prefix, "cost_model_samples",
               "Solves the admission cost model has trained on",
               snap.cost_model.samples);
  append_gauge(out, prefix, "cost_model_ready",
               "1 once the learned model prices admissions",
               snap.cost_model.ready ? 1 : 0);
  append_gauge_value(out, prefix, "cost_model_abs_error_ema_seconds",
                     "EMA of the model's absolute training residual",
                     snap.cost_model.abs_error_ema_seconds);

  append_slo_block(out, prefix, snap.slo);

  append_histogram(out, prefix, "queue_wait_seconds",
                   "Admission-to-pickup wait, all queries", snap.queue_wait);
  append_histogram(out, prefix, "cold_solve_seconds",
                   "Solver time on the cold path", snap.cold_solve);
  append_histogram(out, prefix, "warm_solve_seconds",
                   "Solver time on the warm-start path", snap.warm_solve);
  append_histogram(out, prefix, "cache_hit_seconds",
                   "End-to-end latency of cache hits", snap.cache_hit_total);
  append_histogram(out, prefix, "query_seconds",
                   "End-to-end latency, all paths", snap.total);
  append_histogram(out, prefix, "estimate_error_seconds",
                   "Absolute end-to-end vs admission-estimate residual",
                   snap.estimate_error);
  append_histogram(out, prefix, "estimate_error_model_seconds",
                   "Admission residual of the learned cost model (recorded "
                   "only when the model priced the admission)",
                   snap.estimate_error_model);
  append_histogram(out, prefix, "estimate_error_baseline_seconds",
                   "Admission residual the global-p50 baseline would have "
                   "had on the same queries",
                   snap.estimate_error_baseline);
  append_histogram_scaled(out, prefix, "comm_bytes_modelled",
                          "Perf-model predicted payload bytes per distributed "
                          "superstep",
                          snap.comm_bytes_modelled, 1e6);
  append_histogram_scaled(out, prefix, "comm_bytes_measured",
                          "Measured wire bytes per distributed superstep "
                          "(always >= the modelled series; the gap is framing "
                          "overhead)",
                          snap.comm_bytes_measured, 1e6);
  append_histogram(out, prefix, "cluster_superstep_seconds",
                   "Wall seconds per rank per superstep (compute + "
                   "send-flush + recv-wait + vote)",
                   snap.cluster_superstep_seconds);
  append_histogram(out, prefix, "cluster_comm_wait_seconds",
                   "Communication share of each rank-superstep sample "
                   "(send-flush + recv-wait + vote)",
                   snap.cluster_comm_wait_seconds);
  return out;
}

std::string render_slo_text(const service_snapshot& snap,
                            std::string_view prefix) {
  std::string out;
  out.reserve(2048);
  append_slo_block(out, prefix, snap.slo);
  return out;
}

}  // namespace dsteiner::service
