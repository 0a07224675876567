// perfbench — the repository's end-to-end benchmark (see BENCHMARK.json).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Every workload is a closed loop driven from this one process against the
// public surfaces users call: service::steiner_service::solve/advance_epoch
// and runtime::net::solve_loopback. A client sends its next request only
// after the previous one returned. Inputs come from --seed alone; the
// library only ever sees the generated seed sets and edge deltas.
//
//   explore-lvj   2 clients, each replaying its own §I exploration sessions
//                 on the LVJ mirror: a fresh seed set (|S| cycling 8/32/100),
//                 one exact repeat, then two one-seed swaps. Default service.
//   cold-frs      1 client; every query a distinct |S|=100 set on the FRS
//                 mirror with use_cache=false, allow_warm_start=false.
//   rankloop-frs  1 client; |S|=100 sets through solve_loopback at world 2
//                 on the FRS mirror, cycling through 64 distinct sets (the
//                 call keeps no state). On LVJ a world-2 solve takes ~35 ms
//                 and host scheduling hiccups at its superstep barriers moved
//                 its p90 by up to 60% between runs; FRS solves (~100 ms)
//                 average them out.
//   mutate-lvj    1 client; each round advance_epoch(8 random reweights) and
//                 re-query 6 fixed hot seed sets (two of |S|=8, four of
//                 |S|=32, so the median does not fall between two clusters).
//
// --trace 0 measures for --seconds and prints the end-to-end metrics.
// --trace 1 runs fixed-size loops instead (so the work counters repeat
// exactly): the service untraced, with the benchmark's spans on, and with
// service tracing off; then it replays the workload's inputs through each
// layer's public entry point inside spans. It prints the per-layer metrics
// and writes the spans to --trace-out.
//
// Every served tree is compared bit for bit, outside the timed region, with
// a direct core::solve_steiner_tree of the same seeds on the same epoch; a
// mismatch or a failed request makes the run exit 1. The last stdout line
// is the result JSON; the line before it lists host facts.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/mehlhorn.hpp"
#include "core/steiner_solver.hpp"
#include "core/warm_start.hpp"
#include "graph/dijkstra.hpp"
#include "graph/epoch_graph.hpp"
#include "io/dataset.hpp"
#include "runtime/net/dist_solver.hpp"
#include "runtime/net/loopback_backend.hpp"
#include "seed/seed_select.hpp"
#include "service/steiner_service.hpp"
#include "util/random.hpp"
#include "span_log.hpp"

namespace {

using namespace dsteiner;
using perfbench::span_log;
using seed_set = std::vector<graph::vertex_id>;

// ---------------------------------------------------------------- options --

struct options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage_error(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "explore-lvj|cold-frs|rankloop-frs|mutate-lvj --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               message);
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& text, const char* flag) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || text.empty()) {
    usage_error((std::string(flag) + " expects a non-negative integer").c_str());
  }
  return value;
}

options parse_options(int argc, char** argv) {
  options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error((flag + " expects a value").c_str());
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = parse_uint(value, "--seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_uint(value, "--seconds");
      if (s == 0 || s > 3600) usage_error("--seconds expects 1..3600");
      opt.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace expects 0 or 1");
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage_error(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage_error("--workload, --seed, --seconds and --trace are required");
  }
  return opt;
}

// -------------------------------------------------------------- workloads --

enum class target_kind { service, loopback };

struct workload_spec {
  const char* name;
  const char* dataset;
  target_kind target;
  std::size_t clients;
  bool use_cache;
  bool allow_warm_start;
  // Fixed sizes for the --trace 1 loops and replay (not time-bounded).
  std::size_t trace_ops_per_client;
  std::size_t replay_inputs;
  std::size_t quality_inputs;  ///< distinct inputs the quality ratio covers
};

const std::vector<workload_spec>& workload_specs() {
  static const std::vector<workload_spec> specs = {
      {"explore-lvj", "LVJ", target_kind::service, 2, true, true, 24, 3, 24},
      {"cold-frs", "FRS", target_kind::service, 1, false, false, 4, 2, 6},
      {"rankloop-frs", "FRS", target_kind::loopback, 1, true, true, 16, 2, 12},
      {"mutate-lvj", "LVJ", target_kind::service, 1, true, true, 28, 3, 12},
  };
  return specs;
}

const workload_spec* find_workload(const std::string& name) {
  for (const workload_spec& spec : workload_specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// ------------------------------------------------------- input generation --

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Salt for one draw: a hash of the workload seed and the draw's coordinates
/// (stream, client, index, slot), so no two draws share a salt.
std::uint64_t salt(std::uint64_t seed, std::uint64_t stream, std::uint64_t a,
                   std::uint64_t b, std::uint64_t c = 0) {
  std::uint64_t h = splitmix(seed);
  for (const std::uint64_t part : {stream, a, b, c}) h = splitmix(h ^ part);
  return h;
}

/// The same draw as bench::default_seeds: BFS-level seeds from the largest
/// component, so every set and every added seed is mutually reachable.
seed_set draw_seeds(const graph::csr_graph& g, std::size_t count,
                    std::uint64_t draw_salt) {
  return seed::select_seeds(g, count, seed::seed_strategy::bfs_level,
                            0xbeef + draw_salt);
}

/// `base` with the seed at a salt-chosen index replaced by one from a fresh
/// draw that is not in `base` already.
seed_set swap_one_seed(const graph::csr_graph& g, const seed_set& base,
                       std::uint64_t draw_salt) {
  for (std::uint64_t attempt = 0;; ++attempt) {
    for (const graph::vertex_id v :
         draw_seeds(g, 3, splitmix(draw_salt + attempt))) {
      if (std::find(base.begin(), base.end(), v) == base.end()) {
        seed_set edited = base;
        edited[splitmix(draw_salt) % edited.size()] = v;
        return edited;
      }
    }
  }
}

/// `edits` random reweights of existing edges, new weights drawn from the
/// dataset's weight range. Reweights never disconnect the graph.
graph::edge_delta random_reweights(const graph::csr_graph& g,
                                   const io::dataset_spec& spec,
                                   std::size_t edits, std::uint64_t draw_salt) {
  util::rng gen(draw_salt);
  graph::edge_delta delta;
  while (delta.edits.size() < edits) {
    const auto u =
        static_cast<graph::vertex_id>(gen.uniform(0, g.num_vertices() - 1));
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) continue;
    const graph::vertex_id v = nbrs[gen.uniform(0, nbrs.size() - 1)];
    if (v == u) continue;
    const auto w = static_cast<graph::weight_t>(
        gen.uniform(spec.weight_lo, spec.weight_hi));
    delta.edits.push_back(graph::edge_edit::reweight(u, v, w));
  }
  return delta;
}

/// One client step: a query, or (when `delta` is non-empty) an epoch advance.
struct op {
  seed_set seeds;
  graph::edge_delta delta;
  [[nodiscard]] bool is_advance() const { return !delta.empty(); }
};

struct client_script {
  std::vector<op> warmup;  ///< run before the measured loop, untimed
  std::vector<op> timed;
};

/// A per-layer replay input: a seed set, a one-seed edit of it (warm start)
/// and an 8-reweight edge delta (edge-delta warm start).
struct replay_input {
  seed_set seeds;
  seed_set edited;
  graph::edge_delta delta;
};

struct workload_inputs {
  std::vector<client_script> clients;
  std::vector<replay_input> replay;
  /// Distinct inputs of the quality ratio, as (epochs advanced, seeds).
  std::vector<std::pair<std::uint64_t, seed_set>> quality;
};

enum stream : std::uint64_t {
  k_warmup = 1,  ///< inputs of the process warm-up, never measured
  k_timed = 2,
  k_edits = 3,
  k_hot = 4,
  k_deltas = 5,
  k_replay = 6,
};

constexpr std::size_t k_hot_sets = 6;
constexpr std::size_t k_rankloop_pool = 64;
constexpr std::size_t k_reweights_per_round = 8;

/// One §I exploration session: a fresh set, an exact repeat, then two
/// one-seed swaps. Both edits are swaps so that the warm-start latencies form
/// one cluster per |S| and the median falls inside one, not between an
/// add-seed and a swap-seed cluster.
std::vector<op> explore_session(const graph::csr_graph& g, std::uint64_t seed,
                                std::uint64_t stream_id, std::size_t client,
                                std::size_t session) {
  static constexpr std::size_t sizes[] = {8, 32, 100};
  const std::size_t size = sizes[(session + client) % 3];
  seed_set s = draw_seeds(g, size, salt(seed, stream_id, client, session));
  const seed_set s1 =
      swap_one_seed(g, s, salt(seed, k_edits, client, session, stream_id));
  const seed_set s2 =
      swap_one_seed(g, s1, salt(seed, k_edits, client, session, stream_id + 8));
  return {{s, {}}, {s, {}}, {s1, {}}, {s2, {}}};
}

/// The workload's inputs drawn from stream `stream_id` of `seed`. Scripts
/// are generously sized for `seconds` of closed loop (a client that runs out
/// stops early and the run says so on stderr), or hold exactly the fixed
/// --trace 1 loop when `trace` is set.
workload_inputs make_inputs(const workload_spec& spec, const io::dataset& ds,
                            std::uint64_t seed, std::uint64_t stream_id,
                            double seconds, bool trace) {
  const graph::csr_graph& g = ds.graph;
  workload_inputs in;
  in.clients.resize(spec.clients);
  const std::string name = spec.name;

  if (name == "explore-lvj") {
    const std::size_t sessions =
        trace ? (spec.trace_ops_per_client + 3) / 4
              : static_cast<std::size_t>(std::ceil(seconds * 10.0));
    for (std::size_t c = 0; c < spec.clients; ++c) {
      for (std::size_t k = 0; k < sessions; ++k) {
        for (op& o : explore_session(g, seed, stream_id, c, k)) {
          in.clients[c].timed.push_back(std::move(o));
        }
      }
    }
    // Quality: the three distinct sets of each client's first sessions.
    const std::size_t quality_sessions = spec.quality_inputs / (3 * spec.clients);
    for (std::size_t c = 0; c < spec.clients; ++c) {
      const auto& timed = in.clients[c].timed;
      for (std::size_t k = 0; k < quality_sessions && 4 * k + 3 < timed.size();
           ++k) {
        for (const std::size_t j : {4 * k, 4 * k + 2, 4 * k + 3}) {
          in.quality.emplace_back(0, timed[j].seeds);
        }
      }
    }
    for (std::size_t k = 0; k < spec.replay_inputs; ++k) {
      const auto& timed = in.clients[0].timed;
      in.replay.push_back(
          {timed[4 * k].seeds, timed[4 * k + 2].seeds,
           random_reweights(g, ds.spec, k_reweights_per_round,
                            salt(seed, k_replay, 0, k))});
    }
  } else if (name == "cold-frs" || name == "rankloop-frs") {
    // solve_loopback keeps nothing between calls, so the rank loop cycles
    // through a pool of distinct sets (bounding the output check's cost);
    // service queries stay distinct throughout.
    const bool pooled = name == "rankloop-frs";
    const double per_second = pooled ? 200.0 : 10.0;
    const std::size_t count =
        trace ? spec.trace_ops_per_client
              : static_cast<std::size_t>(std::ceil(seconds * per_second));
    const std::size_t distinct =
        std::max(pooled ? std::min(count, k_rankloop_pool) : count,
                 spec.quality_inputs);
    std::vector<seed_set> sets;
    for (std::size_t i = 0; i < distinct; ++i) {
      sets.push_back(draw_seeds(g, 100, salt(seed, stream_id, 0, i)));
      if (i < spec.quality_inputs) in.quality.emplace_back(0, sets.back());
    }
    for (std::size_t i = 0; i < count; ++i) {
      in.clients[0].timed.push_back({sets[pooled ? i % sets.size() : i], {}});
    }
    for (std::size_t k = 0; k < spec.replay_inputs; ++k) {
      const seed_set& s = in.quality[k].second;
      in.replay.push_back(
          {s, swap_one_seed(g, s, salt(seed, k_replay, 1, k)),
           random_reweights(g, ds.spec, k_reweights_per_round,
                            salt(seed, k_replay, 0, k))});
    }
  } else {  // mutate-lvj
    std::vector<seed_set> hot;
    for (std::size_t j = 0; j < k_hot_sets; ++j) {
      hot.push_back(
          draw_seeds(g, j % 3 == 0 ? 8 : 32, salt(seed, k_hot, stream_id, j)));
    }
    const auto round_delta = [&](std::size_t round) {
      return random_reweights(g, ds.spec, k_reweights_per_round,
                              salt(seed, k_deltas, stream_id, round));
    };
    auto& client = in.clients[0];
    // Unmeasured prefix: the hot sets cold on epoch 0, then one full round
    // (epoch 1), so the measured rounds are all edge-delta warm starts.
    for (const seed_set& s : hot) client.warmup.push_back({s, {}});
    client.warmup.push_back({{}, round_delta(0)});
    for (const seed_set& s : hot) client.warmup.push_back({s, {}});
    const std::size_t rounds =
        trace ? spec.trace_ops_per_client / (k_hot_sets + 1)
              : static_cast<std::size_t>(std::ceil(seconds * 10.0));
    for (std::size_t r = 1; r <= rounds; ++r) {
      client.timed.push_back({{}, round_delta(r)});
      for (const seed_set& s : hot) client.timed.push_back({s, {}});
    }
    // Quality: the hot sets on the first two measured epochs (2 and 3).
    for (std::uint64_t epoch = 2; in.quality.size() < spec.quality_inputs;
         ++epoch) {
      for (const seed_set& s : hot) in.quality.emplace_back(epoch, s);
    }
    for (std::size_t k = 0; k < spec.replay_inputs; ++k) {
      in.replay.push_back({hot[k], swap_one_seed(g, hot[k],
                                                 salt(seed, k_replay, 1, k)),
                           round_delta(k + 1)});
    }
  }
  return in;
}

// ------------------------------------------------------------ statistics --

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double load_average() {
  double one_minute = 0.0;
  if (std::FILE* f = std::fopen("/proc/loadavg", "r")) {
    if (std::fscanf(f, "%lf", &one_minute) != 1) one_minute = 0.0;
    std::fclose(f);
  }
  return one_minute;
}

// ------------------------------------------------------------ parallelism --

/// Runs body(i) for i in [0, n) on up to `threads` threads; rethrows the
/// first exception after every thread has joined.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  const std::size_t extra = std::min(threads, n) > 0 ? std::min(threads, n) - 1 : 0;
  pool.reserve(extra);
  for (std::size_t t = 0; t < extra; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

std::size_t worker_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

// ------------------------------------------------------------ closed loop --

/// One answered query, kept for the output check.
struct served_tree {
  seed_set seeds;
  std::uint64_t epoch = 0;
  std::vector<graph::weighted_edge> tree;
  graph::weight_t distance = 0;
};

struct request_sample {
  double done_s = 0.0;      ///< completion, seconds after the loop started
  double latency_ms = 0.0;  ///< client-side: call to return
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  double service_total_ms = 0.0;  ///< service-side: admission to completion
  service::solve_kind kind = service::solve_kind::cold;
  bool assisted = false;
};

struct loop_result {
  std::vector<request_sample> samples;  ///< measured queries that succeeded
  std::vector<served_tree> trees;       ///< warm-up and measured
  std::vector<double> advance_ms;
  /// Service fingerprint of each epoch id reached (index = epoch id).
  std::vector<std::uint64_t> epoch_fingerprints;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double elapsed_s = 0.0;
  bool exhausted = false;  ///< a client ran out of script before the deadline
  service::service_stats stats;
};

/// End-to-end timing figures that one burst of interference cannot move:
/// the measured loop is cut, in completion order, into up to five chunks of
/// at least 100 requests (so each chunk's p90 has ten samples beyond it),
/// and each figure is the median of its per-chunk values. A loop too short
/// for two chunks is one chunk.
struct chunked_timing {
  double throughput_qps = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t chunks = 0;
};

chunked_timing chunk_timing(std::vector<request_sample> samples) {
  chunked_timing out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end(),
            [](const request_sample& a, const request_sample& b) {
              return a.done_s < b.done_s;
            });
  out.chunks = std::clamp<std::size_t>(samples.size() / 100, 1, 5);
  std::vector<double> qps, p50, p90;
  double chunk_start = 0.0;
  for (std::size_t c = 0; c < out.chunks; ++c) {
    const std::size_t lo = samples.size() * c / out.chunks;
    const std::size_t hi = samples.size() * (c + 1) / out.chunks;
    std::vector<double> latency;
    for (std::size_t i = lo; i < hi; ++i) latency.push_back(samples[i].latency_ms);
    const double chunk_end = samples[hi - 1].done_s;
    qps.push_back(ratio(static_cast<double>(hi - lo), chunk_end - chunk_start));
    chunk_start = chunk_end;
    p50.push_back(quantile(latency, 0.5));
    p90.push_back(quantile(latency, 0.9));
  }
  out.throughput_qps = median(qps);
  out.p50_ms = median(p50);
  out.p90_ms = median(p90);
  return out;
}

/// What the clients call: a service, or the loopback rank mesh.
struct target {
  const workload_spec& spec;
  const graph::csr_graph& graph;
  service::steiner_service* svc = nullptr;  ///< null for loopback targets
};

/// Runs every client's script as a closed loop: the warm-up prefix
/// unmeasured, then the measured part for `seconds`, or to its end when
/// `seconds` is empty.
loop_result run_loop(const target& t, const workload_inputs& in,
                     std::optional<double> seconds, span_log& spans) {
  using clock = std::chrono::steady_clock;
  loop_result out;
  std::mutex out_mutex;  // guards `out` across client threads
  std::atomic<std::uint64_t> next_request{1};
  if (t.svc != nullptr) out.epoch_fingerprints.push_back(t.svc->graph_fingerprint());

  auto loop_start = clock::now();  // reset when the measured loop starts
  const auto execute = [&](const op& o, bool measured) {
    if (o.is_advance()) {
      const auto t0 = clock::now();
      const std::uint64_t epoch = t.svc->advance_epoch(o.delta);
      const double ms =
          std::chrono::duration<double, std::milli>(clock::now() - t0).count();
      const std::uint64_t fp = t.svc->graph_fingerprint();
      const std::lock_guard<std::mutex> lock(out_mutex);
      if (measured) out.advance_ms.push_back(ms);
      if (out.epoch_fingerprints.size() <= epoch) {
        out.epoch_fingerprints.resize(epoch + 1, 0);
      }
      out.epoch_fingerprints[epoch] = fp;
      return;
    }
    const std::uint64_t request_id = next_request++;
    span_log::scope root(spans, "bench", "client.request", request_id, 0);
    request_sample sample;
    served_tree tree;
    bool ok = true;
    const auto t0 = clock::now();
    const double t0_span = spans.enabled() ? spans.now() : 0.0;
    try {
      if (t.svc != nullptr) {
        service::request r;
        r.q.seeds = o.seeds;
        r.q.use_cache = t.spec.use_cache;
        r.q.allow_warm_start = t.spec.allow_warm_start;
        const std::uint64_t call =
            spans.open("service", "service.solve", request_id, root.id());
        service::query_result res = t.svc->solve(std::move(r));
        spans.close(call);
        if (res.solve_seconds > 0.0) {
          const double start = t0_span + res.queue_wait_seconds;
          spans.record("core", "core.solve", request_id, call, start,
                       start + res.solve_seconds);
        }
        sample.queue_ms = res.queue_wait_seconds * 1e3;
        sample.solve_ms = res.solve_seconds * 1e3;
        sample.service_total_ms = res.total_seconds * 1e3;
        sample.kind = res.kind;
        sample.assisted = res.assist.fragments_injected > 0;
        tree = {o.seeds, res.epoch, std::move(res.result.tree_edges),
                res.result.total_distance};
      } else {
        span_log::scope call(spans, "runtime", "runtime.solve_loopback",
                             request_id, root.id());
        core::steiner_result res =
            runtime::net::solve_loopback(t.graph, o.seeds, {}, 2);
        tree = {o.seeds, 0, std::move(res.tree_edges), res.total_distance};
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: request failed: %s\n", e.what());
      ok = false;
    }
    const auto t1 = clock::now();
    sample.latency_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    sample.done_s = std::chrono::duration<double>(t1 - loop_start).count();
    const std::lock_guard<std::mutex> lock(out_mutex);
    if (ok) out.trees.push_back(std::move(tree));
    if (!measured) return;
    ++out.attempted;
    if (ok) {
      out.samples.push_back(sample);
    } else {
      ++out.failed;
    }
  };

  for (std::size_t c = 0; c < in.clients.size(); ++c) {
    for (const op& o : in.clients[c].warmup) execute(o, false);
  }

  const auto start = clock::now();
  loop_start = start;
  const auto deadline =
      seconds ? start + std::chrono::duration_cast<clock::duration>(
                            std::chrono::duration<double>(*seconds))
              : clock::time_point::max();
  std::atomic<bool> exhausted{false};
  const auto client = [&](std::size_t c) {
    const auto& timed = in.clients[c].timed;
    std::size_t i = 0;
    for (; i < timed.size() && clock::now() < deadline; ++i) {
      execute(timed[i], true);
    }
    if (seconds && i == timed.size()) exhausted = true;
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 1; c < in.clients.size(); ++c) threads.emplace_back(client, c);
  client(0);
  for (std::thread& th : threads) th.join();
  out.elapsed_s = std::chrono::duration<double>(clock::now() - start).count();
  out.exhausted = exhausted;
  if (t.svc != nullptr) out.stats = t.svc->stats();
  return out;
}

// ----------------------------------------------------------- output check --

/// Graphs of every epoch a run reached, rebuilt independently of the service
/// from the same deltas (epoch 0 = the dataset graph).
class epoch_replay {
 public:
  epoch_replay(const graph::csr_graph& base, const workload_inputs& in)
      : store_(base, {0.25, 1u << 20}) {
    for (const client_script& c : in.clients) {
      for (const auto* ops : {&c.warmup, &c.timed}) {
        for (const op& o : *ops) {
          if (o.is_advance()) deltas_.push_back(o.delta);
        }
      }
    }
  }

  /// The CSR of `epoch`; throws when the script never reaches it.
  std::shared_ptr<const graph::csr_graph> graph_at(std::uint64_t epoch) {
    while (store_.current()->epoch_id() < epoch) {
      const std::uint64_t next = store_.current()->epoch_id();
      if (next >= deltas_.size()) {
        throw std::runtime_error("epoch beyond the generated script");
      }
      store_.advance(deltas_[next]);
    }
    return store_.find(epoch)->csr();
  }

  std::uint64_t fingerprint_at(std::uint64_t epoch) {
    graph_at(epoch);
    return store_.find(epoch)->fingerprint();
  }

 private:
  graph::epoch_store store_;
  std::vector<graph::edge_delta> deltas_;
};

struct check_result {
  std::uint64_t mismatches = 0;
  double quality_ratio = 0.0;
};

using tree_key = std::pair<std::uint64_t, seed_set>;  // (epoch, sorted seeds)

tree_key key_of(std::uint64_t epoch, seed_set seeds) {
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  return {epoch, std::move(seeds)};
}

/// Compares every served tree with a direct cold solve of the same seeds on
/// the same epoch, and computes ΣD(GS)/ΣD(Mehlhorn) over the quality inputs.
check_result check_outputs(const graph::csr_graph& base,
                           const workload_inputs& in,
                           const std::vector<const loop_result*>& loops,
                           bool with_quality) {
  epoch_replay epochs(base, in);
  const std::size_t quality_inputs = with_quality ? in.quality.size() : 0;
  std::map<tree_key, std::size_t> index;  // key -> reference slot
  std::vector<tree_key> keys;
  const auto add = [&](tree_key key) {
    if (index.emplace(key, keys.size()).second) keys.push_back(std::move(key));
  };
  for (std::size_t q = 0; q < quality_inputs; ++q) {
    add(key_of(in.quality[q].first, in.quality[q].second));
  }
  for (const loop_result* loop : loops) {
    for (const served_tree& t : loop->trees) add(key_of(t.epoch, t.seeds));
  }

  check_result out;
  // Service fingerprints must match the independently rebuilt epochs.
  for (const loop_result* loop : loops) {
    for (std::uint64_t e = 0; e < loop->epoch_fingerprints.size(); ++e) {
      if (loop->epoch_fingerprints[e] != epochs.fingerprint_at(e)) {
        std::fprintf(stderr, "perfbench: epoch %llu fingerprint mismatch\n",
                     static_cast<unsigned long long>(e));
        ++out.mismatches;
      }
    }
  }

  std::vector<core::steiner_result> refs(keys.size());
  std::vector<graph::weight_t> mehlhorn(quality_inputs, 0);
  std::uint64_t max_epoch = 0;
  for (const tree_key& k : keys) max_epoch = std::max(max_epoch, k.first);
  std::vector<std::shared_ptr<const graph::csr_graph>> graphs(max_epoch + 1);
  for (std::uint64_t e = 0; e <= max_epoch; ++e) graphs[e] = epochs.graph_at(e);

  // The reference runs the cooperative engine at one rank: the same tree as
  // any configuration (the solver's determinism contract), at the least cost.
  core::solver_config reference;
  reference.num_ranks = 1;
  parallel_for(keys.size() + mehlhorn.size(), worker_threads(),
               [&](std::size_t i) {
                 if (i < keys.size()) {
                   refs[i] = core::solve_steiner_tree(*graphs[keys[i].first],
                                                      keys[i].second, reference);
                 } else {
                   const auto& [epoch, seeds] = in.quality[i - keys.size()];
                   mehlhorn[i - keys.size()] =
                       baselines::mehlhorn_steiner_tree(*graphs[epoch], seeds)
                           .total_distance;
                 }
               });

  for (const loop_result* loop : loops) {
    for (const served_tree& t : loop->trees) {
      const core::steiner_result& ref = refs[index.at(key_of(t.epoch, t.seeds))];
      if (t.tree != ref.tree_edges || t.distance != ref.total_distance) {
        ++out.mismatches;
      }
    }
  }
  double gs = 0.0, mh = 0.0;
  for (std::size_t q = 0; q < quality_inputs; ++q) {
    gs += static_cast<double>(
        refs[index.at(key_of(in.quality[q].first, in.quality[q].second))]
            .total_distance);
    mh += static_cast<double>(mehlhorn[q]);
  }
  out.quality_ratio = ratio(gs, mh);
  return out;
}

// ---------------------------------------------------------------- results --

struct metric {
  std::string name;
  double value;
  const char* unit;
};

struct run_outcome {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<metric> metrics;
};

std::string format_number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc{} ? std::string(buf, ptr) : std::string("0");
}

void print_result(const run_outcome& r) {
  const std::uint64_t attempted = std::max<std::uint64_t>(r.attempted, 1);
  std::string line = std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + r.metrics[i].name + "\": {\"value\": " +
            format_number(r.metrics[i].value) + ", \"unit\": \"" +
            r.metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

#ifdef NDEBUG
constexpr bool k_ndebug = true;
#else
constexpr bool k_ndebug = false;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

void print_host_facts(const options& opt, double load_start, double load_end) {
  std::printf(
      "host {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"nproc\": %u, "
      "\"loadavg_start\": %.2f, \"loadavg_end\": %.2f, \"build_type\": \"%s\", "
      "\"ndebug\": %s}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, std::thread::hardware_concurrency(), load_start,
      load_end, PERFBENCH_BUILD_TYPE, k_ndebug ? "true" : "false");
}

// ------------------------------------------------------------------ setup --

struct setup_result {
  io::dataset ds;
  std::unique_ptr<service::steiner_service> svc;
  double seconds = 0.0;  ///< median over the repetitions
  std::vector<double> load_seconds;
};

/// Dataset generation plus service construction, repeated; keeps the last.
setup_result run_setup(const workload_spec& spec, span_log& spans) {
  constexpr int k_repetitions = 5;
  setup_result out;
  std::vector<double> times;
  for (int rep = 0; rep < k_repetitions; ++rep) {
    out.svc.reset();
    const auto t0 = std::chrono::steady_clock::now();
    {
      span_log::scope s(spans, "io", "io.load_dataset", 0, 0);
      out.ds = io::load_dataset(spec.dataset);
    }
    out.load_seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    if (spec.target == target_kind::service) {
      out.svc = std::make_unique<service::steiner_service>(
          out.ds.graph, service::service_config{});
    }
    times.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  out.seconds = median(times);
  return out;
}

/// Runs the workload for a few seconds on inputs no measured loop uses, on a
/// throwaway service. Solves in the first second or two of a process run up
/// to 2x slower (allocator growth, clock ramp-up), and no metric should
/// depend on how long that lasts.
void warm_up_process(const workload_spec& spec, const io::dataset& ds,
                     std::uint64_t seed) {
  constexpr double k_warmup_seconds = 3.0;
  const workload_inputs in =
      make_inputs(spec, ds, seed, k_warmup, k_warmup_seconds, false);
  std::unique_ptr<service::steiner_service> svc;
  if (spec.target == target_kind::service) {
    svc = std::make_unique<service::steiner_service>(ds.graph,
                                                     service::service_config{});
  }
  span_log off(false);
  run_loop({spec, ds.graph, svc.get()}, in, k_warmup_seconds, off);
}

/// Wall seconds of each benchmark stage, for the stderr summary.
class stage_clock {
 public:
  void mark(const char* stage) {
    const auto now = std::chrono::steady_clock::now();
    line_ += std::string(line_.empty() ? "" : ", ") + stage + " " +
             std::to_string(std::chrono::duration<double>(now - last_).count())
                 .substr(0, 5) + "s";
    last_ = now;
  }
  [[nodiscard]] const std::string& line() const noexcept { return line_; }

 private:
  std::chrono::steady_clock::time_point last_ = std::chrono::steady_clock::now();
  std::string line_;
};

// ------------------------------------------------------ end-to-end mode --

run_outcome run_end_to_end(const options& opt, const workload_spec& spec) {
  stage_clock stages;
  span_log spans(false);
  setup_result setup = run_setup(spec, spans);
  stages.mark("setup");
  const workload_inputs in =
      make_inputs(spec, setup.ds, opt.seed, k_timed, opt.seconds, false);
  stages.mark("inputs");
  warm_up_process(spec, setup.ds, opt.seed);
  stages.mark("warm-up");
  const target t{spec, setup.ds.graph, setup.svc.get()};
  const loop_result loop = run_loop(t, in, opt.seconds, spans);
  const double rss = peak_rss_mb();
  setup.svc.reset();
  stages.mark("loop");
  if (loop.exhausted) {
    std::fprintf(stderr, "perfbench: script exhausted before the deadline\n");
  }

  const check_result check = check_outputs(setup.ds.graph, in, {&loop}, true);
  stages.mark("check");
  std::fprintf(stderr, "perfbench: stages: %s\n", stages.line().c_str());
  // Completions per second of the loop: shows drift or interference that a
  // whole-run figure would hide.
  std::vector<int> per_second(static_cast<std::size_t>(loop.elapsed_s) + 1, 0);
  for (const request_sample& s : loop.samples) {
    ++per_second[std::min(per_second.size() - 1, static_cast<std::size_t>(s.done_s))];
  }
  std::string histogram;
  for (const int n : per_second) {
    histogram += ' ';
    histogram += std::to_string(n);
  }
  std::fprintf(stderr, "perfbench: completions per second:%s\n", histogram.c_str());
  std::map<std::string, int> paths;
  for (const request_sample& s : loop.samples) {
    ++paths[s.assisted ? "assisted" : service::to_string(s.kind)];
  }
  std::string path_line;
  for (const auto& [path, n] : paths) path_line += " " + path + "=" + std::to_string(n);
  std::fprintf(stderr, "perfbench: paths:%s\n", path_line.c_str());
  const chunked_timing timing = chunk_timing(loop.samples);
  const std::uint64_t failed = loop.failed + check.mismatches;
  const bool correct = failed == 0 && !loop.samples.empty();
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu queries in %.2fs (%zu chunks), "
               "%llu failed, %llu mismatched\n",
               spec.name, static_cast<unsigned long long>(opt.seed),
               loop.samples.size(), loop.elapsed_s, timing.chunks,
               static_cast<unsigned long long>(loop.failed),
               static_cast<unsigned long long>(check.mismatches));
  return {correct,
          loop.attempted,
          failed,
          {{"setup_s", setup.seconds, "s"},
           {"throughput_qps", timing.throughput_qps, "1/s"},
           {"latency_p50_ms", timing.p50_ms, "ms"},
           {"latency_p90_ms", timing.p90_ms, "ms"},
           {"quality_ratio", check.quality_ratio, "ratio"},
           {"peak_rss_mb", rss, "MiB"}}};
}

// -------------------------------------------------------- per-layer mode --

/// Per-call timings and counters of the layer replay.
struct replay_totals {
  std::map<std::string, std::vector<double>> ms;  ///< per-call times by name
  std::map<std::string, double> counts;           ///< summed over inputs
  std::uint64_t mismatches = 0;
};

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs `call` inside a span and appends its wall time to `totals.ms[name]`.
template <typename F>
auto timed_call(span_log& spans, replay_totals& totals, const char* layer,
                const char* name, std::uint64_t request, std::uint64_t parent,
                F&& call) {
  span_log::scope s(spans, layer, name, request, parent);
  const auto t0 = std::chrono::steady_clock::now();
  auto result = call();
  totals.ms[name].push_back(elapsed_ms(t0));
  return result;
}

void add_phase_metrics(replay_totals& totals, const core::steiner_result& r) {
  static const std::pair<const char*, const char*> phases[] = {
      {runtime::phase_names::voronoi, "core.phase.voronoi_ms"},
      {runtime::phase_names::local_min_edge, "core.phase.local_min_edge_ms"},
      {runtime::phase_names::global_min_edge, "core.phase.global_min_edge_ms"},
      {runtime::phase_names::mst, "core.phase.mst_ms"},
      {runtime::phase_names::pruning, "core.phase.pruning_ms"},
      {runtime::phase_names::tree_edge, "core.phase.tree_edge_ms"},
  };
  for (const auto& [phase, name] : phases) {
    const auto* m = r.phases.find(phase);
    totals.ms[name].push_back(m != nullptr ? m->wall_seconds * 1e3 : 0.0);
  }
  if (const auto* p1 = r.phases.find(runtime::phase_names::voronoi)) {
    totals.counts["core.p1.settled"] += static_cast<double>(p1->visitors_processed);
    totals.counts["core.p1.skipped"] += static_cast<double>(p1->visitors_skipped);
    totals.counts["core.p1.rejected"] += static_cast<double>(p1->previsit_rejections);
    totals.counts["core.p1.remote_msgs"] += static_cast<double>(p1->messages_remote);
  }
  if (const auto* p2 = r.phases.find(runtime::phase_names::local_min_edge)) {
    totals.counts["core.p2.visitors"] += static_cast<double>(p2->visitors_processed);
  }
}

void add_warm_stats(replay_totals& totals, const char* prefix,
                    const core::warm_start_stats& w) {
  const std::string p = prefix;
  totals.counts[p + ".reset_vertices"] += static_cast<double>(w.reset_vertices);
  totals.counts[p + ".damaged_vertices"] += static_cast<double>(w.damaged_vertices);
  totals.counts[p + ".changed_vertices"] += static_cast<double>(w.changed_vertices);
}

/// World-2 work counters from every rank (solve_loopback returns rank 0's
/// result only): settled visitors and remote messages of phase 1, frames,
/// wire bytes, supersteps, votes, ghost labels and the telemetry timers.
void add_world2_counters(replay_totals& totals, const graph::csr_graph& g,
                         const seed_set& seeds,
                         const std::vector<graph::weighted_edge>& expected) {
  constexpr int k_world = 2;
  runtime::net::loopback_mesh mesh(k_world);
  std::vector<core::steiner_result> results(k_world);
  std::vector<runtime::net::net_solve_report> reports(k_world);
  std::vector<std::exception_ptr> errors(k_world);
  const auto rank_main = [&](int r) {
    try {
      results[r] = runtime::net::solve_rank(g, seeds, {}, mesh.endpoint(r),
                                            &reports[r]);
    } catch (...) {
      errors[r] = std::current_exception();
      mesh.close_all();
    }
  };
  std::thread peer(rank_main, 1);
  rank_main(0);
  peer.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  if (results[0].tree_edges != expected) ++totals.mismatches;

  double settled = 0.0, remote = 0.0, frames = 0.0, bytes = 0.0, ghosts = 0.0;
  double compute = 0.0, send = 0.0, recv_wait = 0.0, vote = 0.0;
  for (int r = 0; r < k_world; ++r) {
    if (const auto* p1 = results[r].phases.find(runtime::phase_names::voronoi)) {
      settled += static_cast<double>(p1->visitors_processed);
      remote += static_cast<double>(p1->messages_remote);
    }
    frames += static_cast<double>(reports[r].stats.frames_sent);
    bytes += static_cast<double>(reports[r].stats.bytes_sent);
    ghosts += static_cast<double>(reports[r].ghost_labels_sent);
    for (const auto& sample : reports[r].telemetry) {
      compute += static_cast<double>(sample.compute_nanos);
      send += static_cast<double>(sample.send_flush_nanos);
      recv_wait += static_cast<double>(sample.recv_wait_nanos);
      vote += static_cast<double>(sample.vote_nanos);
    }
  }
  totals.counts["runtime.net.settled"] += settled;
  totals.counts["runtime.net.remote_msgs"] += remote;
  totals.counts["runtime.net.frames"] += frames;
  totals.counts["runtime.net.wire_bytes"] += bytes;
  totals.counts["runtime.net.ghost_labels"] += ghosts;
  totals.counts["runtime.net.supersteps"] +=
      static_cast<double>(reports[0].supersteps);
  totals.counts["runtime.net.vote_rounds"] +=
      static_cast<double>(reports[0].vote_rounds);
  // Telemetry timers are wall clock: fractions, never compared exactly.
  totals.counts["timer.compute"] += compute;
  totals.counts["timer.send"] += send;
  totals.counts["timer.recv_wait"] += recv_wait;
  totals.counts["timer.vote"] += vote;
}

/// Replays each input through every layer's public entry point, one span per
/// call under a per-input root span, checking that every engine returns the
/// cold tree.
replay_totals replay_layers(const io::dataset& ds, const workload_inputs& in,
                            span_log& spans) {
  const graph::csr_graph& g = ds.graph;
  replay_totals totals;
  core::solver_config coop1;
  coop1.num_ranks = 1;
  for (std::size_t i = 0; i < in.replay.size(); ++i) {
    const replay_input& input = in.replay[i];
    const std::uint64_t request = 1'000'000 + i;
    graph::epoch_store store(g);
    store.advance(input.delta);
    const auto mutated = store.current()->csr();
    const auto edits = *store.delta_between(0, 1);

    std::vector<core::steiner_result> same_tree;  // must all equal `cold`
    core::steiner_result cold, warm, edge_warm;
    core::warm_start_stats warm_stats, edge_stats;
    {
      span_log::scope root(spans, "bench", "replay.input", request, 0);
      const std::uint64_t p = root.id();
      timed_call(spans, totals, "graph", "graph.voronoi", request, p,
                 [&] { return graph::multi_source_voronoi(g, input.seeds); });
      timed_call(spans, totals, "baselines", "baselines.mehlhorn", request, p,
                 [&] { return baselines::mehlhorn_steiner_tree(g, input.seeds); });
      cold = timed_call(spans, totals, "core", "core.cold", request, p,
                        [&] { return core::solve_steiner_tree(g, input.seeds); });
      core::solve_artifacts artifacts;
      same_tree.push_back(timed_call(
          spans, totals, "core", "core.capture", request, p, [&] {
            return core::solve_steiner_tree_capture(g, input.seeds, {},
                                                    artifacts);
          }));
      warm = timed_call(spans, totals, "core", "core.warm", request, p, [&] {
        return core::solve_steiner_tree_warm(g, input.edited, artifacts, {},
                                             nullptr, &warm_stats);
      });
      edge_warm = timed_call(spans, totals, "core", "core.edge_warm", request, p,
                             [&] {
                               return core::solve_steiner_tree_edge_warm(
                                   *mutated, input.seeds, artifacts,
                                   artifacts.graph_fingerprint, edits, {},
                                   nullptr, &edge_stats);
                             });
      same_tree.push_back(
          timed_call(spans, totals, "runtime", "runtime.coop1", request, p,
                     [&] { return core::solve_steiner_tree(g, input.seeds, coop1); }));
      for (const auto& [world, name] :
           {std::pair{1, "runtime.net.w1"}, std::pair{2, "runtime.net.w2"},
            std::pair{4, "runtime.net.w4"}}) {
        same_tree.push_back(timed_call(
            spans, totals, "runtime", name, request, p, [&, world = world] {
              return runtime::net::solve_loopback(g, input.seeds, {}, world);
            }));
      }
    }
    // Counters and checks, outside the spans.
    add_phase_metrics(totals, cold);
    add_warm_stats(totals, "core.warm", warm_stats);
    add_warm_stats(totals, "core.edge_warm", edge_stats);
    add_world2_counters(totals, g, input.seeds, cold.tree_edges);
    for (const core::steiner_result& r : same_tree) {
      if (r.tree_edges != cold.tree_edges) ++totals.mismatches;
    }
    if (warm.tree_edges != core::solve_steiner_tree(g, input.edited).tree_edges) {
      ++totals.mismatches;
    }
    if (edge_warm.tree_edges !=
        core::solve_steiner_tree(*mutated, input.seeds).tree_edges) {
      ++totals.mismatches;
    }
  }
  return totals;
}

std::vector<double> latencies_of(const loop_result& loop,
                                 std::optional<service::solve_kind> kind) {
  std::vector<double> out;
  for (const request_sample& s : loop.samples) {
    if (!kind || s.kind == *kind) out.push_back(s.latency_ms);
  }
  return out;
}

double overhead_p50(const loop_result& loop, service::solve_kind kind) {
  std::vector<double> out;
  for (const request_sample& s : loop.samples) {
    if (s.kind == kind) out.push_back(s.service_total_ms - s.solve_ms);
  }
  return median(out);
}

run_outcome run_per_layer(const options& opt, const workload_spec& spec) {
  stage_clock stages;
  span_log spans(true);
  span_log untraced(false);
  setup_result setup = run_setup(spec, spans);
  setup.svc.reset();
  stages.mark("setup");
  const workload_inputs in =
      make_inputs(spec, setup.ds, opt.seed, k_timed, opt.seconds, true);
  const bool is_service = spec.target == target_kind::service;
  stages.mark("inputs");
  warm_up_process(spec, setup.ds, opt.seed);
  stages.mark("warm-up");

  // The fixed-size loop three times, each on a fresh service: untraced (the
  // reference), with the benchmark's spans, and with service tracing off.
  const auto fresh_loop = [&](span_log& log, bool service_tracing) {
    service::service_config config;
    config.trace.enabled = service_tracing;
    std::unique_ptr<service::steiner_service> svc;
    if (is_service) {
      svc = std::make_unique<service::steiner_service>(setup.ds.graph, config);
    }
    return run_loop({spec, setup.ds.graph, svc.get()}, in, std::nullopt, log);
  };
  const loop_result plain = fresh_loop(untraced, true);
  const loop_result traced = fresh_loop(spans, true);
  std::optional<loop_result> quiet;
  if (is_service) quiet = fresh_loop(untraced, false);

  stages.mark("loops");
  const replay_totals replay = replay_layers(setup.ds, in, spans);
  stages.mark("replay");

  std::vector<const loop_result*> loops = {&plain, &traced};
  if (quiet) loops.push_back(&*quiet);
  const check_result check = check_outputs(setup.ds.graph, in, loops, false);
  stages.mark("check");
  std::fprintf(stderr, "perfbench: stages: %s\n", stages.line().c_str());
  const std::uint64_t failed =
      plain.failed + traced.failed + (quiet ? quiet->failed : 0) +
      check.mismatches + replay.mismatches;
  const std::uint64_t attempted =
      plain.attempted + traced.attempted + (quiet ? quiet->attempted : 0);

  const auto ms = [&](const char* name) {
    const auto it = replay.ms.find(name);
    return it == replay.ms.end() ? 0.0 : median(it->second);
  };
  const double inputs = static_cast<double>(std::max<std::size_t>(1, in.replay.size()));
  const auto per_input = [&](const std::string& name) {
    const auto it = replay.counts.find(name);
    return it == replay.counts.end() ? 0.0 : it->second / inputs;
  };
  const double p50_plain = quantile(latencies_of(plain, std::nullopt), 0.5);
  const double p50_traced = quantile(latencies_of(traced, std::nullopt), 0.5);
  const double p50_quiet =
      quiet ? quantile(latencies_of(*quiet, std::nullopt), 0.5) : 0.0;

  std::map<service::solve_kind, double> kind_count;
  double assisted = 0.0;
  std::vector<double> queue_ms;
  for (const request_sample& s : plain.samples) {
    kind_count[s.kind] += 1.0;
    if (s.kind == service::solve_kind::cold && s.assisted) assisted += 1.0;
    queue_ms.push_back(s.queue_ms);
  }
  // Path shares of the untraced loop; 0 where no service runs.
  const auto share = [&](double count) {
    return is_service ? ratio(count, static_cast<double>(plain.samples.size()))
                      : 0.0;
  };
  const double warm_p50 = median(latencies_of(plain, service::solve_kind::warm_start));
  const double settled = per_input("runtime.net.settled");
  const double timer_total = per_input("timer.compute") + per_input("timer.send") +
                             per_input("timer.recv_wait") + per_input("timer.vote");
  const std::map<std::string, double> self = spans.self_seconds_by_layer();
  const auto self_ms = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second * 1e3;
  };

  std::vector<metric> metrics = {
      {"io.load_dataset_s", median(setup.load_seconds), "s"},
      {"graph.voronoi_ms", ms("graph.voronoi"), "ms"},
      {"baselines.mehlhorn_ms", ms("baselines.mehlhorn"), "ms"},
      {"core.cold_ms", ms("core.cold"), "ms"},
      {"core.cold_over_mehlhorn", ratio(ms("core.cold"), ms("baselines.mehlhorn")),
       "ratio"},
      {"core.phase.voronoi_ms", ms("core.phase.voronoi_ms"), "ms"},
      {"core.phase.local_min_edge_ms", ms("core.phase.local_min_edge_ms"), "ms"},
      {"core.phase.global_min_edge_ms", ms("core.phase.global_min_edge_ms"), "ms"},
      {"core.phase.mst_ms", ms("core.phase.mst_ms"), "ms"},
      {"core.phase.pruning_ms", ms("core.phase.pruning_ms"), "ms"},
      {"core.phase.tree_edge_ms", ms("core.phase.tree_edge_ms"), "ms"},
      {"core.p1.settled", per_input("core.p1.settled"), "count"},
      {"core.p1.skipped", per_input("core.p1.skipped"), "count"},
      {"core.p1.rejected", per_input("core.p1.rejected"), "count"},
      {"core.p1.remote_msgs", per_input("core.p1.remote_msgs"), "count"},
      {"core.p1.redundancy",
       ratio(per_input("core.p1.skipped") + per_input("core.p1.rejected"),
             per_input("core.p1.settled")),
       "ratio"},
      {"core.p2.visitors", per_input("core.p2.visitors"), "count"},
      {"core.capture_ms", ms("core.capture"), "ms"},
      {"core.warm_ms", ms("core.warm"), "ms"},
      {"core.edge_warm_ms", ms("core.edge_warm"), "ms"},
      {"core.warm.reset_vertices", per_input("core.warm.reset_vertices"), "count"},
      {"core.warm.changed_vertices", per_input("core.warm.changed_vertices"), "count"},
      {"core.edge_warm.reset_vertices", per_input("core.edge_warm.reset_vertices"),
       "count"},
      {"core.edge_warm.damaged_vertices",
       per_input("core.edge_warm.damaged_vertices"), "count"},
      {"core.edge_warm.changed_vertices",
       per_input("core.edge_warm.changed_vertices"), "count"},
      {"runtime.coop1_ms", ms("runtime.coop1"), "ms"},
      {"runtime.net.w1_ms", ms("runtime.net.w1"), "ms"},
      {"runtime.net.w2_ms", ms("runtime.net.w2"), "ms"},
      {"runtime.net.w4_ms", ms("runtime.net.w4"), "ms"},
      {"runtime.net.supersteps", per_input("runtime.net.supersteps"), "count"},
      {"runtime.net.vote_rounds", per_input("runtime.net.vote_rounds"), "count"},
      {"runtime.net.frames", per_input("runtime.net.frames"), "count"},
      {"runtime.net.wire_bytes", per_input("runtime.net.wire_bytes"), "bytes"},
      {"runtime.net.ghost_labels", per_input("runtime.net.ghost_labels"), "count"},
      {"runtime.net.settled", settled, "count"},
      {"runtime.net.remote_msgs", per_input("runtime.net.remote_msgs"), "count"},
      {"runtime.net.remote_per_settled",
       ratio(per_input("runtime.net.remote_msgs"), settled), "ratio"},
      {"runtime.net.bytes_per_settled",
       ratio(per_input("runtime.net.wire_bytes"), settled), "bytes"},
      {"runtime.net.compute_frac", ratio(per_input("timer.compute"), timer_total),
       "ratio"},
      {"runtime.net.send_frac", ratio(per_input("timer.send"), timer_total), "ratio"},
      {"runtime.net.recv_wait_frac", ratio(per_input("timer.recv_wait"), timer_total),
       "ratio"},
      {"runtime.net.vote_frac", ratio(per_input("timer.vote"), timer_total), "ratio"},
      {"service.queue_wait_p50_ms", is_service ? quantile(queue_ms, 0.5) : 0.0, "ms"},
      {"service.queue_wait_p90_ms", is_service ? quantile(queue_ms, 0.9) : 0.0, "ms"},
      {"service.cold_overhead_ms", overhead_p50(plain, service::solve_kind::cold),
       "ms"},
      {"service.warm_overhead_ms",
       overhead_p50(plain, service::solve_kind::warm_start), "ms"},
      {"service.warm_over_core", ratio(warm_p50, ms("core.warm")), "ratio"},
      {"service.cold_p50_ms",
       is_service ? median(latencies_of(plain, service::solve_kind::cold)) : 0.0,
       "ms"},
      {"service.warm_p50_ms", warm_p50, "ms"},
      {"service.hit_p50_ms",
       median(latencies_of(plain, service::solve_kind::cache_hit)), "ms"},
      {"service.path.cold", share(kind_count[service::solve_kind::cold] - assisted),
       "ratio"},
      {"service.path.warm", share(kind_count[service::solve_kind::warm_start]),
       "ratio"},
      {"service.path.hit", share(kind_count[service::solve_kind::cache_hit]), "ratio"},
      {"service.path.coalesced", share(kind_count[service::solve_kind::coalesced]),
       "ratio"},
      {"service.path.assisted", share(assisted), "ratio"},
      {"service.fragment_hits", static_cast<double>(plain.stats.fragment_hits),
       "count"},
      {"service.warm_fallbacks", static_cast<double>(plain.stats.warm_fallbacks),
       "count"},
      {"service.advance_epoch_ms", median(plain.advance_ms), "ms"},
      {"obs.trace_overhead_frac", quiet ? ratio(p50_plain - p50_quiet, p50_quiet) : 0.0,
       "ratio"},
      {"bench.trace_overhead_frac", ratio(p50_traced - p50_plain, p50_plain),
       "ratio"},
  };
  for (const char* layer :
       {"bench", "io", "graph", "baselines", "core", "runtime", "service"}) {
    metrics.push_back({std::string("trace.self.") + layer + "_ms", self_ms(layer), "ms"});
  }

  if (!opt.trace_out.empty() && !spans.write_chrome_json(opt.trace_out)) {
    throw std::runtime_error("cannot write " + opt.trace_out);
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu traced: %llu queries/loop, %llu failed "
               "or mismatched\n",
               spec.name, static_cast<unsigned long long>(opt.seed),
               static_cast<unsigned long long>(plain.attempted),
               static_cast<unsigned long long>(failed));
  return {failed == 0 && attempted > 0, attempted, failed, std::move(metrics)};
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse_options(argc, argv);
  const workload_spec* spec = find_workload(opt.workload);
  if (spec == nullptr) usage_error(("unknown workload " + opt.workload).c_str());
  const double load_start = load_average();
  try {
    const run_outcome outcome =
        opt.trace ? run_per_layer(opt, *spec) : run_end_to_end(opt, *spec);
    print_host_facts(opt, load_start, load_average());
    print_result(outcome);
    return outcome.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
