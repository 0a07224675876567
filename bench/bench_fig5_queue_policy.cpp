// Fig. 5: runtime comparison of FIFO vs priority message queues on LVJ, FRS
// and UKW with |S| = 100, broken down by phase, speedup printed per graph.
//
// This is the paper's headline optimization: the priority queue gives
// precedence to messages from vertices at lower tentative distance,
// approximating Dijkstra's settling order inside the asynchronous
// Bellman-Ford (paper speedups: 3.5x FRS, 6.2x UKW... 13.1x LVJ).
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace dsteiner;
  bench::print_header("Fig. 5: FIFO vs priority queue, runtime by phase",
                      "paper Fig. 5",
                      "Paper speedups: LVJ 13.1x, FRS 3.5x, UKW 6.2x "
                      "(|S|=100).");

  for (const char* key : {"LVJ", "FRS", "UKW"}) {
    const auto ds = io::load_dataset(key);
    const auto seeds = bench::default_seeds(ds.graph, 100);
    std::printf("--- %s-mini  |S|=100 ---\n", key);
    util::table table({"queue", "Voronoi", "LocalMinE", "GlobalMinE", "MST",
                       "Pruning", "TreeEdge", "total(sim)", "wall"});
    double fifo_total = 0.0, priority_total = 0.0;
    for (const auto policy :
         {runtime::queue_policy::fifo, runtime::queue_policy::priority}) {
      core::solver_config config;
      config.policy = policy;
      config.batch_size = 16;  // finer interleaving stresses queue ordering
      util::timer wall;
      const auto result = core::solve_steiner_tree(ds.graph, seeds, config);
      const auto phases = bench::phase_sim_seconds(result, config.costs);
      double total = 0.0;
      std::vector<std::string> row{
          policy == runtime::queue_policy::fifo ? "FIFO" : "Priority"};
      for (const double p : phases) {
        row.push_back(util::format_duration(p));
        total += p;
      }
      row.push_back(util::format_duration(total));
      row.push_back(util::format_duration(wall.seconds()));
      table.add_row(std::move(row));
      (policy == runtime::queue_policy::fifo ? fifo_total : priority_total) =
          total;
    }
    std::printf("%s", table.render().c_str());
    std::printf("priority-queue speedup: %.1fx\n\n",
                fifo_total / priority_total);
  }
  std::printf(
      "Shape check: the whole gap sits in the Voronoi-cell phase; the\n"
      "speedup factor varies per graph (paper: 3.5x-13.1x) because it\n"
      "depends on topology and weight spread.\n");
  return 0;
}
