/// Reproduces Table 5: pipelining the c6288 16x16 multiplier with 0, 1 and 2
/// architectural stages — JJ count, LA/FA cells, duplication, DROC ranks
/// (plain/preloaded), logical depth (without/with splitters) and the circuit
/// vs architectural clock frequencies.
/// The multiplier is optimized once; the three pipeline mappings then run
/// concurrently through the flow batch_runner (results aggregated in input
/// order, so the table is identical at any thread count).
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace xsfq;
using namespace xsfq::bench;

int main(int argc, char** argv) {
  unsigned threads = 3;
  if (argc > 1) {
    const auto parsed = flow::parse_thread_count(argv[1]);
    if (!parsed) {
      std::cerr << "usage: " << argv[0] << " [threads (0 = hardware)]\n";
      return 2;
    }
    threads = *parsed;
  }
  std::cout << "== Table 5: c6288 pipelining sweep ==\n\n";

  struct paper_row {
    const char* stages;
    const char* jj;
    const char* cells;
    const char* dup;
    const char* droc;
    const char* depth;
    const char* freq;
  };
  const paper_row paper[] = {
      {"0/0", "25853", "3707", "97%", "0/0", "90/170", "0.9/0.5"},
      {"1/2", "27312", "3669", "95%", "91/32", "46/90", "1.6/0.8"},
      {"2/4", "29399", "3572", "89%", "171/123", "24/48", "3.0/1.5"}};

  const aig g = optimize(benchgen::make_benchmark("c6288"));
  std::cout << "c6288 (16x16 array multiplier): " << g.num_gates()
            << " AIG nodes after optimization, depth " << g.depth() << "\n\n";

  // One map-only flow per pipeline depth, all on the worker pool.
  flow::batch_runner runner(threads);
  std::vector<std::string> names;
  std::vector<std::function<flow::flow_result()>> jobs;
  for (unsigned k : {0u, 1u, 2u}) {
    names.push_back(std::to_string(k) + "/" + std::to_string(2 * k));
    jobs.push_back([&g, k] {
      flow::flow_options options;
      options.run_optimize = false;
      options.run_baseline = false;
      options.map.pipeline_stages = k;
      return flow::run_flow(g, "c6288", options);
    });
  }
  const auto report = runner.run_jobs(names, std::move(jobs));

  table_printer t({"Stages", "#JJ", "#LA/FA", "Dupl", "#DROC (w/o / w)",
                   "Depth", "Freq (GHz)", "Paper JJ", "Paper DROC",
                   "Paper depth", "Paper freq"});
  for (unsigned k : {0u, 1u, 2u}) {
    const auto& entry = report.entries[k];
    if (!entry.ok) {
      std::cerr << "flow failed for " << entry.name << ": " << entry.error
                << "\n";
      return 1;
    }
    const auto& st = entry.result.mapped.stats;
    t.add_row({entry.name, std::to_string(st.jj),
               std::to_string(st.la_cells + st.fa_cells),
               table_printer::percent(st.duplication),
               std::to_string(st.drocs_plain) + "/" +
                   std::to_string(st.drocs_preload),
               std::to_string(st.depth) + "/" +
                   std::to_string(st.depth_with_splitters),
               table_printer::fixed(st.circuit_ghz, 1) + "/" +
                   table_printer::fixed(st.architectural_ghz, 1),
               paper[k].jj, paper[k].droc, paper[k].depth, paper[k].freq});
  }
  t.print(std::cout);

  std::cout
      << "\nTrends reproduced: JJ grows sublinearly with DROC ranks (added\n"
         "cut points enable more polarity optimization), logical depth\n"
         "halves per rank pair, circuit frequency scales accordingly, and\n"
         "the architectural frequency is half the circuit frequency because\n"
         "each logical cycle spends an excite and a relax phase.\n";
  return 0;
}
