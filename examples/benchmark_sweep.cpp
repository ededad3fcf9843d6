/// Sweep every generated benchmark through the full flow and print a
/// one-line summary per circuit — the "whole paper at a glance" view.
/// The suite runs concurrently on the flow batch_runner; per-circuit rows
/// and the geomean are aggregated in input order, so the output is
/// independent of the worker count.
///
///   $ ./benchmark_sweep [suite] [threads]   (iscas85 | epfl | iscas89 | all)
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "benchgen/registry.hpp"
#include "flow/batch_runner.hpp"
#include "util/table_printer.hpp"

using namespace xsfq;

namespace {

const char* suite_name(benchgen::suite s) {
  switch (s) {
    case benchgen::suite::iscas85: return "iscas85";
    case benchgen::suite::epfl: return "epfl";
    case benchgen::suite::iscas89: return "iscas89";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "all";
  unsigned threads = 0;  // 0 = hardware concurrency
  if (argc > 2) {
    const auto parsed = flow::parse_thread_count(argv[2]);
    if (!parsed) {
      std::cerr << "usage: " << argv[0] << " [suite] [threads]\n";
      return 2;
    }
    threads = *parsed;
  }
  std::cout << "== Benchmark sweep (" << which << ") ==\n\n";

  std::vector<benchgen::benchmark_entry> selected;
  std::vector<std::string> names;
  for (const auto& entry : benchgen::all_benchmarks()) {
    if (which != "all" && which != suite_name(entry.which_suite)) continue;
    if (entry.name == "voter" || entry.name == "sin") continue;  // slow
    selected.push_back(entry);
    names.push_back(entry.name);
  }

  const auto report = flow::run_batch(names, flow::flow_options{}, threads);

  table_printer t({"Circuit", "Suite", "PI/PO/FF", "AIG", "LA/FA", "Dupl",
                   "Splt", "DROC", "xSFQ JJ", "RSFQ JJ", "Savings"});
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const auto& entry = report.entries[i];
    if (!entry.ok) {
      std::cerr << "flow failed for " << entry.name << ": " << entry.error
                << "\n";
      return 1;
    }
    const auto& r = entry.result;
    const aig& g = r.optimized;
    const auto& st = r.mapped.stats;
    const double savings = static_cast<double>(r.baseline.jj_without_clock) /
                           static_cast<double>(st.jj);
    t.add_row({entry.name, suite_name(selected[i].which_suite),
               std::to_string(g.num_pis()) + "/" +
                   std::to_string(g.num_pos()) + "/" +
                   std::to_string(g.num_registers()),
               std::to_string(g.num_gates()),
               std::to_string(st.la_cells + st.fa_cells),
               table_printer::percent(st.duplication),
               std::to_string(st.splitters),
               std::to_string(st.drocs_plain + st.drocs_preload),
               std::to_string(st.jj),
               std::to_string(r.baseline.jj_without_clock),
               table_printer::ratio(savings)});
  }
  t.print(std::cout);

  const auto summary = flow::summarize(report);
  if (summary.circuits > 0) {
    std::cout << "\nGeomean JJ savings over the clocked baseline: "
              << table_printer::ratio(summary.geomean_savings) << " across "
              << summary.circuits << " circuits (paper: >80% average JJ"
              << " reduction).\n"
              << report.threads << " worker threads: "
              << static_cast<long>(report.flow_ms_sum) << " ms of flow time in "
              << static_cast<long>(report.wall_ms) << " ms wall clock.\n";
  }
  return 0;
}
