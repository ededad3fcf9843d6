/// The paper's running example as a guided tour: one full adder taken from
/// a NAND netlist through every optimization of Section 3, printing the
/// cell/splitter/JJ ledger at each step (Figures 4 and 5).
#include <iostream>

#include "aig/simulate.hpp"
#include "core/dual_rail.hpp"
#include "core/mapper.hpp"
#include "netlist/bench_io.hpp"
#include "opt/script.hpp"

using namespace xsfq;

namespace {

aig nand_full_adder() {
  // The Sec. 3.1.1 starting point: 9 NAND gates.
  const char* bench =
      "INPUT(a)\nINPUT(b)\nINPUT(cin)\nOUTPUT(s)\nOUTPUT(cout)\n"
      "n1 = NAND(a, b)\nn2 = NAND(a, n1)\nn3 = NAND(b, n1)\n"
      "x  = NAND(n2, n3)\nn4 = NAND(x, cin)\nn5 = NAND(x, n4)\n"
      "n6 = NAND(cin, n4)\ns  = NAND(n5, n6)\ncout = NAND(n1, n4)\n";
  return read_bench(bench);
}

void report(const char* stage, const aig& g, polarity_mode mode) {
  mapping_params p;
  p.polarity = mode;
  const auto m = map_to_xsfq(g, p);
  std::cout << "  " << stage << ": " << g.num_gates() << " AIG nodes -> "
            << m.stats.la_cells + m.stats.fa_cells << " LA/FA cells, "
            << m.stats.splitters << " splitters, " << m.stats.jj << "/"
            << m.stats.jj_ptl << " JJs\n";
}

}  // namespace

int main() {
  std::cout << "== Full-adder tour (the paper's Section 3 walk-through) ==\n\n";
  const aig nands = nand_full_adder();

  std::cout << "Step 1 — direct RTL-to-xSFQ (Sec. 3.1.1): every gate becomes\n"
            << "an LA-FA pair; inversion is a free wire twist.\n";
  report("9-NAND netlist, direct", nands, polarity_mode::direct_dual_rail);

  std::cout << "\nStep 2 — AIG optimization (Sec. 3.1.3): LA-FA pairs are\n"
            << "isomorphic to AIG nodes, so off-the-shelf rewriting applies.\n";
  const aig optimized = optimize(nands);
  report("optimized AIG, pairs", optimized, polarity_mode::direct_dual_rail);

  std::cout << "\nStep 3 — polarity relaxation at the outputs (Sec. 3.1.4):\n"
            << "primary outputs need one rail; demands propagate inward.\n";
  report("positive outputs", optimized, polarity_mode::positive_outputs);

  std::cout << "\nStep 4 — output phase assignment (Sec. 3.1.5): choosing\n"
            << "negative polarities domino-style minimizes duplicated rails.\n";
  report("optimized polarity", optimized, polarity_mode::optimized);

  // Per-node rail demands, to visualize what the optimizer did.
  const auto negate = optimize_co_polarities(optimized);
  const auto demands = compute_rail_demands(optimized, negate);
  std::cout << "\nRail demands per AIG node (P = LA cell, N = FA cell):\n  ";
  optimized.foreach_gate([&](aig::node_index n) {
    std::cout << "n" << n << ":"
              << (demands.positive(n) ? "P" : "")
              << (demands.negative(n) ? "N" : "") << " ";
  });
  std::cout << "\n\n(paper: 18 cells direct -> 14 after AIG opt -> 11 with\n"
            << " positive outputs -> 10 with the Fig. 5ii phase choice)\n";
  return 0;
}
