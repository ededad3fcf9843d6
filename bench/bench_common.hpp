#pragma once
/// \file bench_common.hpp
/// \brief Shared helpers for the table/figure reproduction binaries.
///
/// Every binary regenerates one table or figure from the paper; paper-
/// reported values are printed next to our measured ones.  All flows are
/// deterministic.

#include <cstdio>
#include <string>

#include "baseline/rsfq.hpp"
#include "benchgen/registry.hpp"
#include "core/mapper.hpp"
#include "flow/batch_runner.hpp"
#include "flow/flow.hpp"
#include "opt/script.hpp"
#include "util/table_printer.hpp"

namespace xsfq::bench {

/// All flow setup goes through flow::run_flow / flow::batch_runner directly;
/// this header only keeps the hand-built example networks shared by the
/// figure benches.

/// The paper's 7-node full adder AIG (Figure 4).
inline aig paper_full_adder_aig() {
  aig g;
  const signal a = g.create_pi("a");
  const signal b = g.create_pi("b");
  const signal c = g.create_pi("cin");
  const signal n1 = g.create_and(a, b);
  const signal n2 = g.create_and(!a, !b);
  const signal n3 = g.create_and(!n1, !n2);
  const signal n4 = g.create_and(n3, c);
  const signal n5 = g.create_and(!n3, !c);
  g.create_po(g.create_and(!n4, !n5), "s");
  g.create_po(!g.create_and(!n1, !n4), "cout");
  return g;
}

/// Full adder as the paper's Sec. 3.1.1 9-NAND netlist.
inline aig nand9_full_adder_aig() {
  aig g;
  const signal a = g.create_pi("a");
  const signal b = g.create_pi("b");
  const signal c = g.create_pi("cin");
  const signal n1 = g.create_nand(a, b);
  const signal n2 = g.create_nand(a, n1);
  const signal n3 = g.create_nand(b, n1);
  const signal x = g.create_nand(n2, n3);  // a ^ b
  const signal n4 = g.create_nand(x, c);
  const signal n5 = g.create_nand(x, n4);
  const signal n6 = g.create_nand(c, n4);
  g.create_po(g.create_nand(n5, n6), "s");
  g.create_po(g.create_nand(n1, n4), "cout");
  return g;
}

}  // namespace xsfq::bench
