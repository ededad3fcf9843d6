#pragma once
/// \file xsfq_writer.hpp
/// \brief Structural-Verilog and DOT export of mapped xSFQ netlists.
///
/// The synthesis flow's hand-off artifact: every LA/FA/splitter/DROC element
/// becomes a cell instance referencing the Table 2 library (LA, FA, SPLIT,
/// DROC, DROC_P), so the output can enter a superconducting place-and-route
/// flow or be inspected graphically.
///
/// Each writer makes two passes over the netlist: the first adds up the
/// output's length, the second writes it into one string of exactly that
/// size.

#include <string>

#include "core/mapper.hpp"

namespace xsfq {

/// The mapped netlist as structural Verilog.  Register feedback arcs close
/// the loops; the trigger and clock are exposed as module ports.  The module
/// and port names are sanitized into Verilog identifiers.
std::string write_xsfq_verilog_string(const mapping_result& mapped,
                                      const std::string& module_name);

/// The mapped netlist as a Graphviz digraph (cells as boxes, rails as
/// edges; DROC ranks annotated).
std::string write_xsfq_dot_string(const mapping_result& mapped,
                                  const std::string& graph_name = "xsfq");

}  // namespace xsfq
