#pragma once
/// \file blif_io.hpp
/// \brief Reader/writer for the Berkeley Logic Interchange Format (BLIF).
///
/// BLIF is the distribution format of the EPFL benchmark suite used in the
/// paper's evaluation (Tables 3 and 4).  Supported subset: .model (its name
/// is not kept), .inputs, .outputs, .names (SOP covers with '-'
/// don't-cares), .latch (type and control fields optional; init 1 sets the
/// initial value, 0/2/3 leave it 0), .end (nothing after it is read).
/// '#' starts a comment and a line ending in '\' continues on the next.
///
/// The reader makes one pass over the text: lines and tokens are views into
/// it, net names are interned to dense ids without being copied, and gates
/// go into flat arrays (netlist/gate_graph.hpp) that lower straight into
/// the AIG.  A cover lowers while it is read, cube by cube: a '0' literal
/// becomes an inverter and a cube of two or more literals an AND, both on
/// anonymous helper nets that no name can reach; the block's output then
/// ORs the cubes (NOR for an offset cover), buffers or inverts a single
/// cube, or is a constant (no cube, or a cube of only '-').  A gate lowers
/// in sweep s(g) = max(1, max over its fanin gates h of s(h) + [h listed
/// after g]) and in order within a sweep; one topological pass finds the
/// sweeps, so any listing order reads in linear time.
///
/// Errors: malformed input throws std::invalid_argument reading
/// "blif: line N: <what>" — unknown directives, cover lines outside
/// .names, wrong token counts, cover widths or characters, output bits
/// other than 0/1 or mixed within one cover, tokens over 4096 characters,
/// NUL bytes, nets driven twice; an undriven net names the line that first
/// uses it, a combinational cycle a gate on it.

#include <iosfwd>
#include <string>
#include <string_view>

#include "aig/aig.hpp"
#include "netlist/netlist.hpp"

namespace xsfq {

/// Reads BLIF text into an AIG.
aig read_blif(std::string_view text);

/// Writes the netlist as BLIF (.names covers; DFFs as .latch).
void write_blif(const netlist& circuit, std::ostream& os);
std::string write_blif_string(const netlist& circuit);
void write_blif_file(const netlist& circuit, const std::string& path);

}  // namespace xsfq
