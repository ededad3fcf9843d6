#pragma once
/// \file bench_io.hpp
/// \brief Reader/writer for the ISCAS BENCH netlist format.
///
/// BENCH is the distribution format of the ISCAS85/ISCAS89 benchmark suites
/// used in the paper's evaluation (Sec. 4.1).  The dialect accepted here:
///
///   INPUT(a)  OUTPUT(f)
///   f = AND(a, b)          # also OR/NAND/NOR/XOR/XNOR/NOT/BUFF/MUX
///   q = DFF(d)             # optional DFF(d, 1) sets the initial value
///   # comments and blank lines are ignored
///
/// Keywords and gate names are case-insensitive (INV, BUF, CONST0/GND and
/// CONST1/VDD are accepted too); empty arguments are skipped.  Gates may be
/// listed in any order (forward references are legal).
///
/// The reader makes one pass over the text: each line is a view into it,
/// net names are interned to dense ids without being copied, and gates go
/// into flat arrays (netlist/gate_graph.hpp) that lower straight into the
/// AIG.  A gate lowers in sweep s(g) = max(1, max over its fanin gates h of
/// s(h) + [h listed after g]) and in file order within a sweep, so a file
/// in topological order lowers in file order; one topological pass finds
/// the sweeps, so any listing order reads in linear time.
///
/// Errors: malformed input throws std::invalid_argument reading
/// "bench: line N: <what>" — bad syntax, unknown gates, wrong arity, names
/// over 4096 characters, NUL bytes, nets driven twice; an undriven net
/// names the line that first uses it, a combinational cycle a gate on it.

#include <iosfwd>
#include <string>
#include <string_view>

#include "aig/aig.hpp"
#include "netlist/netlist.hpp"

namespace xsfq {

/// Reads BENCH text into an AIG.
aig read_bench(std::string_view text);

/// Writes a netlist in BENCH format (multi-input gates emitted natively).
void write_bench(const netlist& circuit, std::ostream& os);
std::string write_bench_string(const netlist& circuit);
void write_bench_file(const netlist& circuit, const std::string& path);

}  // namespace xsfq
