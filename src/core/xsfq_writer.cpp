#include "core/xsfq_writer.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <vector>

namespace xsfq {
namespace {

/// The first pass: adds up the length of everything written.
struct measure {
  std::size_t size = 0;

  void text(std::string_view s) { size += s.size(); }
  void ch(char) { ++size; }
  void num(std::uint64_t v) {
    ++size;
    for (; v >= 10; v /= 10) ++size;
  }
};

/// The second pass: writes into a buffer the first pass sized exactly.
struct fill {
  char* pos;
  char* end;

  void text(std::string_view s) {
    std::memcpy(pos, s.data(), s.size());
    pos += s.size();
  }
  void ch(char c) { *pos++ = c; }
  void num(std::uint64_t v) { pos = std::to_chars(pos, end, v).ptr; }
};

/// The wire a port drives: `w<element>`, or `w<element>_<port>` for port 1.
struct wire {
  port_ref ref;
};

/// A name as a Verilog identifier: every character outside [A-Za-z0-9_]
/// becomes `_`, and `n_` goes in front of an empty name or a leading digit.
struct identifier {
  std::string_view name;
};

template <class Out, class T>
void put_one(Out& out, const T& v) {
  if constexpr (std::is_same_v<T, char>) {
    out.ch(v);
  } else if constexpr (std::is_integral_v<T>) {
    static_assert(!std::is_same_v<T, bool>);
    out.num(static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_same_v<T, wire>) {
    out.ch('w');
    out.num(v.ref.element);
    if (v.ref.port) {
      out.ch('_');
      out.num(v.ref.port);
    }
  } else if constexpr (std::is_same_v<T, identifier>) {
    if (v.name.empty() || std::isdigit(static_cast<unsigned char>(v.name[0]))) {
      out.text("n_");
    }
    for (const char c : v.name) {
      out.ch(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ? c : '_');
    }
  } else {
    out.text(std::string_view(v));
  }
}

template <class Out, class... T>
void put(Out& out, const T&... v) {
  (put_one(out, v), ...);
}

/// Runs `emit` once to measure and once to write.
template <class Emit>
std::string render(const Emit& emit) {
  measure m;
  emit(m);
  std::string out(m.size, '\0');
  fill f{out.data(), out.data() + out.size()};
  emit(f);
  return out;
}

const char* rail_name(bool rail) { return rail ? "negative" : "positive"; }

template <class Out>
void emit_verilog(Out& out, const mapping_result& mapped,
                  std::string_view module_name,
                  const std::vector<const port_ref*>& feedback) {
  const auto& elems = mapped.netlist.elements();
  put(out,
      "// Generated by xsfq: clock-free alternating-logic netlist.\n"
      "// Cells reference the Table 2 xSFQ library (LA, FA, SPLIT, DROC,\n"
      "// DROC_P).  `clk` drives the DROC synchronous ports only; `trg`\n"
      "// is the one-shot initialization trigger (Sec. 3.2).\n"
      "module ",
      identifier{module_name}, " (\n  input  wire clk,\n  input  wire trg");
  for (const auto& e : elems) {
    if (e.kind == element_kind::input_rail) {
      put(out, ",\n  input  wire ", identifier{e.name});
    }
  }
  for (const auto& e : elems) {
    if (e.kind == element_kind::output_port) {
      put(out, ",\n  output wire ", identifier{e.name});
    }
  }
  put(out, "\n);\n\n");

  for (std::uint32_t i = 0; i < elems.size(); ++i) {
    const auto& e = elems[i];
    const wire y{{i, 0}};
    const wire z{{i, 1}};
    switch (e.kind) {
      case element_kind::input_rail:
        put(out, "  wire ", y, " = ", identifier{e.name}, ";  // ",
            rail_name(e.rail), " rail\n");
        break;
      case element_kind::const_rail:
        put(out, "  wire ", y, ";  // constant ", rail_name(e.rail),
            " rail (phase generator)\n");
        break;
      case element_kind::la:
      case element_kind::fa:
        put(out, "  ", e.kind == element_kind::la ? "LA" : "FA", " u", i,
            " (.a(", wire{e.fanin0}, "), .b(", wire{e.fanin1}, "), .y(", y,
            "));\n");
        break;
      case element_kind::splitter:
        put(out, "  SPLIT u", i, " (.a(", wire{e.fanin0}, "), .y(", y,
            "), .z(", z, "));\n");
        break;
      case element_kind::droc:
      case element_kind::droc_preload:
        put(out, "  ", e.kind == element_kind::droc ? "DROC" : "DROC_P", " u",
            i, " (.d(");
        // A feedback DROC's data arrives through the register's feedback
        // arc; one with no recorded arc keeps an empty `.d()`.  The table
        // is empty when no arc was recorded at all, which a result read
        // back from the disk tier may still pair with a feedback DROC.
        if (!e.feedback_input) {
          put(out, wire{e.fanin0});
        } else if (i < feedback.size() && feedback[i] != nullptr) {
          put(out, wire{*feedback[i]});
        }
        put(out, "), .clk(clk", e.feedback_input ? "), .trg(trg" : "",
            "), .qp(", y, "), .qn(", z, "));");
        if (e.pipeline_rank) put(out, "  // rank ", e.pipeline_rank);
        put(out, '\n');
        break;
      case element_kind::output_port:
        put(out, "  assign ", identifier{e.name}, " = ", wire{e.fanin0},
            ";  // ", rail_name(e.rail), " polarity chosen\n");
        break;
    }
  }
  put(out, "\nendmodule\n");
}

template <class Out>
void emit_dot(Out& out, const mapping_result& mapped,
              std::string_view graph_name) {
  const auto& nl = mapped.netlist;
  put(out, "digraph ", graph_name,
      " {\n  rankdir=LR;\n  node [shape=box,fontsize=10];\n");
  for (std::uint32_t i = 0; i < nl.size(); ++i) {
    const auto& e = nl.element(i);
    put(out, "  e", i, " [label=\"", element_kind_name(e.kind));
    if (!e.name.empty()) put(out, "\\n", std::string_view(e.name));
    if (e.pipeline_rank) put(out, "\\nrank ", e.pipeline_rank);
    put(out, '"');
    if (e.kind == element_kind::la) {
      put(out, ",style=filled,fillcolor=lightblue");
    } else if (e.kind == element_kind::fa) {
      put(out, ",style=filled,fillcolor=lightsalmon");
    } else if (e.kind == element_kind::droc ||
               e.kind == element_kind::droc_preload) {
      put(out, ",style=filled,fillcolor=lightgreen");
    }
    put(out, "];\n");
    const auto edge = [&](port_ref r) {
      put(out, "  e", r.element, " -> e", i);
      if (r.port) put(out, " [label=\"p", r.port, "\"]");
      put(out, ";\n");
    };
    switch (e.kind) {
      case element_kind::la:
      case element_kind::fa:
        edge(e.fanin0);
        edge(e.fanin1);
        break;
      case element_kind::splitter:
      case element_kind::output_port:
        edge(e.fanin0);
        break;
      case element_kind::droc:
      case element_kind::droc_preload:
        if (!e.feedback_input) edge(e.fanin0);
        break;
      default:
        break;
    }
  }
  for (const auto& [droc, driver] : mapped.register_feedback) {
    put(out, "  e", driver.element, " -> e", droc,
        " [style=dashed,label=\"fb\"];\n");
  }
  put(out, "}\n");
}

}  // namespace

std::string write_xsfq_verilog_string(const mapping_result& mapped,
                                      const std::string& module_name) {
  // Feedback arcs: boundary DROC -> driving port (the last arc recorded for
  // a DROC wins).  Combinational netlists have none and skip the table.
  std::vector<const port_ref*> feedback;
  if (!mapped.register_feedback.empty()) {
    feedback.resize(mapped.netlist.size());
    for (const auto& [droc, driver] : mapped.register_feedback) {
      feedback[droc] = &driver;
    }
  }
  return render([&](auto& out) {
    emit_verilog(out, mapped, module_name, feedback);
  });
}

std::string write_xsfq_dot_string(const mapping_result& mapped,
                                  const std::string& graph_name) {
  return render([&](auto& out) { emit_dot(out, mapped, graph_name); });
}

}  // namespace xsfq
