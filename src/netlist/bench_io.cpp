#include "netlist/bench_io.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "netlist/gate_graph.hpp"

namespace xsfq {
namespace {

constexpr auto npos = std::string_view::npos;

// Lines and their fields are short: plain loops beat library calls here.

bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

std::string_view trim(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && is_blank(s[begin])) ++begin;
  while (end > begin && is_blank(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::size_t find(std::string_view s, char c) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == c) return i;
  }
  return npos;
}

std::size_t rfind(std::string_view s, char c) {
  for (std::size_t i = s.size(); i-- > 0;) {
    if (s[i] == c) return i;
  }
  return npos;
}

/// True when `s` starts with `prefix` (upper case) in any letter case.
bool starts_with_nocase(std::string_view s, std::string_view prefix) {
  if (s.size() < prefix.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    char c = s[i];
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    if (c != prefix[i]) return false;
  }
  return true;
}

bool is_kind(std::string_view name, std::string_view upper) {
  return name.size() == upper.size() && starts_with_nocase(name, upper);
}

gate_kind kind_from_name(const gate_graph& graph, std::string_view name,
                         std::size_t line) {
  if (is_kind(name, "AND")) return gate_kind::and_gate;
  if (is_kind(name, "OR")) return gate_kind::or_gate;
  if (is_kind(name, "NAND")) return gate_kind::nand_gate;
  if (is_kind(name, "NOR")) return gate_kind::nor_gate;
  if (is_kind(name, "XOR")) return gate_kind::xor_gate;
  if (is_kind(name, "XNOR")) return gate_kind::xnor_gate;
  if (is_kind(name, "NOT") || is_kind(name, "INV")) return gate_kind::inverter;
  if (is_kind(name, "BUF") || is_kind(name, "BUFF")) return gate_kind::buffer;
  if (is_kind(name, "MUX")) return gate_kind::mux_gate;
  if (is_kind(name, "DFF")) return gate_kind::dff;
  if (is_kind(name, "CONST0") || is_kind(name, "GND")) {
    return gate_kind::constant0;
  }
  if (is_kind(name, "CONST1") || is_kind(name, "VDD")) {
    return gate_kind::constant1;
  }
  graph.fail(line, "unknown gate type '" + std::string(name) + "'");
}

std::string_view checked_name(const gate_graph& graph, std::string_view name,
                              std::size_t line) {
  if (name.size() > gate_graph::max_name_length) {
    graph.fail(line, "identifier exceeds " +
                         std::to_string(gate_graph::max_name_length) +
                         " characters");
  }
  return name;
}

/// Reads one non-blank, comment-free line into the graph.
class line_reader {
public:
  explicit line_reader(gate_graph& graph) : graph_(graph) {}

  void read(std::string_view line, std::size_t n) {
    if (starts_with_nocase(line, "INPUT(") ||
        starts_with_nocase(line, "OUTPUT(")) {
      const auto open = find(line, '(');
      const auto close = rfind(line, ')');
      if (close == npos || close < open) graph_.fail(n, "missing ')'");
      const auto name = trim(line.substr(open + 1, close - open - 1));
      if (name.empty()) graph_.fail(n, "empty port name");
      const auto net = graph_.net(checked_name(graph_, name, n), n);
      if (open == 5) {
        graph_.add_input(net, n);
      } else {
        graph_.add_output(net);
      }
      return;
    }

    const auto eq = find(line, '=');
    if (eq == npos) graph_.fail(n, "expected '='");
    const auto target = checked_name(graph_, trim(line.substr(0, eq)), n);
    const auto rhs = trim(line.substr(eq + 1));
    const auto open = find(rhs, '(');
    const auto close = rfind(rhs, ')');
    if (open == npos || close == npos || close < open) {
      graph_.fail(n, "expected GATE(args)");
    }
    const gate_kind kind = kind_from_name(graph_, trim(rhs.substr(0, open)), n);
    args_.clear();
    for (auto rest = rhs.substr(open + 1, close - open - 1);;) {
      const auto comma = find(rest, ',');
      const auto arg = trim(rest.substr(0, comma));
      if (!arg.empty()) args_.push_back(checked_name(graph_, arg, n));
      if (comma == npos) break;
      rest.remove_prefix(comma + 1);
    }

    bool init = false;
    if (kind == gate_kind::dff) {
      if (args_.empty() || args_.size() > 2) {
        graph_.fail(n, "DFF takes 1 or 2 arguments");
      }
      if (args_.size() == 2) {
        if (args_[1] != "0" && args_[1] != "1") {
          graph_.fail(n, "DFF init must be 0 or 1");
        }
        init = args_[1] == "1";
        args_.pop_back();
      }
    } else {
      const std::size_t arity = args_.size();
      const bool unary =
          kind == gate_kind::inverter || kind == gate_kind::buffer;
      const bool nullary =
          kind == gate_kind::constant0 || kind == gate_kind::constant1;
      if (unary && arity != 1) graph_.fail(n, "unary gate needs 1 input");
      if (nullary && arity != 0) graph_.fail(n, "constant takes no input");
      if (kind == gate_kind::mux_gate && arity != 3) {
        graph_.fail(n, "MUX needs 3 inputs (sel, then, else)");
      }
      if (!unary && !nullary && kind != gate_kind::mux_gate && arity < 2) {
        graph_.fail(n, "gate needs at least 2 inputs");
      }
    }
    fanins_.clear();
    for (const auto arg : args_) fanins_.push_back(graph_.net(arg, n));
    graph_.add_gate(kind, fanins_, graph_.net(target, n), init, n);
  }

private:
  gate_graph& graph_;
  std::vector<std::string_view> args_;     ///< reused across lines
  std::vector<gate_graph::net_id> fanins_;  ///< reused across lines
};

}  // namespace

aig read_bench(std::string_view text) {
  gate_graph graph("bench", text.size());
  line_reader reader(graph);
  const char* const end = text.data() + text.size();
  const auto* const nul =
      static_cast<const char*>(std::memchr(text.data(), '\0', text.size()));
  std::size_t n = 0;
  for (const char* p = text.data(); p < end;) {
    ++n;
    auto* eol = static_cast<const char*>(std::memchr(p, '\n', end - p));
    if (eol == nullptr) eol = end;
    std::string_view line(p, static_cast<std::size_t>(eol - p));
    p = eol == end ? end : eol + 1;
    if (nul != nullptr && nul < eol) graph.fail(n, "NUL byte in input");
    if (const auto* hash = static_cast<const char*>(
            std::memchr(line.data(), '#', line.size()))) {
      line = line.substr(0, static_cast<std::size_t>(hash - line.data()));
    }
    line = trim(line);
    if (!line.empty()) reader.read(line, n);
  }
  return graph.lower();
}

void write_bench(const netlist& circuit, std::ostream& os) {
  os << "# " << circuit.name() << " — written by xsfq\n";
  for (const auto in : circuit.inputs()) {
    os << "INPUT(" << circuit.net_name(in) << ")\n";
  }
  for (const auto out : circuit.outputs()) {
    os << "OUTPUT(" << circuit.net_name(out) << ")\n";
  }
  for (const auto& g : circuit.gates()) {
    os << circuit.net_name(g.output) << " = " << gate_kind_name(g.kind) << "(";
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      if (i) os << ", ";
      os << circuit.net_name(g.fanins[i]);
    }
    if (g.kind == gate_kind::dff && g.init) os << ", 1";
    os << ")\n";
  }
}

std::string write_bench_string(const netlist& circuit) {
  std::ostringstream os;
  write_bench(circuit, os);
  return os.str();
}

void write_bench_file(const netlist& circuit, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::invalid_argument("bench: cannot open " + path);
  write_bench(circuit, os);
}

}  // namespace xsfq
