#include "netlist/blif_io.hpp"

#include <bit>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "netlist/gate_graph.hpp"

namespace xsfq {
namespace {

using net_id = gate_graph::net_id;

/// ' ' and '\t' '\n' '\v' '\f' '\r', as in the C locale.
bool is_space(char c) {
  return c == ' ' || static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
}

bool continues(std::string_view line) {
  return !line.empty() && (line.back() == '\\' || line.ends_with("\\\r"));
}

/// Splits the text into logical lines: a line ending in '\' continues on
/// the next one.  Physical lines are views into the text; a continued line
/// is joined into storage of its own, kept until the read ends.
class line_splitter {
public:
  line_splitter(std::string_view text, const gate_graph& graph)
      : p_(text.data()),
        end_(text.data() + text.size()),
        nul_(static_cast<const char*>(
            std::memchr(text.data(), '\0', text.size()))),
        graph_(graph) {}

  /// The next line holding a token, split into `tokens`; false at the end.
  bool next(std::vector<std::string_view>& tokens) {
    std::string_view line;
    while (physical(line)) {
      if (continues(line)) line = join(line);
      tokens.clear();
      for (std::size_t i = 0; i < line.size();) {
        if (is_space(line[i])) {
          ++i;
          continue;
        }
        std::size_t j = i;
        while (j < line.size() && !is_space(line[j])) ++j;
        tokens.push_back(line.substr(i, j - i));
        i = j;
      }
      if (!tokens.empty()) return true;
    }
    return false;
  }

  /// Number of the last physical line read.
  [[nodiscard]] std::size_t line() const { return line_; }

private:
  /// The next physical line without its comment; false at the end.
  bool physical(std::string_view& line) {
    if (p_ >= end_) return false;
    ++line_;
    auto* eol = static_cast<const char*>(std::memchr(p_, '\n', end_ - p_));
    if (eol == nullptr) eol = end_;
    line = std::string_view(p_, static_cast<std::size_t>(eol - p_));
    p_ = eol == end_ ? end_ : eol + 1;
    if (nul_ != nullptr && nul_ < eol) graph_.fail(line_, "NUL byte in input");
    line = line.substr(0, line.find('#'));
    return true;
  }

  std::string_view join(std::string_view first) {
    std::string& joined = joined_.emplace_back(first);
    joined.resize(joined.find_last_of('\\'));
    std::string_view more;
    while (physical(more)) {
      joined += more;
      if (!continues(joined)) break;
      joined.resize(joined.find_last_of('\\'));
    }
    return joined;
  }

  const char* p_;
  const char* end_;
  const char* nul_;  ///< first NUL byte of the text, if any
  const gate_graph& graph_;
  std::size_t line_ = 0;
  std::deque<std::string> joined_;  ///< stable: names may point into it
};

/// One .names block being read.  Its cover lowers cube by cube: a '0'
/// literal becomes an inverter and a cube of two or more literals an AND,
/// both on anonymous helper nets; when the block closes, the output gate
/// ORs the cubes (NOR for an offset cover), buffers or inverts a single
/// one, or is a constant.
class cover {
public:
  void open(gate_graph& graph, std::span<const std::string_view> nets,
            std::size_t line) {
    inputs_.clear();
    for (const auto name : nets.first(nets.size() - 1)) {
      inputs_.push_back(graph.net(name, line));
    }
    output_name_ = nets.back();
    output_ = graph.net(output_name_, line);
    line_ = line;
    bit_ = 0;
    constant_ = false;
    products_.clear();
    open_ = true;
  }

  [[nodiscard]] bool is_open() const { return open_; }

  void add_cube(gate_graph& graph, std::span<const std::string_view> tokens,
                std::size_t line) {
    const bool nullary = inputs_.empty();
    if (tokens.size() != (nullary ? 1u : 2u)) {
      graph.fail(line, nullary ? "bad constant cover" : "bad cover line");
    }
    const std::string_view bit = tokens.back();
    if (bit != "0" && bit != "1") {
      graph.fail(line, nullary ? "constant cover must be 0 or 1"
                               : "output bit must be 0 or 1");
    }
    if (bit_ != 0 && bit[0] != bit_) {
      graph.fail(line, "cover mixes output bits 0 and 1 in .names " +
                           std::string(output_name_));
    }
    bit_ = bit[0];
    if (nullary) return;

    const std::string_view mask = tokens.front();
    if (mask.size() != inputs_.size()) {
      graph.fail(line,
                 "cover width mismatch in .names " + std::string(output_name_));
    }
    for (const char c : mask) {
      if (c != '0' && c != '1' && c != '-') {
        graph.fail(line, "bad cover character");
      }
    }
    if (constant_) return;  // an earlier cube covers everything
    literals_.clear();
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (mask[i] == '-') continue;
      net_id n = inputs_[i];
      if (mask[i] == '0') {
        n = graph.anonymous_net();
        graph.add_gate(gate_kind::inverter, {&inputs_[i], 1}, n, false, line);
      }
      literals_.push_back(n);
    }
    if (literals_.empty()) {
      constant_ = true;
    } else if (literals_.size() == 1) {
      products_.push_back(literals_.front());
    } else {
      products_.push_back(graph.anonymous_net());
      graph.add_gate(gate_kind::and_gate, literals_, products_.back(), false,
                     line);
    }
  }

  void close(gate_graph& graph) {
    if (!open_) return;
    open_ = false;
    const bool onset = bit_ != '0';
    gate_kind kind = onset ? gate_kind::or_gate : gate_kind::nor_gate;
    std::span<const net_id> fanins = products_;
    if (inputs_.empty()) {
      kind = bit_ == '1' ? gate_kind::constant1 : gate_kind::constant0;
    } else if (constant_) {
      kind = onset ? gate_kind::constant1 : gate_kind::constant0;
    } else if (products_.empty()) {
      kind = onset ? gate_kind::constant0 : gate_kind::constant1;
    } else if (products_.size() == 1) {
      kind = onset ? gate_kind::buffer : gate_kind::inverter;
    }
    if (kind == gate_kind::constant0 || kind == gate_kind::constant1) {
      fanins = {};
    }
    graph.add_gate(kind, fanins, output_, false, line_);
  }

private:
  bool open_ = false;
  std::vector<net_id> inputs_;
  net_id output_ = 0;
  std::string_view output_name_;
  std::size_t line_ = 0;   ///< the .names line
  char bit_ = 0;           ///< output bit of the cubes; 0 before the first
  bool constant_ = false;  ///< a cube without literals was read
  std::vector<net_id> literals_;  ///< reused per cube
  std::vector<net_id> products_;
};

}  // namespace

aig read_blif(std::string_view text) {
  gate_graph graph("blif", text.size());
  line_splitter lines(text, graph);
  std::vector<std::string_view> tokens;
  cover block;
  while (lines.next(tokens)) {
    const std::size_t n = lines.line();
    for (const auto t : tokens) {
      if (t.size() > gate_graph::max_name_length) {
        graph.fail(n, "token exceeds " +
                          std::to_string(gate_graph::max_name_length) +
                          " characters");
      }
    }
    const std::string_view head = tokens.front();
    const auto args = std::span(tokens).subspan(1);
    if (head[0] != '.') {
      if (!block.is_open()) graph.fail(n, "cover line outside .names");
      block.add_cube(graph, tokens, n);
      continue;
    }
    block.close(graph);
    if (head == ".model") {
      // The AIG carries no model name.
    } else if (head == ".inputs") {
      for (const auto name : args) graph.add_input(graph.net(name, n), n);
    } else if (head == ".outputs") {
      for (const auto name : args) graph.add_output(graph.net(name, n));
    } else if (head == ".names") {
      if (args.empty()) graph.fail(n, ".names needs an output");
      block.open(graph, args, n);
    } else if (head == ".latch") {
      if (args.size() < 2) graph.fail(n, ".latch needs input output");
      // Optional fields: [<type> <control>] [<init-val>]; 1 sets the
      // initial value, 0/2/3 (don't care, unknown) leave it 0.
      const bool init = args.size() >= 3 && args.back() == "1";
      const net_id input = graph.net(args[0], n);
      graph.add_gate(gate_kind::dff, {&input, 1}, graph.net(args[1], n), init,
                     n);
    } else if (head == ".end") {
      break;
    } else {
      graph.fail(n, "unsupported directive " + std::string(head));
    }
  }
  block.close(graph);
  return graph.lower();
}

void write_blif(const netlist& circuit, std::ostream& os) {
  os << ".model " << circuit.name() << "\n.inputs";
  for (const auto in : circuit.inputs()) {
    os << ' ' << circuit.net_name(in);
  }
  os << "\n.outputs";
  for (const auto out : circuit.outputs()) {
    os << ' ' << circuit.net_name(out);
  }
  os << '\n';

  for (const auto& g : circuit.gates()) {
    if (g.kind == gate_kind::dff) {
      os << ".latch " << circuit.net_name(g.fanins.at(0)) << ' '
         << circuit.net_name(g.output) << ' ' << (g.init ? 1 : 0) << '\n';
      continue;
    }
    os << ".names";
    for (const auto f : g.fanins) os << ' ' << circuit.net_name(f);
    os << ' ' << circuit.net_name(g.output) << '\n';
    const std::size_t arity = g.fanins.size();
    switch (g.kind) {
      case gate_kind::constant0:
        break;  // empty cover = constant 0
      case gate_kind::constant1:
        os << "1\n";
        break;
      case gate_kind::buffer:
        os << "1 1\n";
        break;
      case gate_kind::inverter:
        os << "0 1\n";
        break;
      case gate_kind::and_gate:
        os << std::string(arity, '1') << " 1\n";
        break;
      case gate_kind::nand_gate:
        os << std::string(arity, '1') << " 0\n";
        break;
      case gate_kind::or_gate:
        for (std::size_t i = 0; i < arity; ++i) {
          std::string mask(arity, '-');
          mask[i] = '1';
          os << mask << " 1\n";
        }
        break;
      case gate_kind::nor_gate:
        os << std::string(arity, '0') << " 1\n";
        break;
      case gate_kind::xor_gate:
      case gate_kind::xnor_gate: {
        if (arity > 16) {
          throw std::invalid_argument("blif: XOR arity too large to expand");
        }
        const bool odd_wanted = g.kind == gate_kind::xor_gate;
        for (std::uint32_t m = 0; m < (1u << arity); ++m) {
          const bool odd = (std::popcount(m) & 1) != 0;
          if (odd != odd_wanted) continue;
          std::string mask(arity, '0');
          for (std::size_t i = 0; i < arity; ++i) {
            if ((m >> i) & 1u) mask[i] = '1';
          }
          os << mask << " 1\n";
        }
        break;
      }
      case gate_kind::mux_gate:
        os << "11- 1\n0-1 1\n";
        break;
      case gate_kind::dff:
        break;  // handled above
    }
  }
  os << ".end\n";
}

std::string write_blif_string(const netlist& circuit) {
  std::ostringstream os;
  write_blif(circuit, os);
  return os.str();
}

void write_blif_file(const netlist& circuit, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::invalid_argument("blif: cannot open " + path);
  write_blif(circuit, os);
}

}  // namespace xsfq
