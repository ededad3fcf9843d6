#include "netlist/gate_graph.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

namespace xsfq {
namespace {

/// Multiply-xorshift over 8-byte words: names are short, so the table's
/// cost is this loop plus one probe.
std::uint32_t name_hash(std::string_view s) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull ^ s.size();
  const char* p = s.data();
  std::size_t n = s.size();
  const auto mix = [&h](std::uint64_t w) {
    h = (h ^ w) * 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  };
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, 8);
    mix(w);
  }
  if (n > 0) {
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < n; ++i) {
      w |= std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
    }
    mix(w);
  }
  h *= 0x94D049BB133111EBull;
  return static_cast<std::uint32_t>(h >> 32);
}

signal lower_gate(aig& g, gate_kind kind, std::span<const signal> ins) {
  switch (kind) {
    case gate_kind::constant0: return g.get_constant(false);
    case gate_kind::constant1: return g.get_constant(true);
    case gate_kind::buffer: return ins[0];
    case gate_kind::inverter: return !ins[0];
    case gate_kind::and_gate: return g.create_and_n(ins);
    case gate_kind::or_gate: return g.create_or_n(ins);
    case gate_kind::nand_gate: return !g.create_and_n(ins);
    case gate_kind::nor_gate: return !g.create_or_n(ins);
    case gate_kind::xor_gate: return g.create_xor_n(ins);
    case gate_kind::xnor_gate: return !g.create_xor_n(ins);
    case gate_kind::mux_gate: return g.create_mux(ins[0], ins[1], ins[2]);
    case gate_kind::dff: break;  // register outputs are created up front
  }
  throw std::logic_error("gate_graph: unexpected gate kind");
}

}  // namespace

gate_graph::gate_graph(const char* format, std::size_t text_bytes)
    : format_(format) {
  // About one net and one gate per 16 bytes of text (a BLIF cover's
  // helper gates included); the arrays grow past that.
  std::size_t capacity = 64;
  while (capacity < text_bytes / 8) capacity <<= 1;
  table_.resize(capacity);
  name_.reserve(capacity / 2);
  driver_.reserve(capacity / 2);
  first_line_.reserve(capacity / 2);
  gates_.reserve(capacity / 2);
  fanins_.reserve(capacity);
}

void gate_graph::fail(std::size_t line, const std::string& message) const {
  throw std::invalid_argument(std::string(format_) + ": line " +
                              std::to_string(line) + ": " + message);
}

gate_graph::net_id gate_graph::net(std::string_view name, std::size_t line) {
  const std::uint32_t h = name_hash(name);
  const std::size_t mask = table_.size() - 1;
  std::size_t i = h & mask;
  for (; table_[i].id_plus_one != 0; i = (i + 1) & mask) {
    const net_id id = table_[i].id_plus_one - 1;
    if (table_[i].hash == h && name_[id] == name) return id;
  }
  const auto id = static_cast<net_id>(name_.size());
  table_[i] = {h, id + 1};
  name_.push_back(name);
  driver_.push_back(undriven);
  first_line_.push_back(static_cast<std::uint32_t>(line));
  if (++num_named_ * 2 > table_.size()) grow_table();
  return id;
}

gate_graph::net_id gate_graph::anonymous_net() {
  const auto id = static_cast<net_id>(name_.size());
  name_.emplace_back();
  driver_.push_back(undriven);
  first_line_.push_back(0);
  return id;
}

void gate_graph::grow_table() {
  std::vector<slot> bigger(table_.size() * 2);
  const std::size_t mask = bigger.size() - 1;
  for (const slot& s : table_) {
    if (s.id_plus_one == 0) continue;
    std::size_t i = s.hash & mask;
    while (bigger[i].id_plus_one != 0) i = (i + 1) & mask;
    bigger[i] = s;
  }
  table_ = std::move(bigger);
}

void gate_graph::add_input(net_id n, std::size_t line) {
  if (driver_[n] != undriven) {
    fail(line, "input net already driven: " + std::string(name_[n]));
  }
  driver_[n] = primary_input;
  inputs_.push_back(n);
}

void gate_graph::add_gate(gate_kind kind, std::span<const net_id> fanins,
                          net_id out, bool init, std::size_t line) {
  if (driver_[out] != undriven) {
    fail(line, "net driven twice: " + std::string(name_[out]));
  }
  for (const net_id f : fanins) {
    if (driver_[f] == undriven) forward_refs_.push_back(f);
  }
  driver_[out] = static_cast<std::int32_t>(gates_.size());
  gates_.push_back({static_cast<std::uint32_t>(fanins_.size()),
                    static_cast<std::uint32_t>(fanins.size()), out,
                    static_cast<std::uint32_t>(line), kind, init});
  for (const net_id f : fanins) fanins_.push_back(f);
}

std::vector<std::uint32_t> gate_graph::lowering_order() const {
  const auto num_gates = static_cast<std::uint32_t>(gates_.size());
  // The combinational gate driving net f, or -1 (PI or register output).
  const auto comb_driver = [this](net_id f) -> std::int32_t {
    const std::int32_t d = driver_[f];
    return d >= 0 && gates_[d].kind != gate_kind::dff ? d : -1;
  };
  std::vector<std::uint32_t> order;
  if (std::none_of(forward_refs_.begin(), forward_refs_.end(),
                   [&](net_id f) { return comb_driver(f) >= 0; })) {
    for (std::uint32_t g = 0; g < num_gates; ++g) {
      if (gates_[g].kind != gate_kind::dff) order.push_back(g);
    }
    return order;  // every gate's fanin gates come before it: one sweep
  }

  // s(g) by depth-first search over fanins; 0 = not reached yet.
  constexpr std::uint32_t on_path = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> sweep(num_gates, 0);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> stack;  // gate, fanin
  std::uint32_t last_sweep = 0;
  for (std::uint32_t root = 0; root < num_gates; ++root) {
    if (gates_[root].kind == gate_kind::dff || sweep[root] != 0) continue;
    sweep[root] = on_path;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      const auto [g, k] = stack.back();
      const gate& gt = gates_[g];
      if (k < gt.num_fanins) {
        ++stack.back().second;
        const std::int32_t d = comb_driver(fanins_[gt.first_fanin + k]);
        if (d < 0) continue;
        if (sweep[d] == on_path) {
          fail(gates_[d].line, "combinational cycle detected");
        }
        if (sweep[d] == 0) {
          sweep[d] = on_path;
          stack.emplace_back(d, 0);
        }
        continue;
      }
      std::uint32_t s = 1;
      for (std::uint32_t i = 0; i < gt.num_fanins; ++i) {
        const std::int32_t d = comb_driver(fanins_[gt.first_fanin + i]);
        if (d >= 0) {
          s = std::max(s, sweep[d] + (static_cast<std::uint32_t>(d) > g));
        }
      }
      sweep[g] = s;
      last_sweep = std::max(last_sweep, s);
      stack.pop_back();
    }
  }

  // Counting sort by sweep, stable in file order.
  std::vector<std::uint32_t> next(last_sweep, 0);
  for (std::uint32_t g = 0; g < num_gates; ++g) {
    if (gates_[g].kind != gate_kind::dff) ++next[sweep[g] - 1];
  }
  std::uint32_t total = 0;
  for (auto& n : next) total += std::exchange(n, total);
  order.resize(total);
  for (std::uint32_t g = 0; g < num_gates; ++g) {
    if (gates_[g].kind != gate_kind::dff) order[next[sweep[g] - 1]++] = g;
  }
  return order;
}

aig gate_graph::lower() const {
  for (net_id n = 0; n < driver_.size(); ++n) {
    if (driver_[n] == undriven) {
      fail(first_line_[n], "undriven net referenced: " + std::string(name_[n]));
    }
  }
  const std::vector<std::uint32_t> order = lowering_order();

  aig result;
  std::vector<signal> value(driver_.size(), result.get_constant(false));
  for (const net_id n : inputs_) {
    value[n] = result.create_pi(std::string(name_[n]));
  }
  std::vector<std::uint32_t> dffs;
  for (std::uint32_t g = 0; g < gates_.size(); ++g) {
    const gate& gt = gates_[g];
    if (gt.kind != gate_kind::dff) continue;
    value[gt.output] =
        result.create_register_output(gt.init, std::string(name_[gt.output]));
    dffs.push_back(g);
  }

  std::vector<signal> ins;
  for (const std::uint32_t g : order) {
    const gate& gt = gates_[g];
    ins.clear();
    for (std::uint32_t i = 0; i < gt.num_fanins; ++i) {
      ins.push_back(value[fanins_[gt.first_fanin + i]]);
    }
    value[gt.output] = lower_gate(result, gt.kind, ins);
  }

  for (const net_id n : outputs_) {
    result.create_po(value[n], std::string(name_[n]));
  }
  for (std::size_t r = 0; r < dffs.size(); ++r) {
    result.set_register_input(r, value[fanins_[gates_[dffs[r]].first_fanin]]);
  }
  return result;
}

}  // namespace xsfq
