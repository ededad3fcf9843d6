#include "netlist/netlist.hpp"

#include <stdexcept>

namespace xsfq {

const char* gate_kind_name(gate_kind kind) {
  switch (kind) {
    case gate_kind::constant0: return "CONST0";
    case gate_kind::constant1: return "CONST1";
    case gate_kind::buffer: return "BUFF";
    case gate_kind::inverter: return "NOT";
    case gate_kind::and_gate: return "AND";
    case gate_kind::or_gate: return "OR";
    case gate_kind::nand_gate: return "NAND";
    case gate_kind::nor_gate: return "NOR";
    case gate_kind::xor_gate: return "XOR";
    case gate_kind::xnor_gate: return "XNOR";
    case gate_kind::mux_gate: return "MUX";
    case gate_kind::dff: return "DFF";
  }
  return "?";
}

netlist::net_index netlist::add_net(const std::string& name) {
  const auto index = static_cast<net_index>(net_names_.size());
  net_names_.push_back(name);
  driver_.push_back(-1);
  by_name_.emplace(name, index);
  return index;
}

netlist::net_index netlist::add_input(const std::string& name) {
  const net_index n = net_by_name(name);
  if (driver_[n] != -1) {
    throw std::invalid_argument("netlist: input net already driven: " + name);
  }
  driver_[n] = -2;
  inputs_.push_back(n);
  return n;
}

void netlist::mark_output(net_index net) { outputs_.push_back(net); }

netlist::net_index netlist::add_gate(gate_kind kind,
                                     std::vector<net_index> fanins,
                                     const std::string& name, bool init) {
  const net_index out = net_by_name(name);
  if (driver_[out] != -1) {
    throw std::invalid_argument("netlist: net driven twice: " + name);
  }
  gate g;
  g.kind = kind;
  g.fanins = std::move(fanins);
  g.output = out;
  g.init = init;
  driver_[out] = static_cast<std::int32_t>(gates_.size());
  gates_.push_back(std::move(g));
  return out;
}

netlist::net_index netlist::net_by_name(const std::string& name) {
  if (const auto it = by_name_.find(name); it != by_name_.end()) {
    return it->second;
  }
  return add_net(name);
}

netlist netlist_from_aig(const aig& network, const std::string& model_name) {
  netlist result;
  result.set_name(model_name);

  // Net naming: CIs keep their names; gates get n<idx>; complement edges
  // materialize inverter gates (shared per node).
  std::vector<netlist::net_index> net_of(network.size());
  std::vector<std::int32_t> inverted_net_of(network.size(), -1);

  for (std::size_t i = 0; i < network.num_pis(); ++i) {
    net_of[network.pi(i).index()] = result.add_input(network.pi_name(i));
  }
  for (std::size_t i = 0; i < network.num_registers(); ++i) {
    // Placeholder nets now; DFF gates added after combinational logic so
    // that their data fanin nets exist.
    net_of[network.register_at(i).output_node] =
        result.net_by_name(network.register_name(i));
  }
  const netlist::net_index const0 =
      result.add_gate(gate_kind::constant0, {}, "const0");
  net_of[0] = const0;

  auto net_for = [&](signal s) -> netlist::net_index {
    if (!s.is_complemented()) return net_of[s.index()];
    if (inverted_net_of[s.index()] < 0) {
      const std::string name =
          "ninv" + std::to_string(static_cast<unsigned long>(s.index()));
      inverted_net_of[s.index()] = static_cast<std::int32_t>(
          result.add_gate(gate_kind::inverter, {net_of[s.index()]}, name));
    }
    return static_cast<netlist::net_index>(inverted_net_of[s.index()]);
  };

  network.foreach_gate([&](aig::node_index n) {
    const std::string name = "n" + std::to_string(static_cast<unsigned long>(n));
    net_of[n] = result.add_gate(
        gate_kind::and_gate,
        {net_for(network.fanin0(n)), net_for(network.fanin1(n))}, name);
  });

  for (std::size_t i = 0; i < network.num_pos(); ++i) {
    const signal po = network.po_signal(i);
    // Emit a named buffer so output names survive.
    const netlist::net_index n = result.add_gate(
        gate_kind::buffer, {net_for(po)}, network.po_name(i));
    result.mark_output(n);
  }
  for (std::size_t i = 0; i < network.num_registers(); ++i) {
    const auto& reg = network.register_at(i);
    result.add_gate(gate_kind::dff, {net_for(reg.input)},
                    network.register_name(i), reg.init);
  }
  return result;
}

}  // namespace xsfq
