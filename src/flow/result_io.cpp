#include "flow/result_io.hpp"

#include <cstdint>

namespace xsfq {

void write_field(byte_writer& w, const aig& network) {
  w.u64(network.size());
  // Node records: CIs carry nothing (ordinal order is node order), gates
  // carry their fanins.  Node 0 is always the constant and is implied.
  for (aig::node_index n = 1; n < network.size(); ++n) {
    w.u8(static_cast<std::uint8_t>(network.type_of(n)));
    if (network.is_gate(n)) {
      w.u32(network.fanin0(n).raw());
      w.u32(network.fanin1(n).raw());
    }
  }
  w.u64(network.num_pis());
  for (std::size_t i = 0; i < network.num_pis(); ++i) {
    w.str(network.pi_name(i));
  }
  w.u64(network.num_pos());
  for (std::size_t i = 0; i < network.num_pos(); ++i) {
    w.u32(network.po_signal(i).raw());
    w.str(network.po_name(i));
  }
  w.u64(network.num_registers());
  for (std::size_t i = 0; i < network.num_registers(); ++i) {
    const auto& reg = network.register_at(i);
    w.boolean(reg.init);
    w.boolean(reg.input_set);
    w.u32(reg.input.raw());
    w.str(network.register_name(i));
  }
  w.u64(network.content_hash());
}

void read_field(byte_reader& r, aig& network) {
  const std::size_t num_nodes = r.count(/*min_element_bytes=*/1);
  if (num_nodes == 0) throw serialize_error("aig without constant node");

  struct node_record {
    aig::node_type type;
    signal fanin0, fanin1;
  };
  std::vector<node_record> nodes;
  nodes.reserve(num_nodes - 1);
  for (std::size_t n = 1; n < num_nodes; ++n) {
    node_record rec{};
    const std::uint8_t type = r.u8();
    if (type > static_cast<std::uint8_t>(aig::node_type::gate) ||
        type == static_cast<std::uint8_t>(aig::node_type::constant)) {
      throw serialize_error("aig node type out of range");
    }
    rec.type = static_cast<aig::node_type>(type);
    if (rec.type == aig::node_type::gate) {
      rec.fanin0 = signal::from_raw(r.u32());
      rec.fanin1 = signal::from_raw(r.u32());
      if (rec.fanin0.index() >= n || rec.fanin1.index() >= n) {
        throw serialize_error("aig gate fanin not topological");
      }
    }
    nodes.push_back(rec);
  }

  const std::size_t num_pis = r.count(8);
  std::vector<std::string> pi_names(num_pis);
  for (auto& name : pi_names) name = r.str();

  struct po_record {
    signal s;
    std::string name;
  };
  const std::size_t num_pos = r.count(4);
  std::vector<po_record> pos(num_pos);
  for (auto& po : pos) {
    po.s = signal::from_raw(r.u32());
    po.name = r.str();
  }

  struct reg_record {
    bool init, input_set;
    signal input;
    std::string name;
  };
  const std::size_t num_regs = r.count(6);
  std::vector<reg_record> regs(num_regs);
  for (auto& reg : regs) {
    reg.init = r.boolean();
    reg.input_set = r.boolean();
    reg.input = signal::from_raw(r.u32());
    reg.name = r.str();
  }
  const std::uint64_t stored_hash = r.u64();

  // Replay the construction.  Because the original network was itself built
  // through create_pi/create_register_output/create_and in this exact order,
  // the strash table and trivial-case simplification behave identically and
  // every node lands at its original index; any deviation means the record
  // does not describe a well-formed strashed AIG.
  network.reset();
  std::size_t pi_cursor = 0;
  std::size_t reg_cursor = 0;
  for (std::size_t n = 1; n < num_nodes; ++n) {
    const node_record& rec = nodes[n - 1];
    switch (rec.type) {
      case aig::node_type::pi: {
        if (pi_cursor >= num_pis) throw serialize_error("aig pi overflow");
        const signal s = network.create_pi(pi_names[pi_cursor++]);
        if (s.index() != n) throw serialize_error("aig pi index mismatch");
        break;
      }
      case aig::node_type::register_output: {
        if (reg_cursor >= num_regs) {
          throw serialize_error("aig register overflow");
        }
        const reg_record& reg = regs[reg_cursor];
        const signal s =
            network.create_register_output(reg.init, reg.name);
        ++reg_cursor;
        if (s.index() != n) {
          throw serialize_error("aig register index mismatch");
        }
        break;
      }
      case aig::node_type::gate: {
        const signal s = network.create_and(rec.fanin0, rec.fanin1);
        if (s.raw() != signal(static_cast<std::uint32_t>(n), false).raw()) {
          throw serialize_error("aig gate replay diverged");
        }
        break;
      }
      default:
        throw serialize_error("aig node type out of range");
    }
  }
  if (pi_cursor != num_pis || reg_cursor != num_regs) {
    throw serialize_error("aig interface count mismatch");
  }
  for (const auto& po : pos) {
    if (po.s.index() >= num_nodes) throw serialize_error("aig po out of range");
    network.create_po(po.s, po.name);
  }
  for (std::size_t i = 0; i < num_regs; ++i) {
    if (regs[i].input_set) {
      if (regs[i].input.index() >= num_nodes) {
        throw serialize_error("aig register input out of range");
      }
      network.set_register_input(i, regs[i].input);
    }
  }
  if (network.content_hash() != stored_hash) {
    throw serialize_error("aig content hash mismatch");
  }
}

void write_field(byte_writer& w, const xsfq_netlist& netlist) {
  write_field(w, netlist.elements());
}

void read_field(byte_reader& r, xsfq_netlist& netlist) {
  const std::size_t n = r.count(min_bytes<xsfq_element>());
  netlist.clear();
  netlist.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    xsfq_element e;
    read_field(r, e);
    // Every reference the element's kind reads names port 0 or 1 of an
    // earlier element (the netlist is topological), and a boundary DROC's
    // unused fanin0 is the default: consumers index by these unchecked.
    const bool reads0 = e.kind != element_kind::input_rail &&
                        e.kind != element_kind::const_rail;
    const bool reads1 =
        e.kind == element_kind::la || e.kind == element_kind::fa;
    const auto earlier = [i](port_ref p) {
      return p.element < i && p.port <= 1;
    };
    const bool fanin0_ok =
        e.feedback_input ? e.fanin0 == port_ref{} : earlier(e.fanin0);
    if ((reads0 && !fanin0_ok) || (reads1 && !earlier(e.fanin1))) {
      throw serialize_error("netlist fanin reference out of range");
    }
    netlist.add_element(std::move(e));
  }
}

}  // namespace xsfq

namespace xsfq::flow {

void write_flow_result(byte_writer& w, const flow_result& result) {
  write_field(w, result);
}

flow_result read_flow_result(byte_reader& r) {
  flow_result result;
  read_field(r, result);
  const std::size_t n = result.mapped.netlist.size();
  for (const auto& [droc, driver] : result.mapped.register_feedback) {
    if (droc >= n || driver.element >= n || driver.port > 1) {
      throw serialize_error("register feedback reference out of range");
    }
  }
  return result;
}

}  // namespace xsfq::flow
