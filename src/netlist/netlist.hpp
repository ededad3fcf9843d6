#pragma once
/// \file netlist.hpp
/// \brief Technology-independent gate-level netlist: the writers' view of
/// an AIG.
///
/// `netlist_from_aig` turns an AIG into named AND/NOT/BUFF gates and DFFs,
/// which `write_bench`/`write_blif` print.  The readers do not build a
/// netlist: they lower .bench/BLIF text straight into the AIG
/// (netlist/gate_graph.hpp).  `gate_kind` names the gates both sides know.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"

namespace xsfq {

enum class gate_kind : std::uint8_t {
  constant0,
  constant1,
  buffer,
  inverter,
  and_gate,
  or_gate,
  nand_gate,
  nor_gate,
  xor_gate,
  xnor_gate,
  mux_gate,  ///< fanins: select, then-input, else-input
  dff,       ///< fanins: data input; init value in `init`
};

/// Human-readable gate kind name ("AND", "DFF", ...), BENCH spelling.
const char* gate_kind_name(gate_kind kind);

/// A named net driven by a primary input or a gate.
class netlist {
public:
  using net_index = std::uint32_t;

  struct gate {
    gate_kind kind = gate_kind::constant0;
    std::vector<net_index> fanins;
    net_index output = 0;
    bool init = false;  ///< DFF initial value
  };

  /// Creates a primary-input net.
  net_index add_input(const std::string& name);
  /// Declares an existing net as a primary output.
  void mark_output(net_index net);
  /// Creates a gate driving a fresh net named `name`.
  net_index add_gate(gate_kind kind, std::vector<net_index> fanins,
                     const std::string& name, bool init = false);

  /// Finds a net by name; creates a placeholder net if unknown (resolved
  /// when its driver is later added).
  net_index net_by_name(const std::string& name);

  [[nodiscard]] std::size_t num_nets() const { return net_names_.size(); }
  [[nodiscard]] std::size_t num_inputs() const { return inputs_.size(); }
  [[nodiscard]] std::size_t num_outputs() const { return outputs_.size(); }
  [[nodiscard]] std::size_t num_gates() const { return gates_.size(); }

  [[nodiscard]] const std::vector<net_index>& inputs() const {
    return inputs_;
  }
  [[nodiscard]] const std::vector<net_index>& outputs() const {
    return outputs_;
  }
  [[nodiscard]] const std::vector<gate>& gates() const { return gates_; }
  [[nodiscard]] const std::string& net_name(net_index n) const {
    return net_names_[n];
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string model_name) { name_ = std::move(model_name); }

private:
  std::string name_ = "top";
  std::vector<std::string> net_names_;
  std::vector<net_index> inputs_;
  std::vector<net_index> outputs_;
  std::vector<gate> gates_;
  std::vector<std::int32_t> driver_;  ///< gate index driving net, -1 if none,
                                      ///< -2 if primary input
  std::unordered_map<std::string, net_index> by_name_;

  net_index add_net(const std::string& name);
};

/// Extracts a netlist view of an AIG (AND/INV gates, DFFs for registers);
/// used by the file writers.
netlist netlist_from_aig(const aig& network, const std::string& model_name);

}  // namespace xsfq
