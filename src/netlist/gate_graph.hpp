#pragma once
/// \file gate_graph.hpp
/// \brief The gate graph a .bench/BLIF reader fills in its one pass over the
/// text, and its lowering into an AIG.
///
/// Net names are interned to dense ids in one open-addressed table whose
/// keys are views into the text being read (which must outlive the graph);
/// BLIF helper nets are anonymous ids with no name at all.  Gates live in
/// flat arrays: one record per gate, fanins in one shared array.  Nothing
/// here copies a name: `lower()` copies the PI, PO and register names into
/// the AIG, and those are the only copies.
///
/// Lowering order.  Node order feeds `aig::content_hash`, the cache keys and
/// `optimize`, so it is part of the contract.  Gate g lowers in sweep
///
///   s(g) = max(1, max over g's fanin gates h of s(h) + [h after g]),
///
/// and in file order within a sweep — the order in which repeated sweeps
/// over the gates in file order would lower them.  One topological pass
/// computes every s(g), so lowering is linear in the size of the text even
/// when gates are listed last-first.  A file whose gates only use gates
/// listed before them (what the writers emit) has every s(g) = 1; the
/// reader sees that from the fanins that were undriven when their gate was
/// read, and skips the pass.  PIs come first in declaration order,
/// then one register output per DFF in file order; POs and register inputs
/// are bound after the gates.
///
/// Errors are `std::invalid_argument` whose message starts with the
/// format's prefix and the line at fault ("bench: line N: " / "blif: line
/// N: "): for an undriven net the line that first names it, for a cycle
/// the line of a gate on it.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aig/aig.hpp"
#include "netlist/netlist.hpp"

namespace xsfq {

class gate_graph {
public:
  using net_id = std::uint32_t;

  /// `format` prefixes every error message ("bench", "blif"); `text_bytes`
  /// sizes the name table.
  gate_graph(const char* format, std::size_t text_bytes);

  /// Throws "<format>: line N: <message>".
  [[noreturn]] void fail(std::size_t line, const std::string& message) const;

  /// Longest net name accepted: real netlists use a few dozen characters,
  /// so anything kilobytes long is fuzz or attack input.
  static constexpr std::size_t max_name_length = 4096;

  /// The id of the net called `name`, created on first use (on `line`).
  /// `name` must stay valid for the graph's lifetime.
  net_id net(std::string_view name, std::size_t line);
  /// A fresh net that no name refers to (a BLIF cover's helper net).
  net_id anonymous_net();

  /// Declares `n` a primary input; it must not have a driver yet.
  void add_input(net_id n, std::size_t line);
  /// Declares `n` a primary output (bound after the gates lower).
  void add_output(net_id n) { outputs_.push_back(n); }
  /// Adds a gate driving `out`, which must not have a driver yet.  The
  /// caller has checked the arity.
  void add_gate(gate_kind kind, std::span<const net_id> fanins, net_id out,
                bool init, std::size_t line);

  /// Builds the AIG.  Throws when a referenced net has no driver or the
  /// combinational gates form a cycle.
  [[nodiscard]] aig lower() const;

private:
  struct gate {
    std::uint32_t first_fanin = 0;
    std::uint32_t num_fanins = 0;
    net_id output = 0;
    std::uint32_t line = 0;
    gate_kind kind = gate_kind::constant0;
    bool init = false;  ///< DFF initial value
  };
  struct slot {
    std::uint32_t hash = 0;
    std::uint32_t id_plus_one = 0;  ///< 0 = empty
  };

  static constexpr std::int32_t undriven = -1;
  static constexpr std::int32_t primary_input = -2;

  void grow_table();
  [[nodiscard]] std::vector<std::uint32_t> lowering_order() const;

  const char* format_;
  std::vector<slot> table_;            ///< open addressing, power of two
  std::vector<std::string_view> name_; ///< per net; empty when anonymous
  std::vector<std::int32_t> driver_;   ///< per net: gate index, or a marker
  std::vector<std::uint32_t> first_line_;  ///< per net: line naming it first
  std::vector<gate> gates_;
  std::vector<net_id> fanins_;
  std::vector<net_id> forward_refs_;   ///< fanins undriven when read
  std::vector<net_id> inputs_;
  std::vector<net_id> outputs_;
  std::size_t num_named_ = 0;
};

}  // namespace xsfq
