#pragma once
/// \file aig.hpp
/// \brief And-Inverter Graph (AIG) network with structural hashing.
///
/// The AIG is the workhorse representation of this library, mirroring its role
/// in ABC: Sec. 3.1.3 of the paper shows that a dual-rail xSFQ circuit of
/// LA-FA pairs is *isomorphic* to an AIG (LA = AND node / positive rail,
/// FA = complement rail, edge inversion = free wire twist), so minimizing AIG
/// nodes directly minimizes LA-FA pairs.
///
/// Design notes
///  * Signals are (node index << 1) | complement-bit, ABC/mockturtle style.
///  * Node 0 is the constant-0 node; combinational inputs (PIs and register
///    outputs) are explicit nodes; AND gates are created with structural
///    hashing and trivial-case simplification.
///  * Gates are created only after their fanins exist, so the node array is
///    always in topological order — passes exploit this invariant.
///  * Sequential designs model each register as a register-output node (a
///    combinational input) plus a register-input signal (a combinational
///    output), the classic latch-boundary trick used for retiming.
///  * The structural hash is an open-addressed table over two plain vectors
///    (no per-node heap cells), and `reset()` recycles every buffer at its
///    high-water capacity — an `aig` doubles as a reusable network arena for
///    the optimization pipeline (see opt/opt_engine.hpp), where passes write
///    into recycled shadow networks instead of allocating fresh ones.

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace xsfq {

/// An edge in the AIG: a node index plus a complement flag.
class signal {
public:
  constexpr signal() = default;
  constexpr signal(std::uint32_t node_index, bool complemented)
      : data_((node_index << 1) | (complemented ? 1u : 0u)) {}

  static constexpr signal from_raw(std::uint32_t raw) {
    signal s;
    s.data_ = raw;
    return s;
  }

  [[nodiscard]] constexpr std::uint32_t index() const { return data_ >> 1; }
  [[nodiscard]] constexpr bool is_complemented() const { return data_ & 1u; }
  [[nodiscard]] constexpr std::uint32_t raw() const { return data_; }

  /// Complemented copy of this signal (a free "wire twist" in xSFQ).
  constexpr signal operator!() const { return from_raw(data_ ^ 1u); }
  /// Conditionally complemented copy.
  constexpr signal operator^(bool complement) const {
    return from_raw(data_ ^ (complement ? 1u : 0u));
  }

  constexpr bool operator==(const signal&) const = default;
  constexpr auto operator<=>(const signal&) const = default;

private:
  std::uint32_t data_ = 0;
};

/// The AND-Inverter graph.
class aig {
public:
  using node_index = std::uint32_t;
  static constexpr node_index null_node =
      std::numeric_limits<node_index>::max();

  enum class node_type : std::uint8_t { constant, pi, register_output, gate };

  /// One register: its output node (a combinational input), its input signal
  /// (a combinational output, settable after the fact), and its reset value.
  struct register_info {
    node_index output_node = null_node;
    signal input;
    bool init = false;
    bool input_set = false;
  };

  /// Reusable scratch for reachability marking and compaction; one instance
  /// recycled across cleanup calls keeps the compaction path allocation-free
  /// in the steady state (see opt/opt_engine.hpp).
  struct compaction_scratch {
    std::vector<signal> map;
    std::vector<std::uint8_t> reachable;
    std::vector<node_index> stack;
  };

  aig();

  // ----- construction ------------------------------------------------------

  /// Returns the network to its just-constructed state (only the constant-0
  /// node) while keeping every buffer's capacity, including the structural
  /// hash table.  This is what makes an `aig` a recyclable arena: a pass
  /// that reset()s and refills the same instance allocates nothing once the
  /// high-water mark is reached.
  void reset();

  /// Pre-sizes the node array and the structural hash for about
  /// `expected_nodes` nodes, so bulk construction (compaction, partition
  /// merges) does not grow-and-rehash its way up.  Purely an allocation
  /// hint; never changes behavior.
  void reserve(std::size_t expected_nodes);

  /// The constant-`value` signal.
  [[nodiscard]] signal get_constant(bool value) const {
    return signal(0, value);
  }
  /// Creates a primary input.
  signal create_pi(std::string name = {});
  /// Registers `f` as a primary output; returns the output's index.
  std::size_t create_po(signal f, std::string name = {});
  /// Creates a register and returns its output signal; the register input is
  /// provided later via set_register_input (registers close feedback loops).
  signal create_register_output(bool init = false, std::string name = {});
  /// Connects the data input of register `reg`.
  void set_register_input(std::size_t reg, signal f);
  /// AND with structural hashing and trivial-case simplification.
  signal create_and(signal a, signal b);
  /// Non-mutating strash probe: the signal create_and(a, b) would return if
  /// it would not allocate a new node, or nullopt if a node would be created.
  /// Inline: the rewrite/refactor probe calls it once per candidate step.
  [[nodiscard]] std::optional<signal> find_and(signal a, signal b) const {
    // Mirror create_and's trivial cases so probing matches construction.
    if (a == b) return a;
    if (a == !b) return get_constant(false);
    if (a == get_constant(false) || b == get_constant(false)) {
      return get_constant(false);
    }
    if (a == get_constant(true)) return b;
    if (b == get_constant(true)) return a;
    if (b.raw() < a.raw()) std::swap(a, b);
    if (const auto hit = strash_find(strash_key(a, b))) {
      return signal(*hit, false);
    }
    return std::nullopt;
  }

  // ----- in-place editing (ECO replay; see aig/edit.hpp) --------------------
  //
  // These three primitives exist for edit replay, where node *positions* must
  // stay stable across the edit: create_and would dedup or simplify a new
  // gate onto an existing position, shifting everything downstream of the
  // replayed script.  They leave the structural hash stale; callers finish
  // with rebuild_strash() so the post-edit network state is a pure function
  // of the node array (no create/find history leaks into it).

  /// Appends a gate with exactly these fanins — no trivial-case
  /// simplification, no strash dedup.  Fanins must be existing non-constant
  /// nodes with distinct indices (degenerate pairs would require the
  /// simplifications this function refuses to apply); fanin order is
  /// canonicalized as in create_and.  Throws std::invalid_argument otherwise.
  signal append_gate_raw(signal a, signal b);

  /// Redefines gate `n`'s fanins in place.  Same fanin restrictions as
  /// append_gate_raw, plus both fanins strictly earlier than `n` so the node
  /// array stays topologically sorted.
  void set_gate_fanins(node_index n, signal a, signal b);

  /// Rebuilds the structural hash from the node array (index order,
  /// first-encountered node wins a duplicated key), restoring the
  /// create_and/find_and contract after in-place edits.
  void rebuild_strash();

  // Derived operators (all reduce to create_and + free inversions).
  signal create_nand(signal a, signal b) { return !create_and(a, b); }
  signal create_or(signal a, signal b) { return !create_and(!a, !b); }
  signal create_nor(signal a, signal b) { return create_and(!a, !b); }
  signal create_xor(signal a, signal b);
  signal create_xnor(signal a, signal b) { return !create_xor(a, b); }
  /// if `sel` then `then_f` else `else_f`.
  signal create_mux(signal sel, signal then_f, signal else_f);
  /// Majority of three.
  signal create_maj(signal a, signal b, signal c);
  /// Reduction AND/OR/XOR over a list (balanced trees).
  signal create_and_n(std::span<const signal> fs);
  signal create_or_n(std::span<const signal> fs);
  signal create_xor_n(std::span<const signal> fs);

  // ----- structure queries --------------------------------------------------

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_pis() const { return pis_.size(); }
  [[nodiscard]] std::size_t num_pos() const { return pos_.size(); }
  [[nodiscard]] std::size_t num_registers() const { return registers_.size(); }
  /// Number of AND gates (the paper's "AIG nodes").
  [[nodiscard]] std::size_t num_gates() const { return num_gates_; }
  /// Combinational inputs = PIs then register outputs.
  [[nodiscard]] std::size_t num_cis() const {
    return num_pis() + num_registers();
  }
  /// Combinational outputs = POs then register inputs.
  [[nodiscard]] std::size_t num_cos() const {
    return num_pos() + num_registers();
  }

  [[nodiscard]] node_type type_of(node_index n) const {
    return nodes_[n].type;
  }
  [[nodiscard]] bool is_constant(node_index n) const { return n == 0; }
  [[nodiscard]] bool is_pi(node_index n) const {
    return nodes_[n].type == node_type::pi;
  }
  [[nodiscard]] bool is_register_output(node_index n) const {
    return nodes_[n].type == node_type::register_output;
  }
  [[nodiscard]] bool is_ci(node_index n) const {
    return is_pi(n) || is_register_output(n);
  }
  [[nodiscard]] bool is_gate(node_index n) const {
    return nodes_[n].type == node_type::gate;
  }

  [[nodiscard]] signal fanin0(node_index n) const { return nodes_[n].fanin0; }
  [[nodiscard]] signal fanin1(node_index n) const { return nodes_[n].fanin1; }

  [[nodiscard]] signal pi(std::size_t i) const { return pis_[i]; }
  [[nodiscard]] signal po_signal(std::size_t i) const { return pos_[i]; }
  void replace_po(std::size_t i, signal f) { pos_[i] = f; }
  [[nodiscard]] const register_info& register_at(std::size_t i) const {
    return registers_[i];
  }
  /// CI signal `i` (PIs first, then register outputs).
  [[nodiscard]] signal ci(std::size_t i) const {
    return i < pis_.size()
               ? pis_[i]
               : signal(registers_[i - pis_.size()].output_node, false);
  }
  /// CO signal `i` (POs first, then register inputs).
  [[nodiscard]] signal co(std::size_t i) const {
    return i < pos_.size() ? pos_[i] : registers_[i - pos_.size()].input;
  }

  [[nodiscard]] const std::string& pi_name(std::size_t i) const {
    return pi_names_[i];
  }
  [[nodiscard]] const std::string& po_name(std::size_t i) const {
    return po_names_[i];
  }
  [[nodiscard]] const std::string& register_name(std::size_t i) const {
    return register_names_[i];
  }

  /// Index of the PI/register a CI node belongs to.
  [[nodiscard]] std::size_t ci_ordinal(node_index n) const {
    return nodes_[n].ci_ordinal;
  }

  // ----- iteration (node array is topologically sorted) ---------------------

  template <typename Fn>
  void foreach_node(Fn&& fn) const {
    for (node_index n = 0; n < nodes_.size(); ++n) fn(n);
  }
  template <typename Fn>
  void foreach_gate(Fn&& fn) const {
    for (node_index n = 0; n < nodes_.size(); ++n) {
      if (is_gate(n)) fn(n);
    }
  }
  template <typename Fn>
  void foreach_ci(Fn&& fn) const {
    for (std::size_t i = 0; i < num_cis(); ++i) fn(ci(i), i);
  }
  template <typename Fn>
  void foreach_co(Fn&& fn) const {
    for (std::size_t i = 0; i < num_cos(); ++i) fn(co(i), i);
  }

  // ----- analysis ------------------------------------------------------------

  /// Logic level of every node (CIs at level 0); recomputed on demand.
  [[nodiscard]] std::vector<std::uint32_t> compute_levels() const;
  /// Scratch-reusing variant (resizes `levels`, no other allocation).
  void compute_levels_into(std::vector<std::uint32_t>& levels) const;
  /// Length of the longest CI->CO combinational path, in AND gates.
  [[nodiscard]] std::uint32_t depth() const;
  /// Static fanout count of every node (counting CO references).
  [[nodiscard]] std::vector<std::uint32_t> compute_fanout_counts() const;
  /// Scratch-reusing variant (resizes `fanout`, no other allocation).
  void compute_fanout_counts_into(std::vector<std::uint32_t>& fanout) const;

  /// Returns a compacted copy containing only nodes reachable from COs.
  /// Register order, PO order and names are preserved.
  [[nodiscard]] aig cleanup() const;

  /// Fills scratch.reachable with CO-reachability flags for this network and
  /// returns the number of *unreachable* gates.  A zero return means
  /// compact_into would reproduce this network verbatim (same construction
  /// sequence), so callers may skip the rebuild entirely.
  std::size_t mark_reachable(compaction_scratch& scratch) const;

  /// Compacts into `result` (reset() + rebuilt), dropping gates that
  /// scratch.reachable — as filled by a preceding mark_reachable() on *this*
  /// network — flags as dead.  `result` must not alias this network.
  void compact_into(aig& result, compaction_scratch& scratch) const;

  /// True when every register input has been connected.
  [[nodiscard]] bool is_well_formed() const;

  /// Approximate heap footprint of this network's buffers (node array,
  /// interface vectors, strash table), counting capacity rather than size —
  /// the arena-recycling counters report peak footprint.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Structural content hash: covers node structure, CO signals, register
  /// metadata, and interface names.  Equal networks (same construction
  /// sequence) hash equal on every platform; used as the circuit half of the
  /// flow result-cache key (src/flow/batch_runner).
  [[nodiscard]] std::uint64_t content_hash() const;

private:
  struct node {
    signal fanin0;
    signal fanin1;
    node_type type = node_type::constant;
    std::uint32_t ci_ordinal = 0;  ///< PI index or register index
  };

  static std::uint64_t strash_key(signal a, signal b) {
    return (std::uint64_t{a.raw()} << 32) | b.raw();
  }

  // Open-addressed structural hash: parallel key/value vectors with linear
  // probing, no erase, grown at 70% load.  Keys are the packed fanin pair;
  // 0 marks an empty slot (legal because constant fanins are simplified away
  // before hashing, so a stored key's high half is always >= 2).
  [[nodiscard]] std::size_t strash_slot(std::uint64_t key) const {
    // splitmix64 finalizer: cheap and well distributed for packed fanin
    // pairs.
    key ^= key >> 30;
    key *= 0xBF58476D1CE4E5B9ull;
    key ^= key >> 27;
    key *= 0x94D049BB133111EBull;
    key ^= key >> 31;
    return key & (strash_keys_.size() - 1);
  }
  void strash_insert(std::uint64_t key, node_index value);
  [[nodiscard]] std::optional<node_index> strash_find(std::uint64_t key) const {
    if (strash_keys_.empty()) return std::nullopt;
    std::size_t slot = strash_slot(key);
    while (strash_keys_[slot] != 0) {
      if (strash_keys_[slot] == key) return strash_values_[slot];
      slot = (slot + 1) & (strash_keys_.size() - 1);
    }
    return std::nullopt;
  }
  void strash_grow(std::size_t new_capacity);

  std::vector<node> nodes_;
  std::vector<signal> pis_;
  std::vector<signal> pos_;
  std::vector<register_info> registers_;
  std::vector<std::string> pi_names_;
  std::vector<std::string> po_names_;
  std::vector<std::string> register_names_;
  std::vector<std::uint64_t> strash_keys_;  ///< 0 = empty slot
  std::vector<node_index> strash_values_;
  std::size_t strash_used_ = 0;
  std::size_t num_gates_ = 0;
};

/// Map from AIG nodes to values of type T (dense vector keyed by node index).
template <typename T>
class node_map {
public:
  node_map() = default;
  explicit node_map(const aig& network, const T& init = T{})
      : values_(network.size(), init) {}

  T& operator[](aig::node_index n) { return values_[n]; }
  const T& operator[](aig::node_index n) const { return values_[n]; }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  void resize(std::size_t n, const T& init = T{}) { values_.resize(n, init); }

private:
  std::vector<T> values_;
};

}  // namespace xsfq
