#pragma once
/// \file cuts.hpp
/// \brief K-feasible priority cut enumeration with cut functions.
///
/// Cut-based resynthesis (rewrite/refactor in src/opt) replaces the logic
/// cone between a node and one of its cuts with a cheaper implementation of
/// the cut function.  This module enumerates bounded-size cuts bottom-up and
/// computes each cut's truth table during the merge, exactly as done in ABC.
///
/// Storage is flat: each cut is one trivially copyable 48-byte record (up to
/// six sorted leaves inline, the tail-masked 64-bit truth word, the leaf
/// signature and the size), and every node's cuts are one contiguous run of
/// records in a single array.  A node's candidates are merged straight into
/// the tail of that array, so enumeration copies no cut twice, and the
/// reusable `cut_engine` recycles the array between enumerations: the steady
/// state of an optimization script allocates nothing per node or per cut.
/// Cuts are capped at six leaves, the domain of one truth word; wider
/// `cut_size` values are rejected.

#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "util/truth_table.hpp"

namespace xsfq {

/// Parameters for cut enumeration.
struct cut_params {
  unsigned cut_size = 4;       ///< maximum number of leaves (k), at most 6
  unsigned cut_limit = 10;     ///< maximum cuts stored per node
  bool include_trivial = true; ///< keep the {n} cut at each node
};

/// One cut: a sorted, unique leaf set plus the function of the root in terms
/// of the leaves (variable i of the table corresponds to leaves()[i]).
struct cut {
  static constexpr unsigned max_leaves = truth_table::small_vars;

  std::uint64_t truth = 0;      ///< tail-masked table over size() variables
  std::uint64_t sig = 0;        ///< bloom filter over the leaf indices
  aig::node_index leaf[max_leaves] = {};  ///< first num_leaves are valid
  std::uint32_t num_leaves = 0;

  [[nodiscard]] std::span<const aig::node_index> leaves() const {
    return {leaf, num_leaves};
  }
  [[nodiscard]] unsigned size() const { return num_leaves; }
  [[nodiscard]] std::uint64_t signature() const { return sig; }
  [[nodiscard]] truth_table function() const {
    return truth_table::from_word(num_leaves, truth);
  }
  /// True iff this cut's leaves are a subset of `other`'s.
  [[nodiscard]] bool dominates(const cut& other) const;
};
static_assert(std::is_trivially_copyable_v<cut> && sizeof(cut) == 48);

/// All cuts of every node, packed into one array.  Indexed by node; CIs carry
/// only their trivial cut, the constant node one empty constant cut.
class cut_set {
public:
  /// Cuts of node `n`, in enumeration (priority) order.
  [[nodiscard]] std::span<const cut> operator[](aig::node_index n) const {
    return {cuts_.data() + first_[n], first_[n + 1] - first_[n]};
  }
  /// Total number of stored cuts across all nodes.
  [[nodiscard]] std::size_t num_cuts() const { return cuts_.size(); }
  /// Reserved footprint of the arena in bytes (capacity, not size).
  [[nodiscard]] std::size_t arena_bytes() const {
    return cuts_.capacity() * sizeof(cut) +
           first_.capacity() * sizeof(std::uint32_t);
  }

private:
  friend class cut_engine;

  std::vector<cut> cuts_;
  /// Node n's cuts are cuts_[first_[n] .. first_[n + 1]).
  std::vector<std::uint32_t> first_;
};

/// Reusable cut enumeration engine.  Owns the arena; enumerate() recycles
/// it, so repeated enumerations (one per rewriting pass) are allocation-free
/// once the high-water mark is reached.
class cut_engine {
public:
  /// Work counters of the most recent enumerate() call.
  struct counters {
    std::uint64_t candidates = 0;  ///< leaf-set merge attempts
    std::uint64_t dominated = 0;   ///< candidates discarded as dominated
    std::uint64_t stored = 0;      ///< cuts committed to the arena
  };

  /// Enumerates cuts for every node of `network` into the reused arena; the
  /// returned reference stays valid until the next enumerate() call.  Throws
  /// std::invalid_argument when params.cut_size exceeds cut::max_leaves.
  const cut_set& enumerate(const aig& network, const cut_params& params = {});

  [[nodiscard]] const cut_set& cuts() const { return set_; }
  [[nodiscard]] const counters& last_counters() const { return counters_; }

  /// Moves the arena out of the engine (one-shot enumeration helper).
  [[nodiscard]] cut_set release() { return std::move(set_); }

private:
  cut_set set_;
  counters counters_;
};

/// One-shot enumeration through a temporary engine (tests, explorers).  Hot
/// paths hold a cut_engine instead to recycle the arena between passes.
cut_set enumerate_cuts(const aig& network, const cut_params& params = {});

/// Size of the maximum fanout-free cone of `root` with respect to `leaves`:
/// the number of AND gates in the cone that would become dead if the root
/// were re-expressed directly in terms of the leaves.  `leaves` must be
/// sorted ascending (cut leaves always are).  `fanout` must come from
/// aig::compute_fanout_counts().
unsigned mffc_size(const aig& network, aig::node_index root,
                   const std::vector<aig::node_index>& leaves,
                   const std::vector<std::uint32_t>& fanout);

/// Reusable MFFC calculator: one record per node (fanins, fanout count and
/// the stamped remaining-reference count) instead of a per-query hash map,
/// so repeated queries against one network neither allocate nor sort and
/// each visited node reads one 20-byte record.
class mffc_calculator {
public:
  /// Binds the calculator to a network and (re)computes its fanout counts.
  void attach(const aig& network);

  /// MFFC size of `root` against sorted `leaves` (see mffc_size above).
  unsigned size(aig::node_index root, std::span<const aig::node_index> leaves);

  [[nodiscard]] std::uint64_t num_queries() const { return queries_; }

private:
  struct node_record {
    aig::node_index fanin[2] = {aig::null_node, aig::null_node};  ///< gates
    std::uint32_t fanout = 0;
    std::uint32_t remaining = 0;  ///< valid where stamp == epoch_
    std::uint32_t stamp = 0;
  };
  std::vector<node_record> nodes_;
  std::uint32_t epoch_ = 0;
  std::vector<aig::node_index> stack_;
  std::uint64_t queries_ = 0;
};

}  // namespace xsfq
