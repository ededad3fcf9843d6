#include "aig/cuts.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace xsfq {
namespace {

/// Branch-free SWAR popcount: the baseline build has no -mpopcnt, and the
/// libgcc __popcountdi2 call showed up in the enumeration profile.
inline unsigned popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
}

/// Merges the sorted leaf sets of `a` and `b` into `out`, recording where
/// each input leaf lands (pa, pb: strictly increasing, as
/// truth_table::expand_word requires); returns false if the union exceeds
/// `k` leaves.
bool merge_leaves(const cut& a, const cut& b, unsigned k, cut& out,
                  unsigned* pa, unsigned* pb) {
  unsigned i = 0;
  unsigned j = 0;
  unsigned n = 0;
  while (i < a.num_leaves || j < b.num_leaves) {
    if (n == k) return false;
    if (j == b.num_leaves || (i < a.num_leaves && a.leaf[i] < b.leaf[j])) {
      out.leaf[n] = a.leaf[i];
      pa[i++] = n;
    } else if (i == a.num_leaves || b.leaf[j] < a.leaf[i]) {
      out.leaf[n] = b.leaf[j];
      pb[j++] = n;
    } else {
      out.leaf[n] = a.leaf[i];
      pa[i++] = n;
      pb[j++] = n;
    }
    ++n;
  }
  out.num_leaves = n;
  return true;
}

/// Clears the bits above 2^vars of a single-word table.
constexpr std::uint64_t tail_mask(unsigned vars) {
  return vars >= truth_table::small_vars
             ? ~std::uint64_t{0}
             : (std::uint64_t{1} << (std::uint64_t{1} << vars)) - 1;
}

cut trivial_cut(aig::node_index n) {
  cut c;
  c.truth = tail_mask(1) & truth_table::var_masks[0];
  c.sig = std::uint64_t{1} << (n & 63u);
  c.leaf[0] = n;
  c.num_leaves = 1;
  return c;
}

}  // namespace

bool cut::dominates(const cut& other) const {
  // Subset test with the bloom-filter fast reject (this <= other).
  if (num_leaves > other.num_leaves) return false;
  if ((sig & ~other.sig) != 0) return false;
  const auto mine = leaves();
  const auto theirs = other.leaves();
  return std::includes(theirs.begin(), theirs.end(), mine.begin(), mine.end());
}

const cut_set& cut_engine::enumerate(const aig& network,
                                     const cut_params& params) {
  if (params.cut_size > cut::max_leaves) {
    throw std::invalid_argument(
        "cut_engine::enumerate: cut_size " + std::to_string(params.cut_size) +
        " exceeds the " + std::to_string(cut::max_leaves) + "-leaf cut record");
  }
  std::vector<cut>& cuts = set_.cuts_;
  std::vector<std::uint32_t>& first = set_.first_;
  cuts.clear();
  first.assign(network.size() + 1, 0);
  counters_ = {};
  const unsigned k = params.cut_size;

  network.foreach_node([&](aig::node_index n) {
    const auto base = static_cast<std::uint32_t>(cuts.size());
    first[n] = base;
    if (network.is_constant(n)) {
      cuts.emplace_back();  // one empty cut with the constant-0 function
      return;
    }
    if (network.is_ci(n)) {
      cuts.push_back(trivial_cut(n));
      return;
    }

    const signal f0 = network.fanin0(n);
    const signal f1 = network.fanin1(n);
    const std::uint32_t b0 = first[f0.index()];
    const std::uint32_t n0 = first[f0.index() + 1] - b0;
    const std::uint32_t b1 = first[f1.index()];
    const std::uint32_t n1 = first[f1.index() + 1] - b1;

    // Node n's candidates are merged straight into the arena's tail.  Room
    // for all of them (at most min(cut_limit, n0 * n1), at least one, plus
    // the trivial cut) is reserved first, so the fanin cuts read below never
    // move while the tail grows.
    const std::size_t room =
        std::min<std::size_t>(std::max(params.cut_limit, 1u),
                              std::size_t{n0} * n1) + 1;
    if (cuts.capacity() - cuts.size() < room) {
      cuts.reserve(std::max(cuts.capacity() * 2, cuts.size() + room));
    }
    const cut* c0s = cuts.data() + b0;
    const cut* c1s = cuts.data() + b1;

    cut merged;
    unsigned pos0[cut::max_leaves];
    unsigned pos1[cut::max_leaves];
    for (std::uint32_t i = 0; i < n0; ++i) {
      const cut& c0 = c0s[i];
      for (std::uint32_t j = 0; j < n1; ++j) {
        const cut& c1 = c1s[j];
        ++counters_.candidates;
        // The merged cut's bloom signature is exactly the union of the fanin
        // signatures (one bit per leaf, duplicates collapse), so a popcount
        // above k proves the union is too large before any merging work —
        // the dominant reject in the k=4 rewrite enumeration.
        merged.sig = c0.sig | c1.sig;
        if (popcount64(merged.sig) > k) continue;
        if (!merge_leaves(c0, c1, k, merged, pos0, pos1)) continue;

        // Skip if dominated by an existing cut (or dominating: replace), in
        // one pass.  No stored cut dominates another, so when one dominates
        // the candidate, the candidate dominates none before it and nothing
        // has been compacted yet.
        bool dominated = false;
        std::size_t kept = base;
        for (std::size_t e = base; e < cuts.size(); ++e) {
          if (cuts[e].dominates(merged)) {
            dominated = true;
            break;
          }
          if (!merged.dominates(cuts[e])) cuts[kept++] = cuts[e];
        }
        if (dominated) {
          ++counters_.dominated;
          continue;
        }
        cuts.resize(kept);

        // Word-parallel merge: expand both fanin functions onto the merged
        // leaf slots and AND them in registers.
        std::uint64_t w0 =
            truth_table::expand_word(c0.truth, c0.num_leaves, pos0);
        if (f0.is_complemented()) w0 = ~w0;
        std::uint64_t w1 =
            truth_table::expand_word(c1.truth, c1.num_leaves, pos1);
        if (f1.is_complemented()) w1 = ~w1;
        merged.truth = w0 & w1 & tail_mask(merged.num_leaves);
        cuts.push_back(merged);
        if (cuts.size() - base >= params.cut_limit) break;
      }
      if (cuts.size() - base >= params.cut_limit) break;
    }
    if (params.include_trivial) cuts.push_back(trivial_cut(n));
  });
  first[network.size()] = static_cast<std::uint32_t>(cuts.size());

  counters_.stored = cuts.size();
  return set_;
}

cut_set enumerate_cuts(const aig& network, const cut_params& params) {
  cut_engine engine;
  engine.enumerate(network, params);
  return engine.release();
}

unsigned mffc_size(const aig& network, aig::node_index root,
                   const std::vector<aig::node_index>& leaves,
                   const std::vector<std::uint32_t>& fanout) {
  // Count gates in the cone of `root` whose fanout lies entirely inside the
  // cone, via simulated dereferencing with a lazy remaining-reference map
  // that only touches the cone.  Hot paths use mffc_calculator instead.
  if (!std::is_sorted(leaves.begin(), leaves.end())) {
    // Cut leaves are always sorted; sort defensively for other callers.
    std::vector<aig::node_index> sorted_leaves(leaves);
    std::sort(sorted_leaves.begin(), sorted_leaves.end());
    return mffc_size(network, root, sorted_leaves, fanout);
  }
  std::unordered_map<aig::node_index, std::uint32_t> remaining;
  unsigned count = 0;

  auto is_leaf = [&](aig::node_index n) {
    return std::binary_search(leaves.begin(), leaves.end(), n);
  };

  std::vector<aig::node_index> stack{root};
  while (!stack.empty()) {
    const aig::node_index n = stack.back();
    stack.pop_back();
    if (!network.is_gate(n) || is_leaf(n)) continue;
    ++count;
    for (const signal f : {network.fanin0(n), network.fanin1(n)}) {
      const aig::node_index child = f.index();
      if (!network.is_gate(child) || is_leaf(child)) continue;
      auto [it, inserted] = remaining.try_emplace(child, fanout[child]);
      if (--it->second == 0) stack.push_back(child);
    }
  }
  return count;
}

void mffc_calculator::attach(const aig& network) {
  nodes_.assign(network.size(), node_record{});
  network.foreach_gate([&](aig::node_index n) {
    const aig::node_index a = network.fanin0(n).index();
    const aig::node_index b = network.fanin1(n).index();
    nodes_[n].fanin[0] = a;
    nodes_[n].fanin[1] = b;
    ++nodes_[a].fanout;
    ++nodes_[b].fanout;
  });
  network.foreach_co([&](signal s, std::size_t) { ++nodes_[s.index()].fanout; });
  epoch_ = 0;
}

unsigned mffc_calculator::size(aig::node_index root,
                               std::span<const aig::node_index> leaves) {
  ++queries_;
  if (++epoch_ == 0) {  // stamp wrap-around: invalidate all stamps
    for (node_record& r : nodes_) r.stamp = 0;
    epoch_ = 1;
  }
  // A cut has at most six leaves: a linear scan beats a binary search.
  const auto is_leaf = [&](aig::node_index n) {
    for (const aig::node_index leaf : leaves) {
      if (leaf == n) return true;
    }
    return false;
  };
  // Non-gates carry no fanins (fanin[0] == null_node).
  const auto is_gate = [](const node_record& r) {
    return r.fanin[0] != aig::null_node;
  };

  unsigned count = 0;
  stack_.clear();
  stack_.push_back(root);
  while (!stack_.empty()) {
    const aig::node_index n = stack_.back();
    stack_.pop_back();
    const node_record& r = nodes_[n];
    if (!is_gate(r) || is_leaf(n)) continue;
    ++count;
    for (const aig::node_index child : r.fanin) {
      node_record& c = nodes_[child];
      if (!is_gate(c) || is_leaf(child)) continue;
      if (c.stamp != epoch_) {
        c.stamp = epoch_;
        c.remaining = c.fanout;
      }
      if (--c.remaining == 0) stack_.push_back(child);
    }
  }
  return count;
}

}  // namespace xsfq
