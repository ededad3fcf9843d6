#include <gtest/gtest.h>

#include <algorithm>

#include "aig/cuts.hpp"
#include "aig/npn.hpp"
#include "aig/simulate.hpp"
#include "benchgen/iscas85.hpp"
#include "util/rng.hpp"

namespace xsfq {
namespace {

aig small_test_network() {
  aig g;
  const signal a = g.create_pi();
  const signal b = g.create_pi();
  const signal c = g.create_pi();
  const signal d = g.create_pi();
  const signal x = g.create_and(a, b);
  const signal y = g.create_or(c, d);
  g.create_po(g.create_xor(x, y));
  return g;
}

TEST(Cuts, LeavesAreSortedAndUnique) {
  const aig g = benchgen::make_c432();
  const auto cuts = enumerate_cuts(g, {4, 8, true});
  g.foreach_gate([&](aig::node_index n) {
    for (const cut& c : cuts[n]) {
      EXPECT_LE(c.size(), 4u);
      const auto leaves = c.leaves();
      for (std::size_t i = 1; i < leaves.size(); ++i) {
        EXPECT_LT(leaves[i - 1], leaves[i]);
      }
      EXPECT_EQ(c.function().num_vars(), c.size());
    }
  });
}

TEST(Cuts, TrivialCutPresent) {
  const aig g = small_test_network();
  const auto cuts = enumerate_cuts(g);
  g.foreach_gate([&](aig::node_index n) {
    bool found = false;
    for (const cut& c : cuts[n]) {
      if (c.size() == 1 && c.leaves()[0] == n) found = true;
    }
    EXPECT_TRUE(found);
  });
}

TEST(Cuts, FunctionsMatchSimulation) {
  const aig g = small_test_network();
  const auto cuts = enumerate_cuts(g);
  // Check every cut function by exhaustive evaluation over the PIs.
  const auto node_tables = [&] {
    std::vector<truth_table> tt(g.size(), truth_table(4));
    g.foreach_ci([&](signal s, std::size_t i) {
      tt[s.index()] = truth_table::nth_var(4, static_cast<unsigned>(i));
    });
    g.foreach_gate([&](aig::node_index n) {
      const signal f0 = g.fanin0(n);
      const signal f1 = g.fanin1(n);
      const auto t0 = f0.is_complemented() ? ~tt[f0.index()] : tt[f0.index()];
      const auto t1 = f1.is_complemented() ? ~tt[f1.index()] : tt[f1.index()];
      tt[n] = t0 & t1;
    });
    return tt;
  }();

  g.foreach_gate([&](aig::node_index n) {
    for (const cut& c : cuts[n]) {
      // Evaluate the cut function on the leaves' global tables.
      const auto leaves = c.leaves();
      for (std::uint64_t m = 0; m < 16; ++m) {
        std::uint64_t leaf_values = 0;
        for (std::size_t i = 0; i < leaves.size(); ++i) {
          if (node_tables[leaves[i]].bit(m)) leaf_values |= 1u << i;
        }
        EXPECT_EQ(c.function().bit(leaf_values), node_tables[n].bit(m))
            << "node " << n;
      }
    }
  });
}

TEST(Cuts, DominatedCutsPruned) {
  const aig g = benchgen::make_c432();
  const auto cuts = enumerate_cuts(g, {4, 10, true});
  g.foreach_gate([&](aig::node_index n) {
    const auto set = cuts[n];
    for (std::size_t i = 0; i < set.size(); ++i) {
      for (std::size_t j = 0; j < set.size(); ++j) {
        if (i == j) continue;
        // No strict domination between stored cuts (trivial cut excepted:
        // it is appended last and may be dominated by a unit cut).
        if (set[i].size() == 1 && set[i].leaves()[0] == n) continue;
        if (set[j].size() == 1 && set[j].leaves()[0] == n) continue;
        if (set[i].dominates(set[j])) {
          EXPECT_TRUE(std::ranges::equal(set[i].leaves(), set[j].leaves()));
        }
      }
    }
  });
}

TEST(Mffc, SingleOutputChain) {
  aig g;
  const signal a = g.create_pi();
  const signal b = g.create_pi();
  const signal c = g.create_pi();
  const signal x = g.create_and(a, b);
  const signal y = g.create_and(x, c);
  g.create_po(y);
  const auto fanout = g.compute_fanout_counts();
  // MFFC of y over PIs includes both gates.
  EXPECT_EQ(mffc_size(g, y.index(),
                      {a.index(), b.index(), c.index()}, fanout),
            2u);
  // If x is also a leaf, only y dies (leaves must be sorted ascending).
  EXPECT_EQ(mffc_size(g, y.index(), {c.index(), x.index()}, fanout), 1u);
}

TEST(Mffc, SharedNodeNotCounted) {
  aig g;
  const signal a = g.create_pi();
  const signal b = g.create_pi();
  const signal c = g.create_pi();
  const signal x = g.create_and(a, b);
  const signal y = g.create_and(x, c);
  g.create_po(y);
  g.create_po(x);  // x has another user
  const auto fanout = g.compute_fanout_counts();
  EXPECT_EQ(mffc_size(g, y.index(),
                      {a.index(), b.index(), c.index()}, fanout),
            1u);
}

// ----- NPN ---------------------------------------------------------------

TEST(Npn, ApplyIdentity) {
  for (std::uint32_t f : {0x0000u, 0xAAAAu, 0x1234u, 0xFFFFu, 0x8001u}) {
    EXPECT_EQ(npn4_apply(static_cast<std::uint16_t>(f), npn4_transform{}),
              f);
  }
}

TEST(Npn, CanonicalizeIsClassInvariant) {
  rng gen(7);
  for (int round = 0; round < 50; ++round) {
    const auto f = static_cast<std::uint16_t>(gen() & 0xFFFF);
    const auto [canon, t] = npn4_canonicalize(f);
    EXPECT_EQ(npn4_apply(f, t), canon);
    // Any transformed version canonicalizes to the same representative.
    npn4_transform random_t;
    random_t.perm = {1, 3, 0, 2};
    random_t.input_neg_mask = static_cast<std::uint8_t>(gen() & 0xF);
    random_t.output_neg = gen.flip();
    const auto g2 = npn4_apply(f, random_t);
    EXPECT_EQ(npn4_canonicalize(g2).first, canon);
  }
}

TEST(Npn, CanonicalIsMinimal) {
  rng gen(13);
  for (int round = 0; round < 20; ++round) {
    const auto f = static_cast<std::uint16_t>(gen() & 0xFFFF);
    const auto [canon, t] = npn4_canonicalize(f);
    EXPECT_LE(canon, f);
  }
}

TEST(Npn, ClassCountIs222) {
  EXPECT_EQ(npn4_class_representatives().size(), 222u);
}

TEST(Npn, RealizationReconstructsFunction) {
  rng gen(29);
  for (int round = 0; round < 50; ++round) {
    const auto f = static_cast<std::uint16_t>(gen() & 0xFFFF);
    const auto [canon, t] = npn4_canonicalize(f);
    const auto r = realization_from_transform(t);
    // f(y) = canon(x) ^ out, x_v = y[leaf_of_var[v]] ^ leaf_complemented[v].
    for (unsigned y = 0; y < 16; ++y) {
      unsigned x = 0;
      for (unsigned v = 0; v < 4; ++v) {
        const bool bit =
            (((y >> r.leaf_of_var[v]) & 1u) != 0) != r.leaf_complemented[v];
        if (bit) x |= 1u << v;
      }
      const bool canon_bit = ((canon >> x) & 1u) != 0;
      EXPECT_EQ(canon_bit != r.output_complemented, ((f >> y) & 1u) != 0)
          << "f=" << f;
    }
  }
}

}  // namespace
}  // namespace xsfq
