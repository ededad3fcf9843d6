/// Parity tests for the allocation-free cut engine and opt_engine: the arena
/// enumeration must match a straightforward reference implementation cut for
/// cut (leaves, order, functions), optimize must reproduce the recorded seed
/// results on the ISCAS circuits, and every pass must stay simulation-
/// equivalent when run through one reused engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "aig/cuts.hpp"
#include "aig/simulate.hpp"
#include "benchgen/registry.hpp"
#include "opt/balance.hpp"
#include "opt/cut_rewriting.hpp"
#include "opt/opt_engine.hpp"
#include "opt/script.hpp"
#include "util/rng.hpp"

namespace xsfq {
namespace {

/// Deterministic random AIG generator for property testing.
aig random_aig(unsigned num_pis, unsigned num_gates, std::uint64_t seed) {
  rng gen(seed);
  aig g;
  std::vector<signal> pool;
  for (unsigned i = 0; i < num_pis; ++i) pool.push_back(g.create_pi());
  for (unsigned i = 0; i < num_gates; ++i) {
    const signal a = pool[gen.below(pool.size())] ^ gen.flip();
    const signal b = pool[gen.below(pool.size())] ^ gen.flip();
    pool.push_back(g.create_and(a, b));
  }
  for (unsigned i = 0; i < 4 && i < pool.size(); ++i) {
    g.create_po(pool[pool.size() - 1 - i] ^ gen.flip());
  }
  return g.cleanup();
}

// ----- reference enumerator (the historical vector-of-vectors algorithm) ---

struct ref_cut {
  std::vector<aig::node_index> leaves;
  truth_table function;
  std::uint64_t signature = 0;

  [[nodiscard]] bool dominates(const ref_cut& other) const {
    if (leaves.size() > other.leaves.size()) return false;
    if ((signature & ~other.signature) != 0) return false;
    return std::includes(other.leaves.begin(), other.leaves.end(),
                         leaves.begin(), leaves.end());
  }
};

std::uint64_t ref_signature(const std::vector<aig::node_index>& leaves) {
  std::uint64_t s = 0;
  for (auto l : leaves) s |= std::uint64_t{1} << (l & 63u);
  return s;
}

bool ref_merge(const std::vector<aig::node_index>& a,
               const std::vector<aig::node_index>& b, unsigned k,
               std::vector<aig::node_index>& out) {
  out.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (out.size() > k) return false;
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      out.push_back(a[i++]);
    } else if (i == a.size() || b[j] < a[i]) {
      out.push_back(b[j++]);
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return out.size() <= k;
}

/// Bit-by-bit re-expression over a superset leaf set (the old hot loop).
truth_table ref_expand(const truth_table& t,
                       const std::vector<aig::node_index>& from,
                       const std::vector<aig::node_index>& to) {
  const auto num_vars = static_cast<unsigned>(to.size());
  std::vector<unsigned> position(from.size());
  for (std::size_t i = 0; i < from.size(); ++i) {
    const auto it = std::lower_bound(to.begin(), to.end(), from[i]);
    position[i] = static_cast<unsigned>(it - to.begin());
  }
  truth_table result(num_vars);
  const std::uint64_t bits = result.num_bits();
  for (std::uint64_t m = 0; m < bits; ++m) {
    std::uint64_t src = 0;
    for (std::size_t i = 0; i < from.size(); ++i) {
      if ((m >> position[i]) & 1u) src |= std::uint64_t{1} << i;
    }
    if (t.bit(src)) result.set_bit(m);
  }
  return result;
}

node_map<std::vector<ref_cut>> ref_enumerate(const aig& network,
                                             const cut_params& params) {
  node_map<std::vector<ref_cut>> cuts(network);
  auto make_trivial = [](aig::node_index n) {
    ref_cut c;
    c.leaves = {n};
    c.function = truth_table::nth_var(1, 0);
    c.signature = ref_signature(c.leaves);
    return c;
  };
  network.foreach_ci([&](signal s, std::size_t) {
    cuts[s.index()].push_back(make_trivial(s.index()));
  });
  {
    ref_cut c;
    c.function = truth_table::zeros(0);
    cuts[0].push_back(c);
  }
  std::vector<aig::node_index> merged;
  network.foreach_gate([&](aig::node_index n) {
    const signal f0 = network.fanin0(n);
    const signal f1 = network.fanin1(n);
    auto& out = cuts[n];
    for (const ref_cut& c0 : cuts[f0.index()]) {
      for (const ref_cut& c1 : cuts[f1.index()]) {
        if (!ref_merge(c0.leaves, c1.leaves, params.cut_size, merged)) {
          continue;
        }
        ref_cut c;
        c.leaves = merged;
        c.signature = ref_signature(c.leaves);
        bool dominated = false;
        for (const ref_cut& existing : out) {
          if (existing.dominates(c)) {
            dominated = true;
            break;
          }
        }
        if (dominated) continue;
        std::erase_if(out,
                      [&](const ref_cut& existing) { return c.dominates(existing); });
        const truth_table t0 = ref_expand(c0.function, c0.leaves, c.leaves);
        const truth_table t1 = ref_expand(c1.function, c1.leaves, c.leaves);
        c.function = (f0.is_complemented() ? ~t0 : t0) &
                     (f1.is_complemented() ? ~t1 : t1);
        out.push_back(std::move(c));
        if (out.size() >= params.cut_limit) break;
      }
      if (out.size() >= params.cut_limit) break;
    }
    if (params.include_trivial) out.push_back(make_trivial(n));
  });
  return cuts;
}

void expect_identical_cut_sets(const aig& g, const cut_params& params) {
  const auto reference = ref_enumerate(g, params);
  const cut_set engine_cuts = enumerate_cuts(g, params);
  g.foreach_node([&](aig::node_index n) {
    const auto set = engine_cuts[n];
    ASSERT_EQ(set.size(), reference[n].size()) << "node " << n;
    for (std::size_t i = 0; i < set.size(); ++i) {
      const cut& c = set[i];
      const ref_cut& r = reference[n][i];
      EXPECT_TRUE(std::ranges::equal(c.leaves(), r.leaves))
          << "node " << n << " cut " << i;
      EXPECT_EQ(c.signature(), r.signature) << "node " << n << " cut " << i;
      EXPECT_EQ(c.function(), r.function) << "node " << n << " cut " << i;
    }
  });
}

std::vector<std::string> registry_names() {
  std::vector<std::string> names;
  for (const auto& e : benchgen::all_benchmarks()) names.push_back(e.name);
  return names;
}

/// gtest parameter names allow only [A-Za-z0-9_]; "s420.1" -> "s420_1".
std::string param_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '.') c = '_';
  }
  return name;
}

/// One instance per registry circuit, so `ctest -j` spreads the suite.
class CutEngineRegistry : public ::testing::TestWithParam<std::string> {};

TEST_P(CutEngineRegistry, MatchesReferenceEnumeration) {
  const aig g = benchgen::make_benchmark(GetParam());
  // Both parameter sets optimize uses: rewrite (4, 10), refactor (6, 8).
  expect_identical_cut_sets(g, {4, 10, true});
  expect_identical_cut_sets(g, {6, 8, true});
}

INSTANTIATE_TEST_SUITE_P(Registry, CutEngineRegistry,
                         ::testing::ValuesIn(registry_names()), param_name);

TEST(CutEngine, RejectsCutSizeAboveSix) {
  const aig g = benchgen::make_benchmark("c432");
  cut_engine engine;
  EXPECT_THROW(engine.enumerate(g, {7, 8, true}), std::invalid_argument);
  EXPECT_THROW(refactor(g, 8), std::invalid_argument);
  EXPECT_NO_THROW(engine.enumerate(g, {6, 8, true}));
}

TEST(CutEngine, CutLimitSizesTheNodeScratch) {
  // No fixed per-node capacity: a limit far above any node's cut count, and
  // the degenerate limit 0, both enumerate exactly like the reference.
  for (std::uint64_t seed : {5u, 6u}) {
    expect_identical_cut_sets(random_aig(6, 80, seed), {4, 1000, true});
    expect_identical_cut_sets(random_aig(6, 80, seed), {3, 0, true});
  }
}

TEST(CutEngine, OptimizeRejectsWideRefactorCutsBeforeAnyPass) {
  const aig g = benchgen::make_benchmark("c432");
  optimize_params params;
  params.refactor_cut_size = 7;
  opt_engine engine;
  EXPECT_THROW(engine.optimize(g, params), std::invalid_argument);
  EXPECT_EQ(engine.counters().passes, 0u);
  EXPECT_THROW(optimize(g, params), std::invalid_argument);
}

TEST(CutEngine, PartitionedOptimizeRejectsWideRefactorCutsBeforeAnyPass) {
  const aig g = benchgen::make_benchmark("c880");
  bool ran = false;
  optimize_params params;
  params.refactor_cut_size = 7;
  params.executor = [&ran](std::vector<std::function<void()>>&& tasks) {
    ran = true;
    for (auto& task : tasks) task();
  };
  params.flow_jobs = 4;
  EXPECT_THROW(optimize(g, params), std::invalid_argument);
  params.flow_jobs = 1;
  params.partition_grain = 64;
  EXPECT_THROW(optimize(g, params), std::invalid_argument);
  EXPECT_FALSE(ran);
}

TEST(CutEngine, MatchesReferenceOnRandomNetworks) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    expect_identical_cut_sets(random_aig(6, 80, seed), {4, 10, true});
    expect_identical_cut_sets(random_aig(8, 120, seed + 100), {5, 6, false});
  }
}

TEST(CutEngine, ReusedEngineMatchesFreshEngine) {
  const aig a = benchgen::make_benchmark("c432");
  const aig b = random_aig(6, 90, 7);
  cut_engine reused;
  // Warm the arena on a different network first, then on the target: the
  // recycled buffers must not leak state between enumerations.
  reused.enumerate(b, {4, 10, true});
  const cut_set& warm = reused.enumerate(a, {4, 10, true});
  const cut_set fresh = enumerate_cuts(a, {4, 10, true});
  ASSERT_EQ(warm.num_cuts(), fresh.num_cuts());
  a.foreach_node([&](aig::node_index n) {
    const auto ws = warm[n];
    const auto fs = fresh[n];
    ASSERT_EQ(ws.size(), fs.size());
    for (std::size_t i = 0; i < ws.size(); ++i) {
      EXPECT_TRUE(std::ranges::equal(ws[i].leaves(), fs[i].leaves()));
      EXPECT_EQ(ws[i].function(), fs[i].function());
    }
  });
}

TEST(CutEngine, MffcCalculatorMatchesFreeFunction) {
  const aig g = benchgen::make_benchmark("c880");
  const auto fanout = g.compute_fanout_counts();
  const auto cuts = enumerate_cuts(g, {4, 10, true});
  mffc_calculator calc;
  calc.attach(g);
  g.foreach_gate([&](aig::node_index n) {
    for (const cut& c : cuts[n]) {
      const std::vector<aig::node_index> leaves(c.leaves().begin(),
                                                c.leaves().end());
      EXPECT_EQ(calc.size(n, c.leaves()), mffc_size(g, n, leaves, fanout));
    }
  });
  EXPECT_GT(calc.num_queries(), 0u);
}

// ----- golden optimize results (recorded from the seed implementation) -----

TEST(CutEngine, OptimizeReproducesSeedResults) {
  struct golden {
    const char* name;
    std::size_t gates;
    unsigned depth;
  };
  // Recorded from the pre-refactor engine (PR 1 tree, gcc Release).
  const golden expected[] = {{"c432", 143, 30}, {"c880", 449, 38},
                             {"c1908", 321, 20}};
  for (const auto& e : expected) {
    const aig g = benchgen::make_benchmark(e.name);
    const aig o = optimize(g);
    EXPECT_EQ(o.num_gates(), e.gates) << e.name;
    EXPECT_EQ(o.depth(), e.depth) << e.name;
    EXPECT_TRUE(random_equivalent(g, o, 64, 5)) << e.name;
  }
}

TEST(CutEngine, ReusedOptEngineMatchesFreeFunctions) {
  const aig g = benchgen::make_benchmark("c1908");
  opt_engine engine;
  // Passes through one engine, interleaved, must equal the one-shot free
  // functions (which construct a throwaway engine each).
  const aig b1 = engine.balance(g);
  const aig b2 = balance(g);
  EXPECT_EQ(b1.num_gates(), b2.num_gates());
  EXPECT_EQ(b1.depth(), b2.depth());
  const aig r1 = engine.rewrite(b1);
  const aig r2 = rewrite(b2);
  EXPECT_EQ(r1.num_gates(), r2.num_gates());
  EXPECT_EQ(r1.depth(), r2.depth());
  const aig f1 = engine.refactor(r1);
  const aig f2 = refactor(r2);
  EXPECT_EQ(f1.num_gates(), f2.num_gates());
  EXPECT_EQ(f1.depth(), f2.depth());
  EXPECT_TRUE(random_equivalent(f1, f2, 32, 3));

  optimize_stats st;
  const aig o1 = engine.optimize(g, {}, &st);
  const aig o2 = optimize(g);
  EXPECT_EQ(o1.num_gates(), o2.num_gates());
  EXPECT_EQ(o1.depth(), o2.depth());
  EXPECT_GT(st.work.passes, 0u);
  EXPECT_GT(st.work.cuts_enumerated, 0u);
  EXPECT_GT(st.work.mffc_queries, 0u);
  EXPECT_GT(st.work.cut_arena_bytes, 0u);
}

TEST(CutEngine, EveryPassStaysEquivalentThroughOneEngine) {
  const aig g = benchgen::make_benchmark("c880");
  opt_engine engine;
  aig current = g;
  for (const char* pass : {"b", "rw", "rf", "b", "rwz", "rfz", "clean"}) {
    const aig next = engine.run_pass(current, pass);
    ASSERT_TRUE(random_equivalent(g, next, 48, 3))
        << "pass " << pass << " broke equivalence";
    current = next;
  }
}

TEST(CutEngine, SequentialPassesPreserveRegisters) {
  const aig g = benchgen::make_benchmark("s298");
  opt_engine engine;
  const aig o = engine.optimize(g);
  EXPECT_EQ(o.num_registers(), g.num_registers());
  EXPECT_TRUE(random_sequential_equivalent(g, o, 8, 64));
}

}  // namespace
}  // namespace xsfq
