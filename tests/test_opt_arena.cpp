/// Pins for the zero-rebuild optimization pipeline (in-place balance/map on
/// recycled network arenas, partitioned intra-flow parallelism):
///  * golden fingerprints of every registry circuit, recorded from the
///    pre-refactor pipeline — later rewrites of the engine must be
///    bit-identical end to end (optimized AIG, mapped netlist, emitted
///    Verilog);
///  * a test-local copy of the pre-refactor balance algorithm diffed against
///    the in-place engine on every ISCAS pin circuit;
///  * steady-state allocation counts: after one warm-up, optimize and map
///    must run with a small constant number of heap allocations (arena
///    reuse across >= 3 runs);
///  * partitioned optimize: deterministic (inline == threads == pool) for
///    every partition count 1..8, equivalent to the input, and exactly the
///    sequential script at flow_jobs = 1;
///  * the single-word ISOP fast path against the truth_table recursion.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "aig/simulate.hpp"
#include "benchgen/registry.hpp"
#include "core/mapper.hpp"
#include "core/xsfq_writer.hpp"
#include "flow/batch_runner.hpp"
#include "flow/flow.hpp"
#include "opt/opt_engine.hpp"
#include "opt/partition.hpp"
#include "opt/script.hpp"
#include "util/hash.hpp"
#include "util/isop.hpp"
#include "util/rng.hpp"

using namespace xsfq;


// ---------------------------------------------------------------------------
// Allocation counting: every scalar operator new in this binary bumps the
// counter, so a window delta counts the heap traffic of the code under test.
// ---------------------------------------------------------------------------

namespace {
std::atomic<long> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

long alloc_count() { return g_alloc_count.load(std::memory_order_relaxed); }

std::uint64_t verilog_hash(const mapping_result& mapped, const char* name) {
  return hash_mix_str(0x9E3779B97F4A7C15ull,
                      write_xsfq_verilog_string(mapped, name));
}

// ---------------------------------------------------------------------------
// The pre-refactor balance pass, verbatim (fresh destination network, copy
// out, cleanup): the reference copy path the in-place engine must match.
// ---------------------------------------------------------------------------

void reference_collect_conjuncts(const aig& network, aig::node_index n,
                                 const std::vector<std::uint32_t>& fanout,
                                 std::vector<xsfq::signal>& leaves) {
  for (const xsfq::signal f : {network.fanin0(n), network.fanin1(n)}) {
    if (!f.is_complemented() && network.is_gate(f.index()) &&
        fanout[f.index()] == 1) {
      reference_collect_conjuncts(network, f.index(), fanout, leaves);
    } else {
      leaves.push_back(f);
    }
  }
}

aig reference_balance(const aig& network) {
  const auto fanout = network.compute_fanout_counts();

  aig dest;
  std::vector<xsfq::signal> map(network.size(), dest.get_constant(false));
  std::vector<std::uint32_t> dest_level(1, 0);

  auto level_of = [&](xsfq::signal s) { return dest_level[s.index()]; };
  auto create_and_leveled = [&](xsfq::signal a, xsfq::signal b) {
    const xsfq::signal r = dest.create_and(a, b);
    if (r.index() >= dest_level.size()) {
      dest_level.resize(r.index() + 1, 1 + std::max(level_of(a), level_of(b)));
    }
    return r;
  };

  for (std::size_t i = 0; i < network.num_pis(); ++i) {
    const xsfq::signal s = dest.create_pi(network.pi_name(i));
    map[network.pi(i).index()] = s;
    dest_level.resize(s.index() + 1, 0);
  }
  for (std::size_t i = 0; i < network.num_registers(); ++i) {
    const xsfq::signal s = dest.create_register_output(network.register_at(i).init,
                                                 network.register_name(i));
    map[network.register_at(i).output_node] = s;
    dest_level.resize(s.index() + 1, 0);
  }

  std::vector<bool> is_root(network.size(), false);
  network.foreach_gate([&](aig::node_index n) {
    for (const xsfq::signal f : {network.fanin0(n), network.fanin1(n)}) {
      if (network.is_gate(f.index()) &&
          (f.is_complemented() || fanout[f.index()] != 1)) {
        is_root[f.index()] = true;
      }
    }
  });
  network.foreach_co([&](xsfq::signal s, std::size_t) {
    if (network.is_gate(s.index())) is_root[s.index()] = true;
  });

  using item = std::pair<std::uint32_t, xsfq::signal>;
  auto cmp = [](const item& a, const item& b) { return a.first > b.first; };

  network.foreach_gate([&](aig::node_index n) {
    if (!is_root[n]) return;
    std::vector<xsfq::signal> conjuncts;
    reference_collect_conjuncts(network, n, fanout, conjuncts);

    std::vector<item> heap;
    for (const xsfq::signal c : conjuncts) {
      const xsfq::signal m = map[c.index()] ^ c.is_complemented();
      heap.emplace_back(level_of(m), m);
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
    while (heap.size() > 1) {
      const item a = heap.front();
      std::pop_heap(heap.begin(), heap.end(), cmp);
      heap.pop_back();
      const item b = heap.front();
      std::pop_heap(heap.begin(), heap.end(), cmp);
      heap.pop_back();
      const xsfq::signal r = create_and_leveled(a.second, b.second);
      heap.emplace_back(level_of(r), r);
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
    map[n] = heap.front().second;
  });

  for (std::size_t i = 0; i < network.num_pos(); ++i) {
    const xsfq::signal po = network.po_signal(i);
    dest.create_po(map[po.index()] ^ po.is_complemented(),
                   network.po_name(i));
  }
  for (std::size_t i = 0; i < network.num_registers(); ++i) {
    const auto& reg = network.register_at(i);
    if (reg.input_set) {
      dest.set_register_input(i, map[reg.input.index()] ^
                                     reg.input.is_complemented());
    }
  }
  return dest.cleanup();
}

const char* const kPinCircuits[] = {"c432", "c880", "c1908", "c6288"};

}  // namespace

// ---------------------------------------------------------------------------
// Bit-identity vs the pre-refactor copy pipeline.
// ---------------------------------------------------------------------------

namespace {

struct golden {
  const char* name;
  std::size_t gates;
  unsigned depth;
  std::uint64_t content_hash;
  std::size_t netlist_elements;
  std::size_t jj;
  std::uint64_t verilog_hash;
};

// The whole registry, gcc Release.  c432, c880, c1908 and c6288 were
// recorded with the copy-out passes and per-call mapper, immediately before
// the network-arena refactor; the other 34 immediately before the flat cut
// kernel.  Neither rewrite moved any of the 38.
const golden kGolden[] = {
      {"c432", 143u, 30u, 0x8C4AD169DF088ECAull, 403u, 1166u,
       0xEC8783A56B8EF953ull},
      {"c499", 540u, 22u, 0xD36F7B977E838905ull, 2032u, 6738u,
       0xF7E5A2638E05DC98ull},
      {"c880", 449u, 38u, 0x3C2EC18836CAAE1Aull, 1706u, 5507u,
       0xD8C1DB5FF9D86987ull},
      {"c1355", 540u, 22u, 0xD36F7B977E838905ull, 2032u, 6738u,
       0x2EC83078C39BC3D1ull},
      {"c1908", 321u, 20u, 0xBD3FCF1E8B794FBEull, 1230u, 4004u,
       0x582A15FDF748FB02ull},
      {"c2670", 651u, 32u, 0xF7E2B98DE392A9ABull, 1913u, 5461u,
       0xCC0D193C3066B152ull},
      {"c3540", 437u, 29u, 0x483F191D0275134Aull, 1346u, 4316u,
       0xF4322E3907201BEBull},
      {"c5315", 1086u, 29u, 0x234A623593DB9BCCull, 3672u, 11252u,
       0x74888666DD40ECB8ull},
      {"c6288", 2704u, 128u, 0xDF904711FED958ACull, 10668u, 37018u,
       0xCD4CB37CFE410FA4ull},
      {"c7552", 1502u, 67u, 0xC93C3DD910B919F8ull, 4847u, 15270u,
       0x1EF14DD27A5A066Bull},
      {"arbiter", 1270u, 133u, 0x207815037AB405CFull, 3562u, 10415u,
       0x961B5B98F64B3D5Dull},
      {"cavlc", 54u, 11u, 0xFACD767B71644F95ull, 172u, 498u,
       0x4C91E22C5F1E6F68ull},
      {"ctrl", 51u, 8u, 0x3EA18EA9F0A9EF75ull, 184u, 498u,
       0x55F6556D5193FCBBull},
      {"dec", 312u, 4u, 0x08CC494854CA7E75ull, 1136u, 2904u,
       0x4F98CDEE09AD1A3Eull},
      {"i2c", 412u, 17u, 0x2996D5434F5BB0EAull, 1303u, 3062u,
       0xDBF146DA1B955595ull},
      {"int2float", 80u, 11u, 0x7E8551461F0A9FF4ull, 177u, 525u,
       0x091028F062FC73F3ull},
      {"mem_ctrl", 312u, 19u, 0x89D44C2A19A83B31ull, 926u, 2174u,
       0xB1CC692E2F621244ull},
      {"priority", 494u, 142u, 0x82430C90C00A447Bull, 1005u, 2717u,
       0x7EE6F0B5C971870Aull},
      {"router", 381u, 15u, 0x482A31D57F8C8F3Dull, 1172u, 3622u,
       0x7FF14497303D3E35ull},
      {"voter", 10797u, 58u, 0x1C4DB13614A83580ull, 43096u, 144826u,
       0xFDF89308A02693ACull},
      {"voter_sop", 112u, 21u, 0x2B362798CBAC1DABull, 241u, 742u,
       0x49A71D55699D0184ull},
      {"sin", 9949u, 297u, 0x59FE2D9D5540B6AFull, 39416u, 137712u,
       0x78F851742044E11Eull},
      {"s27", 21u, 7u, 0xB151D3DC884E8857ull, 58u, 270u,
       0x693362DBCA75E0DDull},
      {"s298", 144u, 10u, 0xA07933BCD92A8AB1ull, 408u, 1966u,
       0x678D31984BC899A1ull},
      {"s344", 363u, 17u, 0x0B36499600074BB6ull, 1125u, 4649u,
       0xB4DBBC33BFA4AA4Cull},
      {"s349", 379u, 16u, 0x2BDE349200F47519ull, 1311u, 5394u,
       0x93726F74F35EBABDull},
      {"s382", 187u, 9u, 0x573257ACB38C9008ull, 579u, 2849u,
       0xEFF235ED928ACD1Full},
      {"s386", 148u, 11u, 0x54569660D46B0D32ull, 469u, 1970u,
       0x1A2C7B8E45C4CDD3ull},
      {"s400", 163u, 9u, 0xAD0A31AE075F759Dull, 487u, 2442u,
       0x9B31EEF2BB9DC786ull},
      {"s420.1", 96u, 19u, 0xED010776216E6576ull, 257u, 1245u,
       0x8E91D14F5EBBDEE4ull},
      {"s444", 183u, 10u, 0xE706D653B964DEB3ull, 543u, 2695u,
       0xAAFCCA79FB5CB1E9ull},
      {"s510", 258u, 17u, 0x841EA38BCCE88FA6ull, 902u, 3433u,
       0xA09D5D04B6656BD2ull},
      {"s526", 180u, 9u, 0xAEB3DE5EF4578CBFull, 524u, 2656u,
       0x349759C7030CB6B5ull},
      {"s641", 1677u, 36u, 0x42E01822A2C186FDull, 6139u, 23677u,
       0x9F3F0E433A55DE5Eull},
      {"s713", 1550u, 33u, 0x7935C0D35BC78B2Aull, 5570u, 21493u,
       0xF4DB6AF2FA4F8CD5ull},
      {"s820", 577u, 23u, 0xC9C3C00FB8C94EB5ull, 1933u, 7401u,
       0xBBBF72C46E8D60A4ull},
      {"s832", 651u, 23u, 0x4B8F566705B81199ull, 2156u, 8134u,
       0x31117899DFDCB3ECull},
      {"s838.1", 192u, 35u, 0x336690F1844B7134ull, 513u, 2493u,
       0xB3B8F0063A6C93EBull},
};

/// Names the circuit in test listings instead of dumping the struct's bytes.
void PrintTo(const golden& e, std::ostream* os) { *os << e.name; }

}  // namespace

class OptArenaGolden : public ::testing::TestWithParam<golden> {};

TEST_P(OptArenaGolden, FingerprintsMatchPreRefactorPipeline) {
  const golden& e = GetParam();
  const aig g = benchgen::make_benchmark(e.name);
  const aig o = optimize(g);
  EXPECT_EQ(o.num_gates(), e.gates) << e.name;
  EXPECT_EQ(o.depth(), e.depth) << e.name;
  EXPECT_EQ(o.content_hash(), e.content_hash) << e.name;
  const mapping_result m = map_to_xsfq(o);
  EXPECT_EQ(m.netlist.size(), e.netlist_elements) << e.name;
  EXPECT_EQ(m.stats.jj, e.jj) << e.name;
  EXPECT_EQ(verilog_hash(m, e.name), e.verilog_hash) << e.name;
}

TEST(OptArena, GoldenTableCoversTheRegistry) {
  std::vector<std::string> pinned;
  for (const golden& e : kGolden) pinned.emplace_back(e.name);
  std::vector<std::string> registry;
  for (const auto& e : benchgen::all_benchmarks()) registry.push_back(e.name);
  EXPECT_EQ(pinned, registry);
}

// One instance per circuit, so `ctest -j` spreads the registry.
INSTANTIATE_TEST_SUITE_P(
    Registry, OptArenaGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<golden>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '.') c = '_';  // gtest names allow only [A-Za-z0-9_]
      }
      return name;
    });

TEST(OptArena, InPlaceBalanceMatchesReferenceCopyPath) {
  opt_engine engine;
  for (const char* name : kPinCircuits) {
    const aig g = benchgen::make_benchmark(name);
    const aig in_place = engine.balance(g);
    const aig reference = reference_balance(g);
    EXPECT_EQ(in_place.content_hash(), reference.content_hash()) << name;
    // And again through the warm engine: arena reuse must not leak state.
    const aig warm = engine.balance(g);
    EXPECT_EQ(warm.content_hash(), reference.content_hash()) << name;
  }
}

TEST(OptArena, RecycledMapperMatchesFreshMapperAcrossCircuits) {
  xsfq_mapper recycled;
  mapping_result reused;
  for (const char* name : kPinCircuits) {
    const aig o = optimize(benchgen::make_benchmark(name));
    xsfq_mapper fresh;
    const mapping_result expected = fresh.map(o);
    recycled.map_into(o, {}, reused);  // buffers warmed by previous circuits
    EXPECT_EQ(reused.netlist.size(), expected.netlist.size()) << name;
    EXPECT_EQ(reused.stats.jj, expected.stats.jj) << name;
    EXPECT_EQ(write_xsfq_verilog_string(reused, name),
              write_xsfq_verilog_string(expected, name))
        << name;
  }
}

// ---------------------------------------------------------------------------
// Steady-state allocation pins (arena reuse across >= 3 runs).
// ---------------------------------------------------------------------------

TEST(OptArena, OptimizeSteadyStateAllocationsNearZero) {
  const aig g = benchgen::make_benchmark("c880");
  opt_engine engine;
  aig first = engine.optimize(g);  // cold: arenas and caches reach high water
  const long cold = alloc_count();
  aig warmup = engine.optimize(g);
  const long after_warmup = alloc_count();
  (void)warmup;
  for (int run = 0; run < 3; ++run) {
    const long before = alloc_count();
    const aig out = engine.optimize(g);
    const long steady = alloc_count() - before;
    EXPECT_EQ(out.content_hash(), first.content_hash());
    // The only allocations left are the returned network's own buffers (the
    // one copy that leaves the arena) — a small constant, not O(passes) or
    // O(nodes) many.
    EXPECT_LT(steady, 64) << "run " << run;
  }
  // The warm-up itself must already be in the recycled regime relative to
  // the cold run (which built arenas, caches, and the baked-library mirror).
  EXPECT_LT((after_warmup - cold) * 4, cold);
}

TEST(OptArena, BalanceAndMapSteadyStateAllocationsNearZero) {
  const aig g = benchgen::make_benchmark("c880");
  opt_engine engine;
  const aig opt = engine.optimize(g);
  xsfq_mapper mapper;
  mapping_result out;
  (void)engine.balance(opt);
  mapper.map_into(opt, {}, out);  // warm-up run
  const std::uint64_t expected = verilog_hash(out, "c880");
  for (int run = 0; run < 3; ++run) {
    const long before = alloc_count();
    const aig balanced = engine.balance(opt);
    const long balance_allocs = alloc_count() - before;
    EXPECT_GT(balanced.num_gates(), 0u);
    // balance_into writes into the recycled arena; the only allocations are
    // the returned copy's buffers.
    EXPECT_LT(balance_allocs, 32) << "run " << run;

    const long before_map = alloc_count();
    mapper.map_into(opt, {}, out);
    const long map_allocs = alloc_count() - before_map;
    EXPECT_EQ(verilog_hash(out, "c880"), expected);
    // Chains, proto elements, splitter bookkeeping, demand propagation, and
    // the output netlist are all recycled; what remains is a small constant
    // (polarity-search closure collection), not O(elements).
    EXPECT_LT(map_allocs, 64) << "run " << run;
  }
}

// ---------------------------------------------------------------------------
// Partitioned intra-flow parallelism.
// ---------------------------------------------------------------------------

TEST(OptArena, PartitionedOptimizeDeterministicForEveryPartitionCount) {
  for (const char* name : {"c880", "c1908"}) {
    const aig g = benchgen::make_benchmark(name);
    const std::uint64_t sequential = optimize(g).content_hash();
    for (unsigned jobs = 1; jobs <= 8; ++jobs) {
      optimize_params inline_params;
      inline_params.flow_jobs = jobs;
      optimize_stats st;
      partition_info info;
      const aig inline_result =
          optimize_partitioned(g, inline_params, &st, &info);

      // Same partitioning on raw threads: byte-identical to the inline run.
      optimize_params threaded = inline_params;
      threaded.executor = [](std::vector<std::function<void()>>&& tasks) {
        std::vector<std::thread> threads;
        threads.reserve(tasks.size());
        for (auto& task : tasks) threads.emplace_back(std::move(task));
        for (auto& t : threads) t.join();
      };
      const aig threaded_result = optimize_partitioned(g, threaded, nullptr);
      EXPECT_EQ(threaded_result.content_hash(), inline_result.content_hash())
          << name << " jobs=" << jobs;

      // Equivalent to the input, and jobs=1 is exactly the sequential script.
      EXPECT_TRUE(random_equivalent(g, inline_result, 32, 7))
          << name << " jobs=" << jobs;
      if (jobs == 1 || info.partitions == 1) {
        EXPECT_EQ(inline_result.content_hash(), sequential) << name;
      }
      EXPECT_GE(st.work.passes, 5u) << name << " jobs=" << jobs;
    }
  }
}

TEST(OptArena, EngineLeasesOutliveTheThreadsThatHeldThem) {
  // A short-lived thread (one daemon handler per connection) hands its warm
  // engine back; the next lease, on any thread, takes that same engine.
  const opt_engine* released = nullptr;
  std::thread([&] {
    const opt_engine::lease engine;
    released = &*engine;
    (void)engine->optimize(benchgen::make_benchmark("c432"));
  }).join();
  const opt_engine::lease again;
  EXPECT_EQ(&*again, released);
  // Concurrent leases never share an engine.
  const opt_engine::lease other;
  EXPECT_NE(&*other, &*again);
}

TEST(OptArena, PartitionedOptimizeOnBatchRunnerPoolMatchesInline) {
  const aig g = benchgen::make_benchmark("c880");
  optimize_params params;
  params.flow_jobs = 4;
  const aig inline_result = optimize_partitioned(g, params, nullptr);

  flow::batch_runner runner(4);
  params.executor = [&runner](std::vector<std::function<void()>>&& tasks) {
    runner.run_subtasks(std::move(tasks));
  };
  for (int rep = 0; rep < 3; ++rep) {
    const aig pooled = optimize_partitioned(g, params, nullptr);
    EXPECT_EQ(pooled.content_hash(), inline_result.content_hash());
  }
}

TEST(OptArena, FlowJobsJoinsFingerprintAndRunnerPath) {
  optimize_params one;
  optimize_params four;
  four.flow_jobs = 4;
  EXPECT_NE(flow::fingerprint(one), flow::fingerprint(four));

  flow::flow_options options_one;
  flow::flow_options options_four;
  options_four.opt.flow_jobs = 4;
  EXPECT_NE(flow::fingerprint(options_one), flow::fingerprint(options_four));

  // Through the cached runner: the partitioned flow result matches a direct
  // partitioned optimize, and both pool widths produce identical bytes.
  const aig g = benchgen::make_benchmark("c880");
  const aig expected = optimize_partitioned(g, four, nullptr);
  for (unsigned threads : {1u, 4u}) {
    flow::batch_runner runner(threads);
    runner.set_cache_enabled(false);
    const flow::flow_result r = runner.run_cached(g, "c880", options_four);
    EXPECT_EQ(r.optimized.content_hash(), expected.content_hash())
        << "threads=" << threads;
  }
}

TEST(OptArena, PartitionedValidationCatchesNothingOnHealthyCircuits) {
  const aig g = benchgen::make_benchmark("c499");
  optimize_params params;
  params.flow_jobs = 3;
  params.validate_passes = true;
  params.validate_rounds = 8;
  optimize_stats st;
  const aig out = optimize_partitioned(g, params, &st, nullptr);
  EXPECT_TRUE(random_equivalent(g, out, 32, 11));
  EXPECT_GT(st.work.equiv_checks, 0u);
  EXPECT_EQ(st.work.equiv_checks, st.work.passes);
}

// ---------------------------------------------------------------------------
// Counters and fast-path parity.
// ---------------------------------------------------------------------------

TEST(OptArena, ArenaCountersSurfaceThroughFlowTimings) {
  const auto r = flow::run_flow("c432");
  bool found = false;
  for (const auto& t : r.timings) {
    if (t.stage != "optimize") continue;
    found = true;
    EXPECT_GT(t.counters.arena_peak_bytes, 0u);
    EXPECT_GT(t.counters.rebuilds_avoided, 0u);
  }
  EXPECT_TRUE(found);
}

TEST(OptArena, SuiteValidationOnRecycledWorkerPlanesIsDeterministic) {
  // Per-pass validation of a whole suite runs on each worker's persistent
  // engine: one wide-sim plane pair per worker, sized by its largest
  // circuit, recycled across every entry.  Reuse must not change results or
  // per-entry sim counters — a 4-worker run (interleaved entries per
  // engine) must match a 1-worker run exactly.
  flow::flow_options options;
  options.opt.validate_passes = true;
  options.opt.validate_rounds = 8;
  const std::vector<std::string> names = {"c432", "c499", "c880", "c1355",
                                          "c1908"};
  flow::batch_runner one(1);
  one.set_cache_enabled(false);
  flow::batch_runner four(4);
  four.set_cache_enabled(false);
  const flow::batch_report r1 = one.run(names, options);
  const flow::batch_report r4 = four.run(names, options);
  ASSERT_EQ(r1.num_ok(), names.size());
  ASSERT_EQ(r4.num_ok(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const flow::flow_result& a = r1.entries[i].result;
    const flow::flow_result& b = r4.entries[i].result;
    EXPECT_EQ(a.optimized.content_hash(), b.optimized.content_hash())
        << names[i];
    bool found = false;
    for (std::size_t t = 0; t < a.timings.size(); ++t) {
      if (a.timings[t].stage != "optimize") continue;
      found = true;
      EXPECT_EQ(a.timings[t].counters.sim_words,
                b.timings[t].counters.sim_words)
          << names[i];
      EXPECT_EQ(a.timings[t].counters.sim_node_evals,
                b.timings[t].counters.sim_node_evals)
          << names[i];
      EXPECT_GT(a.timings[t].counters.sim_words, 0u) << names[i];
    }
    EXPECT_TRUE(found) << names[i];
  }
}

TEST(OptArena, SingleWordIsopMatchesTruthTableRecursion) {
  rng gen(0xFAC70Dull);
  std::vector<cube> fast;
  for (unsigned vars = 0; vars <= 6; ++vars) {
    for (int i = 0; i < 200; ++i) {
      const truth_table t =
          truth_table::from_word(vars, gen());
      const std::vector<cube> reference = isop(t);
      isop_word_into(t.word0(), vars, fast);
      ASSERT_EQ(fast.size(), reference.size()) << "vars=" << vars;
      for (std::size_t c = 0; c < fast.size(); ++c) {
        EXPECT_EQ(fast[c].pos, reference[c].pos);
        EXPECT_EQ(fast[c].neg, reference[c].neg);
      }
      // And the cover must implement the function.
      EXPECT_EQ(cover_to_table(fast, vars), t);
    }
  }
}
