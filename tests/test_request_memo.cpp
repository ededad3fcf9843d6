/// \file test_request_memo.cpp
/// \brief The runner's request memo: a repeated request is answered from a
/// result tier without building its circuit, with the same bytes and the
/// same cache accounting as a parsed request.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/registry.hpp"
#include "flow/batch_runner.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/netlist.hpp"
#include "serve/synth_service.hpp"

namespace xsfq {
namespace {

namespace fs = std::filesystem;
using namespace serve;

struct temp_dir {
  std::string path;
  temp_dir() {
    char tmpl[] = "/tmp/xsfq_memo_XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~temp_dir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Everything a response carries except the wall-clock timings.
struct response_body {
  bool ok = false;
  std::string error, report, validate_report;
  bool validate_ok = false;
  std::string verilog, dot;
  std::uint64_t content_hash = 0;
  bool operator==(const response_body&) const = default;
};

response_body body_of(const synth_response& r) {
  return {r.ok,          r.error,   r.report, r.validate_report,
          r.validate_ok, r.verilog, r.dot,    r.content_hash};
}

/// `g` as an inline netlist request, the way `xsfq_client <file>` sends it.
synth_request text_request(const std::string& name, const aig& g, bool blif) {
  synth_request req;
  req.spec = name + (blif ? ".blif" : ".bench");
  req.source = blif ? circuit_source::blif_text : circuit_source::bench_text;
  if (!blif) req.model = name;
  const netlist nl = netlist_from_aig(g, name);
  req.source_text = blif ? write_blif_string(nl) : write_bench_string(nl);
  return req;
}

const char* const and2_bench = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";

synth_request and2_request(std::string text = and2_bench) {
  synth_request req;
  req.spec = "and2.bench";
  req.source = circuit_source::bench_text;
  req.model = "and2";
  req.source_text = std::move(text);
  return req;
}

/// run_request on `req`'s text with a builder that counts its calls.
struct counted_runner {
  flow::batch_runner& runner;
  int builds = 0;

  flow::circuit_facts run(const synth_request& req) {
    flow::circuit_facts facts;
    runner.run_request(
        {static_cast<std::uint8_t>(req.source), req.source_text},
        [&] {
          ++builds;
          return load_request_circuit(req);
        },
        req.spec, options_for(req), {}, facts);
    return facts;
  }
};

TEST(RequestMemo, EveryCorpusDesignRepeatsFromTheMemoByteForByte) {
  // The serve_corpus designs: every registry circuit but sin and voter, as
  // .bench and as .blif, with Verilog and validation asked for.
  flow::batch_runner runner(1);
  flow::batch_runner cacheless(1);
  cacheless.set_cache_enabled(false);
  std::size_t texts = 0;
  for (const auto& b : benchgen::all_benchmarks()) {
    if (b.name == "sin" || b.name == "voter") continue;
    const aig g = benchgen::make_benchmark(b.name);
    for (const bool blif : {false, true}) {
      synth_request req = text_request(b.name, g, blif);
      req.want_verilog = true;
      req.validate = true;
      SCOPED_TRACE(req.spec);
      // A source enters the memo once a parsed request of it was served
      // from a result tier, so the result is stored first.
      (void)runner.run_cached_shared(load_request_circuit(req), req.spec,
                                     options_for(req));
      const std::uint64_t hits = runner.cache_stats().request_hits;
      const synth_response first = run_synth(req, runner);
      EXPECT_EQ(runner.cache_stats().request_hits, hits);
      const synth_response repeat = run_synth(req, runner);
      EXPECT_EQ(runner.cache_stats().request_hits, hits + 1);

      ASSERT_TRUE(first.ok) << first.error;
      EXPECT_TRUE(first.served_from_cache);
      EXPECT_FALSE(first.verilog.empty());
      EXPECT_FALSE(first.validate_report.empty());
      // Both come from the same stored entry, timings included.
      EXPECT_EQ(encode_synth_response(repeat), encode_synth_response(first));
      EXPECT_EQ(body_of(repeat), body_of(run_synth(req, cacheless)));
      ++texts;
    }
  }
  EXPECT_EQ(texts, 72u);
  EXPECT_EQ(runner.cache_stats().request_entries, 72u);
  EXPECT_EQ(cacheless.cache_stats().request_entries, 0u);
  EXPECT_EQ(cacheless.cache_stats().request_hits, 0u);
}

TEST(RequestMemo, AChangedTextMissesTheMemoAndIsParsed) {
  flow::batch_runner runner(1);
  counted_runner memo{runner};
  const synth_request req =
      text_request("c432", benchgen::make_benchmark("c432"), /*blif=*/true);
  memo.run(req);  // compiles
  memo.run(req);  // served from the memory tier: enters the memo
  const flow::circuit_facts facts = memo.run(req);
  ASSERT_EQ(memo.builds, 2);
  ASSERT_EQ(runner.cache_stats().request_hits, 1u);

  // One fanin's polarity flipped: one byte of the first two-input cover.
  synth_request flipped = req;
  const std::size_t cover = flipped.source_text.find("\n11 1\n");
  ASSERT_NE(cover, std::string::npos);
  flipped.source_text[cover + 1] = '0';
  const flow::circuit_facts flipped_facts = memo.run(flipped);
  EXPECT_EQ(memo.builds, 3);
  EXPECT_NE(flipped_facts.content_hash, facts.content_hash);
  flow::batch_runner cacheless(1);
  cacheless.set_cache_enabled(false);
  EXPECT_EQ(body_of(run_synth(flipped, runner)),
            body_of(run_synth(flipped, cacheless)));

  // One extra trailing byte: the same circuit, but not the same request.
  synth_request padded = req;
  padded.source_text += '\n';
  const std::uint64_t full_hits = runner.cache_stats().full_hits;
  const flow::circuit_facts padded_facts = memo.run(padded);
  EXPECT_EQ(memo.builds, 4);
  EXPECT_EQ(padded_facts.content_hash, facts.content_hash);
  EXPECT_EQ(runner.cache_stats().full_hits, full_hits + 1);
  EXPECT_EQ(runner.cache_stats().request_hits, 1u);
  EXPECT_EQ(body_of(run_synth(padded, runner)),
            body_of(run_synth(req, runner)));
}

TEST(RequestMemo, ATextThatFailsToParseFailsAlikeAndNeverEntersTheMemo) {
  flow::batch_runner runner(1);
  const synth_request bad =
      and2_request("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n");
  const synth_response first = run_synth(bad, runner);
  ASSERT_FALSE(first.ok);
  EXPECT_FALSE(first.error.empty());
  EXPECT_EQ(first.content_hash, 0u);
  for (int i = 0; i < 3; ++i) {
    const synth_response again = run_synth(bad, runner);
    EXPECT_EQ(body_of(again), body_of(first));
  }
  counted_runner memo{runner};
  EXPECT_THROW(memo.run(bad), std::exception);
  EXPECT_THROW(memo.run(bad), std::exception);
  EXPECT_EQ(memo.builds, 2);
  const flow::batch_cache_stats stats = runner.cache_stats();
  EXPECT_EQ(stats.request_entries, 0u);
  EXPECT_EQ(stats.request_bytes, 0u);
  EXPECT_EQ(stats.request_hits, 0u);
  EXPECT_EQ(stats.full_hits + stats.full_misses, 0u);
}

TEST(RequestMemo, AMemoHitCountsOneLookupLikeAParsedHit) {
  temp_dir dir;
  flow::batch_runner runner(1);
  runner.set_disk_cache(dir.path + "/cache");
  counted_runner memo{runner};
  const synth_request req =
      text_request("c880", benchgen::make_benchmark("c880"), false);
  const synth_response expected = run_synth(req, runner);  // compiles
  ASSERT_TRUE(expected.ok);
  EXPECT_EQ(runner.cache_stats().request_entries, 0u);  // compiled, not kept
  memo.run(req);  // a memory hit after a parse: enters the memo
  EXPECT_EQ(runner.cache_stats().request_entries, 1u);
  EXPECT_EQ(memo.builds, 1);

  const auto delta = [&](const flow::batch_cache_stats& a,
                         const flow::batch_cache_stats& b) {
    return std::vector<std::uint64_t>{
        b.full_hits - a.full_hits,     b.full_misses - a.full_misses,
        b.disk_hits - a.disk_hits,     b.disk_misses - a.disk_misses,
        b.opt_hits - a.opt_hits,       b.opt_misses - a.opt_misses,
        b.disk_writes - a.disk_writes, b.request_hits - a.request_hits};
  };
  using counts = std::vector<std::uint64_t>;
  //               full   full   disk   disk   opt    opt    disk   memo
  //               hit    miss   hit    miss   hit    miss   write  hit

  // Stored in memory: one full hit, as a parsed hit counts.
  flow::batch_cache_stats before = runner.cache_stats();
  memo.run(req);
  EXPECT_EQ(delta(before, runner.cache_stats()),
            (counts{1, 0, 0, 0, 0, 0, 0, 1}));
  EXPECT_EQ(memo.builds, 1);

  // Stored on disk only: 64 other results push it out of memory.
  for (int i = 0; i < 64; ++i) {
    (void)runner.run_cached_shared(load_request_circuit(and2_request()),
                                   "pad" + std::to_string(i), {});
  }
  before = runner.cache_stats();
  memo.run(req);
  EXPECT_EQ(delta(before, runner.cache_stats()),
            (counts{0, 1, 1, 0, 0, 0, 0, 1}));
  EXPECT_EQ(memo.builds, 1);

  // Gone from both tiers: one full miss, one disk miss, then it builds and
  // recomputes, and the result is stored again.
  const flow::circuit_facts facts = memo.run(req);
  ASSERT_TRUE(runner.drop_entry(facts.content_hash, facts.gates, req.spec,
                                options_for(req)));
  before = runner.cache_stats();
  const synth_response recomputed = run_synth(req, runner);
  EXPECT_EQ(delta(before, runner.cache_stats()),
            (counts{0, 1, 0, 1, 0, 1, 1, 1}));
  EXPECT_FALSE(recomputed.served_from_cache);
  EXPECT_EQ(body_of(recomputed), body_of(expected));
  before = runner.cache_stats();
  memo.run(req);
  EXPECT_EQ(delta(before, runner.cache_stats()),
            (counts{1, 0, 0, 0, 0, 0, 0, 1}));
  EXPECT_EQ(memo.builds, 1);
}

TEST(RequestMemo, TheMemoStaysInsideItsByteBoundAndClearCacheEmptiesIt) {
  // Texts of one two-gate circuit under one name, each padded by a comment
  // to a distinct megabyte: all but the first are memory hits after their
  // parse, so each enters the memo.
  constexpr std::size_t bound = flow::batch_runner::max_request_memo_bytes;
  const auto padded = [](int i) {
    return and2_request(std::string(and2_bench) + "# " + std::to_string(i) +
                        std::string(1u << 20, 'x') + "\n");
  };
  flow::batch_runner runner(1);
  counted_runner memo{runner};
  memo.run(padded(0));
  const int texts = static_cast<int>(bound >> 20) + 4;
  for (int i = 0; i < texts; ++i) {
    memo.run(padded(i));
    const flow::batch_cache_stats stats = runner.cache_stats();
    EXPECT_LE(stats.request_bytes, bound) << i;
    EXPECT_LT(stats.request_entries * (1u << 20), bound) << i;
  }
  EXPECT_EQ(runner.cache_stats().request_hits, 0u);
  const int builds = memo.builds;
  memo.run(padded(texts - 1));  // the newest stayed
  EXPECT_EQ(memo.builds, builds);
  memo.run(padded(0));  // the oldest left first
  EXPECT_EQ(memo.builds, builds + 1);

  // A source larger than the whole bound is never stored.
  const std::uint64_t entries = runner.cache_stats().request_entries;
  memo.run(and2_request(std::string(and2_bench) + "#" +
                        std::string(bound, 'y') + "\n"));
  EXPECT_EQ(runner.cache_stats().request_entries, entries);

  runner.clear_cache();
  EXPECT_EQ(runner.cache_stats().request_entries, 0u);
  EXPECT_EQ(runner.cache_stats().request_bytes, 0u);
  memo.run(padded(texts - 1));
  EXPECT_EQ(memo.builds, builds + 3);
}

/// A delta that flips one fanin of the last gate of `base`.
synth_delta_request flip_delta(const synth_request& base,
                               std::uint64_t base_hash, bool force_full) {
  const aig g = load_request_circuit(base);
  aig::node_index target = 0;
  for (aig::node_index n = 0; n < g.size(); ++n) {
    if (g.is_gate(n)) target = n;
  }
  const auto tok = [](const signal s) {
    return std::string(s.is_complemented() ? "!" : "") + "n" +
           std::to_string(s.index());
  };
  synth_delta_request d;
  d.base = base;
  d.base_content_hash = base_hash;
  d.edit_text = "replace n" + std::to_string(target) + " " +
                tok(g.fanin0(target)) + " " + tok(!g.fanin1(target)) + "\n";
  d.force_full = force_full;
  return d;
}

TEST(RequestMemo, ADeltaAfterAMemoServedSubmitMatchesItsForceFullTwin) {
  const synth_request base =
      text_request("c432", benchgen::make_benchmark("c432"), false);
  for (const bool retained : {true, false}) {
    SCOPED_TRACE(retained ? "base retained" : "base evicted");
    flow::batch_runner runner(1);
    run_synth(base, runner);  // compiles
    run_synth(base, runner);  // enters the memo
    if (!retained) {
      // Another circuit pushes the base out of the retained tier; the memo
      // hit below refreshes a retained network but cannot restore one.
      runner.set_retained_bytes(1);
      ASSERT_TRUE(run_synth(make_request_for_spec("s27"), runner).ok);
    }
    const synth_response submit = run_synth(base, runner);
    ASSERT_TRUE(submit.ok);
    ASSERT_EQ(runner.cache_stats().request_hits, 1u);
    EXPECT_EQ(runner.retained_network(submit.content_hash) != nullptr,
              retained);

    eco_outcome incremental_outcome;
    const synth_response incremental = run_synth_delta(
        flip_delta(base, submit.content_hash, false), runner, {},
        &incremental_outcome);
    EXPECT_EQ(incremental_outcome.base_retained, retained);
    EXPECT_EQ(incremental_outcome.base_rebuilt, !retained);
    const synth_response full = run_synth_delta(
        flip_delta(base, submit.content_hash, true), runner);
    ASSERT_TRUE(incremental.ok) << incremental.error;
    EXPECT_NE(incremental.content_hash, submit.content_hash);
    EXPECT_EQ(body_of(incremental), body_of(full));
  }
}

TEST(RequestMemo, ConcurrentRepeatedAndFreshTextsServeTheirOwnCircuits) {
  // 8 threads share one runner: each sends the repeated texts of 4 small
  // circuits and texts it alone ever sends (a repeated text with a fresh
  // trailing comment, so the same circuit).  Every response must be its
  // circuit's.
  const std::vector<std::string> names = {"s27", "c432", "dec", "ctrl"};
  std::vector<synth_request> repeated;
  std::vector<response_body> expected;
  flow::batch_runner cacheless(1);
  cacheless.set_cache_enabled(false);
  for (const std::string& name : names) {
    repeated.push_back(
        text_request(name, benchgen::make_benchmark(name), false));
    expected.push_back(body_of(run_synth(repeated.back(), cacheless)));
    ASSERT_TRUE(expected.back().ok);
  }

  temp_dir dir;
  flow::batch_runner runner(2);
  runner.set_disk_cache(dir.path + "/cache");
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 24; ++i) {
        const std::size_t k = static_cast<std::size_t>(t + i) % names.size();
        synth_request req = repeated[k];
        if (i % 3 == 2) {
          req.source_text += "# thread " + std::to_string(t) + " request " +
                             std::to_string(i) + "\n";
        }
        if (body_of(run_synth(req, runner)) != expected[k]) ++mismatches;
        if (i % 8 == 0) (void)runner.cache_stats();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const flow::batch_cache_stats stats = runner.cache_stats();
  EXPECT_GT(stats.request_hits, 0u);
  EXPECT_LE(stats.request_bytes, flow::batch_runner::max_request_memo_bytes);
  // The 4 repeated texts plus every fresh one that was served from a tier.
  EXPECT_GT(stats.request_entries, 4u);
}

}  // namespace
}  // namespace xsfq
