#include "flow/flow.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/registry.hpp"
#include "flow/batch_runner.hpp"

namespace xsfq {
namespace {

aig tiny_adder() {
  aig g;
  const signal a = g.create_pi("a");
  const signal b = g.create_pi("b");
  const signal c = g.create_pi("cin");
  g.create_po(g.create_xor(g.create_xor(a, b), c), "s");
  g.create_po(g.create_maj(a, b, c), "cout");
  return g;
}

TEST(Flow, SynthesisFlowCollectsAllStats) {
  const auto r = flow::run_flow("c432");
  EXPECT_EQ(r.name, "c432");
  // optimize_stats are consistent with the network the flow returned.
  EXPECT_EQ(r.opt_stats.final_gates, r.optimized.num_gates());
  EXPECT_LE(r.opt_stats.final_gates, r.opt_stats.initial_gates);
  // mapping and baseline both ran on the optimized network.
  EXPECT_GT(r.mapped.stats.jj, 0u);
  EXPECT_GT(r.baseline.jj_without_clock, r.mapped.stats.jj);
  // generate + optimize + map + baseline were each timed.
  ASSERT_EQ(r.timings.size(), 4u);
  EXPECT_EQ(r.timings[0].stage, "generate");
  EXPECT_EQ(r.timings[1].stage, "optimize");
  EXPECT_EQ(r.timings[2].stage, "map");
  EXPECT_EQ(r.timings[3].stage, "baseline");
}

TEST(Flow, OptionsSkipStages) {
  flow::flow_options options;
  options.run_optimize = false;
  options.run_baseline = false;
  const auto r = flow::run_flow(tiny_adder(), "tiny", options);
  ASSERT_EQ(r.timings.size(), 2u);
  EXPECT_EQ(r.timings[0].stage, "generate");
  EXPECT_EQ(r.timings[1].stage, "map");
  EXPECT_EQ(r.baseline.jj_without_clock, 0u);
}

TEST(Flow, EmitVerilogStageProducesModule) {
  flow::flow_options options;
  options.emit_verilog = true;
  const auto r = flow::run_flow(tiny_adder(), "tiny", options);
  EXPECT_NE(r.verilog.find("module"), std::string::npos);
  ASSERT_EQ(r.timings.size(), 5u);
  EXPECT_EQ(r.timings.back().stage, "emit");
  EXPECT_GT(r.timings.back().ms, 0.0);
}

TEST(Flow, ObserverSeesEveryStageAsItFinishes) {
  flow::flow_options options;
  options.emit_verilog = true;
  std::vector<flow::stage_event> events;
  const flow::stage_observer observer = [&](const flow::stage_event& ev) {
    EXPECT_EQ(ev.index, events.size());  // one call per stage, in order
    events.push_back(ev);
  };
  const auto r = flow::run_flow(tiny_adder(), "tiny", options, observer);

  const std::vector<std::string> expected{"generate", "optimize", "map",
                                          "baseline", "emit"};
  ASSERT_EQ(events.size(), expected.size());
  ASSERT_EQ(r.timings.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(events[i].stage, expected[i]);
    EXPECT_EQ(events[i].total, expected.size());
    EXPECT_FALSE(events[i].from_cache);
    // The event carries exactly what the result records for the stage.
    EXPECT_EQ(events[i].stage, r.timings[i].stage);
    EXPECT_EQ(events[i].ms, r.timings[i].ms);
    EXPECT_EQ(events[i].counters.nodes, r.timings[i].counters.nodes);
    EXPECT_EQ(events[i].counters.cuts, r.timings[i].counters.cuts);
  }
  EXPECT_EQ(events.back().counters.nodes, r.optimized.num_gates());
}

TEST(Flow, ObserverExceptionStopsTheFlow) {
  std::vector<std::string> seen;
  const flow::stage_observer observer = [&](const flow::stage_event& ev) {
    seen.push_back(ev.stage);
    if (ev.stage == "map") throw std::runtime_error("observer failed");
  };
  EXPECT_THROW(flow::run_flow(tiny_adder(), "tiny", {}, observer),
               std::runtime_error);
  // The baseline stage after the failing notification never ran.
  EXPECT_EQ(seen, (std::vector<std::string>{"generate", "optimize", "map"}));
}

TEST(Flow, OptimizeHookStandsInForOptimizeStage) {
  const aig g = benchgen::make_benchmark("c432");
  const flow::flow_options options;
  int calls = 0;
  const flow::optimize_fn hook = [&](aig& network) {
    ++calls;
    optimize_stats stats;
    network = optimize(network, options.opt, &stats);
    return stats;
  };
  const auto hooked = flow::run_flow(g, "c432", options, {}, hook);
  const auto plain = flow::run_flow(g, "c432", options);
  EXPECT_EQ(calls, 1);

  // The hook's network and stats are what the later stages and the result
  // see, under the usual stage name.
  EXPECT_EQ(hooked.optimized.num_gates(), plain.optimized.num_gates());
  EXPECT_EQ(hooked.mapped.netlist.summary(), plain.mapped.netlist.summary());
  EXPECT_EQ(hooked.baseline.jj_without_clock, plain.baseline.jj_without_clock);
  ASSERT_EQ(hooked.timings.size(), plain.timings.size());
  EXPECT_EQ(hooked.timings[1].stage, "optimize");
  EXPECT_EQ(hooked.timings[1].counters.replacements,
            plain.timings[1].counters.replacements);
  EXPECT_EQ(hooked.timings[1].counters.nodes, plain.optimized.num_gates());

  // With the optimize stage off the hook is never asked.
  flow::flow_options raw = options;
  raw.run_optimize = false;
  const auto unoptimized = flow::run_flow(g, "c432", raw, {}, hook);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(unoptimized.optimized.num_gates(), g.num_gates());
}

TEST(Flow, MatchesManualSequence) {
  // run_flow must produce exactly what the hand-rolled sequence produced
  // before this subsystem existed.
  const aig g = benchgen::make_benchmark("c432");
  const aig opt = optimize(g);
  const auto mapped = map_to_xsfq(opt);
  const auto base = map_to_rsfq(opt);

  const auto r = flow::run_flow("c432");
  EXPECT_EQ(r.optimized.num_gates(), opt.num_gates());
  EXPECT_EQ(r.mapped.stats.jj, mapped.stats.jj);
  EXPECT_EQ(r.mapped.stats.la_cells, mapped.stats.la_cells);
  EXPECT_EQ(r.mapped.stats.fa_cells, mapped.stats.fa_cells);
  EXPECT_EQ(r.mapped.stats.splitters, mapped.stats.splitters);
  EXPECT_EQ(r.baseline.jj_without_clock, base.jj_without_clock);
  EXPECT_EQ(r.baseline.jj_with_clock, base.jj_with_clock);
}

// ---------------------------------------------------------------------------
// batch_runner
// ---------------------------------------------------------------------------

std::vector<std::string> small_suite() {
  return {"c432", "dec", "int2float", "s27", "c499"};
}

TEST(BatchRunner, ResultsComeBackInInputOrder) {
  flow::batch_runner runner(3);
  EXPECT_EQ(runner.num_threads(), 3u);
  const auto report = runner.run(small_suite());
  ASSERT_EQ(report.entries.size(), 5u);
  const auto names = small_suite();
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_TRUE(report.entries[i].ok) << report.entries[i].error;
    EXPECT_EQ(report.entries[i].name, names[i]);
    EXPECT_EQ(report.entries[i].result.name, names[i]);
  }
  EXPECT_EQ(report.num_ok(), 5u);
  EXPECT_EQ(report.num_failed(), 0u);
  EXPECT_GT(report.wall_ms, 0.0);
}

TEST(BatchRunner, MultiThreadedMatchesSingleThreaded) {
  const auto names = small_suite();
  const auto single = flow::run_batch(names, {}, 1);
  const auto multi = flow::run_batch(names, {}, 4);
  ASSERT_EQ(single.entries.size(), multi.entries.size());
  EXPECT_EQ(single.threads, 1u);
  EXPECT_EQ(multi.threads, 4u);
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& s = single.entries[i].result;
    const auto& m = multi.entries[i].result;
    ASSERT_TRUE(single.entries[i].ok && multi.entries[i].ok);
    EXPECT_EQ(s.name, m.name);
    EXPECT_EQ(s.optimized.num_gates(), m.optimized.num_gates());
    EXPECT_EQ(s.optimized.depth(), m.optimized.depth());
    EXPECT_EQ(s.mapped.stats.jj, m.mapped.stats.jj);
    EXPECT_EQ(s.mapped.stats.la_cells, m.mapped.stats.la_cells);
    EXPECT_EQ(s.mapped.stats.fa_cells, m.mapped.stats.fa_cells);
    EXPECT_EQ(s.mapped.stats.splitters, m.mapped.stats.splitters);
    EXPECT_EQ(s.mapped.stats.duplication, m.mapped.stats.duplication);
    EXPECT_EQ(s.baseline.jj_without_clock, m.baseline.jj_without_clock);
    EXPECT_EQ(s.baseline.jj_with_clock, m.baseline.jj_with_clock);
  }
  const auto sum_single = flow::summarize(single);
  const auto sum_multi = flow::summarize(multi);
  EXPECT_EQ(sum_single.xsfq_jj, sum_multi.xsfq_jj);
  EXPECT_EQ(sum_single.rsfq_jj, sum_multi.rsfq_jj);
  EXPECT_DOUBLE_EQ(sum_single.geomean_savings, sum_multi.geomean_savings);
}

TEST(BatchRunner, FailedFlowIsIsolated) {
  const auto report =
      flow::run_batch({"dec", "no_such_circuit", "int2float"}, {}, 2);
  ASSERT_EQ(report.entries.size(), 3u);
  EXPECT_TRUE(report.entries[0].ok);
  EXPECT_FALSE(report.entries[1].ok);
  EXPECT_FALSE(report.entries[1].error.empty());
  EXPECT_TRUE(report.entries[2].ok);
  EXPECT_EQ(report.num_failed(), 1u);
  EXPECT_EQ(report.num_ok(), 2u);
  // summarize only counts the successful circuits.
  EXPECT_EQ(flow::summarize(report).circuits, 2u);
}

TEST(BatchRunner, PoolIsReusableAcrossBatches) {
  flow::batch_runner runner(2);
  const auto first = runner.run({"dec", "int2float"});
  const auto second = runner.run({"s27"});
  EXPECT_EQ(first.num_ok(), 2u);
  EXPECT_EQ(second.num_ok(), 1u);
  EXPECT_EQ(second.entries[0].name, "s27");
}

TEST(BatchRunner, CustomFlowFactory) {
  flow::batch_runner runner(2);
  const std::vector<std::string> names{"dec", "int2float"};
  flow::flow_options raw;  // raw mapping: no optimize, no baseline
  raw.run_optimize = false;
  raw.run_baseline = false;
  std::vector<std::function<flow::flow_result()>> jobs;
  for (const auto& name : names) {
    jobs.push_back([name, raw] { return flow::run_flow(name, raw); });
  }
  const auto report = runner.run_jobs(names, std::move(jobs));
  ASSERT_EQ(report.num_ok(), 2u);
  for (const auto& e : report.entries) {
    EXPECT_EQ(e.result.timings.size(), 2u);
    EXPECT_GT(e.result.mapped.stats.jj, 0u);
  }
}

TEST(BatchRunner, EntryTimeIsThisRunsWallTimeNotTheStoredOne) {
  // A job that returns a stored result (as a cache hit does) reports what
  // the entry cost this run, not the stored cold time.
  flow::flow_result canned;
  canned.total_ms = 1e6;
  flow::batch_runner runner(2);
  const std::vector<std::string> names = {"a", "b", "c"};
  std::vector<std::function<flow::flow_result()>> jobs;
  for (std::size_t i = 0; i < names.size(); ++i) {
    jobs.push_back([canned] { return canned; });
  }
  const auto report = runner.run_jobs(names, std::move(jobs));
  ASSERT_EQ(report.num_ok(), names.size());
  double sum = 0.0;
  for (const auto& e : report.entries) {
    EXPECT_EQ(e.result.total_ms, 1e6);
    EXPECT_GE(e.wall_ms, 0.0);
    EXPECT_LT(e.wall_ms, 1e4) << e.name;
    sum += e.wall_ms;
  }
  EXPECT_DOUBLE_EQ(report.flow_ms_sum, sum);
}

TEST(BatchRunner, JobNameMismatchThrows) {
  flow::batch_runner runner(1);
  EXPECT_THROW(runner.run_jobs({"a", "b"}, {}), std::invalid_argument);
}

TEST(BatchRunner, ParseThreadCount) {
  EXPECT_EQ(flow::parse_thread_count("4"), 4u);
  EXPECT_EQ(flow::parse_thread_count("0"), 0u);
  EXPECT_EQ(flow::parse_thread_count("256"), 256u);
  EXPECT_FALSE(flow::parse_thread_count("-1").has_value());
  EXPECT_FALSE(flow::parse_thread_count("257").has_value());
  EXPECT_FALSE(flow::parse_thread_count("four").has_value());
  EXPECT_FALSE(flow::parse_thread_count("4x").has_value());
  EXPECT_FALSE(flow::parse_thread_count("").has_value());
  EXPECT_FALSE(flow::parse_thread_count(nullptr).has_value());
}

TEST(Flow, OptimizeStageSurfacesSimCounters) {
  flow::flow_options options;
  options.opt.validate_passes = true;
  options.opt.validate_rounds = 8;
  const auto r = flow::run_flow("c432", options);
  bool found = false;
  for (const auto& t : r.timings) {
    if (t.stage != "optimize") continue;
    found = true;
    EXPECT_GT(t.counters.sim_words, 0u);
    EXPECT_GT(t.counters.sim_node_evals, 0u);
  }
  EXPECT_TRUE(found);
  // Validation must not change the synthesis outcome.
  const auto plain = flow::run_flow("c432");
  EXPECT_EQ(r.optimized.num_gates(), plain.optimized.num_gates());
  EXPECT_EQ(r.mapped.stats.jj, plain.mapped.stats.jj);
}

TEST(Flow, FingerprintSeparatesOptionSets) {
  const flow::flow_options base;
  EXPECT_EQ(flow::fingerprint(base), flow::fingerprint(flow::flow_options{}));
  flow::flow_options polarity = base;
  polarity.map.polarity = polarity_mode::direct_dual_rail;
  EXPECT_NE(flow::fingerprint(base), flow::fingerprint(polarity));
  flow::flow_options no_opt = base;
  no_opt.run_optimize = false;
  EXPECT_NE(flow::fingerprint(base), flow::fingerprint(no_opt));
  flow::flow_options rounds = base;
  rounds.opt.max_rounds = 2;
  EXPECT_NE(flow::fingerprint(base), flow::fingerprint(rounds));
  // Differing map options share the optimize-stage fingerprint.
  EXPECT_EQ(flow::fingerprint(base.opt), flow::fingerprint(polarity.opt));
}

// ---------------------------------------------------------------------------
// Scheduling.
// ---------------------------------------------------------------------------

TEST(BatchRunner, SkewedJobsFinishAroundABlockedJob) {
  flow::batch_runner runner(2);
  // Job 0 blocks until jobs 1-6 have all finished, so the other thread must
  // run all six while it waits.  The bound keeps a broken scheduler from
  // hanging the test.
  std::atomic<int> finished{0};
  std::atomic<bool> saw_all_finished{false};
  std::vector<std::string> names;
  std::vector<std::function<flow::flow_result()>> jobs;
  for (int i = 0; i < 7; ++i) {
    const std::string name = "job" + std::to_string(i);
    names.push_back(name);
    jobs.push_back([&, name, i] {
      if (i == 0) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (finished.load() < 6 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        saw_all_finished = finished.load() == 6;
      } else {
        ++finished;
      }
      flow::flow_result r;
      r.name = name;
      return r;
    });
  }
  const auto report = runner.run_jobs(names, std::move(jobs));
  EXPECT_TRUE(saw_all_finished);
  ASSERT_EQ(report.entries.size(), 7u);
  for (int i = 0; i < 7; ++i) {
    EXPECT_TRUE(report.entries[i].ok);
    EXPECT_EQ(report.entries[i].name, "job" + std::to_string(i));
    EXPECT_EQ(report.entries[i].result.name, report.entries[i].name);
  }
}

TEST(BatchRunner, BatchDoesNotWaitForAnotherThreadsSubtasks) {
  flow::batch_runner runner(3);
  // Thread A's group holds the calling thread and one pool worker on a
  // latch; a batch from thread B must still finish on the free workers.
  // The latch opens after at most 2 s, so a batch that waits for A's group
  // fails the test instead of hanging it.
  std::mutex m;
  std::condition_variable cv;
  bool released = false;
  int blocked = 0;
  const auto wait_for_release = [&] {
    std::unique_lock<std::mutex> lock(m);
    ++blocked;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  };
  std::thread a([&] {
    runner.run_subtasks({wait_for_release, wait_for_release});
  });
  {
    std::unique_lock<std::mutex> lock(m);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(2),
                            [&] { return blocked == 2; }));
  }
  std::vector<std::string> names{"a", "b", "c"};
  std::vector<std::function<flow::flow_result()>> jobs(
      3, [] { return flow::flow_result{}; });
  bool batch_done = false;
  std::thread b([&] {
    const auto report = runner.run_jobs(names, std::move(jobs));
    EXPECT_EQ(report.num_ok(), 3u);
    std::lock_guard<std::mutex> lock(m);
    batch_done = true;
    cv.notify_all();
  });
  bool done_before_release = false;
  {
    std::unique_lock<std::mutex> lock(m);
    done_before_release = cv.wait_for(lock, std::chrono::seconds(2),
                                      [&] { return batch_done; });
    released = true;
  }
  cv.notify_all();
  a.join();
  b.join();
  EXPECT_TRUE(done_before_release);
}

TEST(BatchRunner, ConcurrentBatchesKeepTheirOwnEntries) {
  flow::batch_runner runner(2);
  const std::vector<std::string> first = {"dec", "s27", "int2float"};
  const std::vector<std::string> second = {"ctrl", "c432"};
  flow::batch_report a;
  flow::batch_report b;
  std::thread other([&] { b = runner.run(second); });
  a = runner.run(first);
  other.join();
  ASSERT_EQ(a.entries.size(), first.size());
  ASSERT_EQ(b.entries.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(a.entries[i].ok) << a.entries[i].error;
    EXPECT_EQ(a.entries[i].name, first[i]);
    EXPECT_EQ(a.entries[i].result.name, first[i]);
  }
  for (std::size_t i = 0; i < second.size(); ++i) {
    ASSERT_TRUE(b.entries[i].ok) << b.entries[i].error;
    EXPECT_EQ(b.entries[i].name, second[i]);
    EXPECT_EQ(b.entries[i].result.name, second[i]);
  }
}

TEST(BatchRunner, SkewedRealFlowsByteIdenticalToSingleThread) {
  // Skewed sizes (c3540 first) spread unevenly over the multi-threaded
  // runner; every deterministic field must still match the 1-thread run.
  const std::vector<std::string> names = {"c3540", "s27", "dec", "c432",
                                          "int2float", "ctrl"};
  flow::batch_runner single(1);
  flow::batch_runner multi(3);
  const auto a = single.run(names);
  const auto b = multi.run(names);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_TRUE(a.entries[i].ok && b.entries[i].ok);
    EXPECT_EQ(a.entries[i].name, b.entries[i].name);
    EXPECT_EQ(a.entries[i].result.optimized.num_gates(),
              b.entries[i].result.optimized.num_gates());
    EXPECT_EQ(a.entries[i].result.mapped.stats.jj,
              b.entries[i].result.mapped.stats.jj);
    EXPECT_EQ(a.entries[i].result.baseline.jj_without_clock,
              b.entries[i].result.baseline.jj_without_clock);
  }
}

// ---------------------------------------------------------------------------
// Cross-run result cache.
// ---------------------------------------------------------------------------

TEST(BatchRunner, ResultCacheServesRepeatedBatches) {
  flow::batch_runner runner(2);
  EXPECT_TRUE(runner.cache_enabled());
  const auto names = small_suite();
  const auto first = runner.run(names);
  const auto after_first = runner.cache_stats();
  EXPECT_EQ(after_first.full_hits, 0u);
  EXPECT_EQ(after_first.full_misses, names.size());
  EXPECT_EQ(after_first.opt_misses, names.size());

  const auto second = runner.run(names);
  const auto after_second = runner.cache_stats();
  EXPECT_EQ(after_second.full_hits, names.size());
  EXPECT_EQ(after_second.full_misses, names.size());

  ASSERT_EQ(first.entries.size(), second.entries.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    ASSERT_TRUE(second.entries[i].ok) << second.entries[i].error;
    EXPECT_EQ(second.entries[i].result.name, names[i]);
    EXPECT_EQ(first.entries[i].result.optimized.num_gates(),
              second.entries[i].result.optimized.num_gates());
    EXPECT_EQ(first.entries[i].result.mapped.stats.jj,
              second.entries[i].result.mapped.stats.jj);
    EXPECT_EQ(first.entries[i].result.baseline.jj_with_clock,
              second.entries[i].result.baseline.jj_with_clock);
    // Cached results keep the stage structure of a live run.
    ASSERT_EQ(second.entries[i].result.timings.size(),
              first.entries[i].result.timings.size());
    EXPECT_EQ(second.entries[i].result.timings.front().stage, "generate");
  }
}

TEST(BatchRunner, OptimizeCacheSharedAcrossMappingOptions) {
  flow::batch_runner runner(1);  // sequential: hit counts are deterministic
  std::vector<std::string> names = {"c432", "c432", "c432"};
  std::vector<flow::flow_options> options(3);
  options[0].map.polarity = polarity_mode::optimized;
  options[1].map.polarity = polarity_mode::positive_outputs;
  options[2].map.polarity = polarity_mode::direct_dual_rail;
  for (auto& o : options) o.run_baseline = false;

  const auto report = runner.run(names, options);
  ASSERT_EQ(report.num_ok(), 3u);
  const auto stats = runner.cache_stats();
  EXPECT_EQ(stats.full_misses, 3u);  // three distinct option fingerprints
  EXPECT_EQ(stats.full_hits, 0u);
  EXPECT_EQ(stats.opt_misses, 1u);  // optimized once...
  EXPECT_EQ(stats.opt_hits, 2u);    // ...then reused for the other mappings

  // Same optimized network, different mappings.
  EXPECT_EQ(report.entries[0].result.optimized.num_gates(),
            report.entries[1].result.optimized.num_gates());
  EXPECT_NE(report.entries[0].result.mapped.stats.jj,
            report.entries[2].result.mapped.stats.jj);
}

TEST(BatchRunner, CacheDisabledBypassesLookups) {
  flow::batch_runner runner(1);
  runner.set_cache_enabled(false);
  EXPECT_FALSE(runner.cache_enabled());
  const auto first = runner.run({"dec"});
  const auto second = runner.run({"dec"});
  const auto stats = runner.cache_stats();
  EXPECT_EQ(stats.full_hits + stats.full_misses, 0u);
  EXPECT_EQ(stats.opt_hits + stats.opt_misses, 0u);
  ASSERT_TRUE(first.entries[0].ok && second.entries[0].ok);
  EXPECT_EQ(first.entries[0].result.mapped.stats.jj,
            second.entries[0].result.mapped.stats.jj);
}

TEST(BatchRunner, CachedResultMatchesDirectFlow) {
  flow::batch_runner runner(1);
  (void)runner.run({"c499"});
  const auto cached = runner.run({"c499"});  // served from the full cache
  ASSERT_EQ(runner.cache_stats().full_hits, 1u);
  const auto direct = flow::run_flow("c499");
  const auto& r = cached.entries[0].result;
  EXPECT_EQ(r.name, direct.name);
  EXPECT_EQ(r.optimized.num_gates(), direct.optimized.num_gates());
  EXPECT_EQ(r.optimized.depth(), direct.optimized.depth());
  EXPECT_EQ(r.opt_stats.final_gates, direct.opt_stats.final_gates);
  EXPECT_EQ(r.mapped.stats.jj, direct.mapped.stats.jj);
  EXPECT_EQ(r.mapped.stats.splitters, direct.mapped.stats.splitters);
  EXPECT_EQ(r.baseline.jj_without_clock, direct.baseline.jj_without_clock);
  ASSERT_EQ(r.timings.size(), direct.timings.size());
  for (std::size_t i = 0; i < r.timings.size(); ++i) {
    EXPECT_EQ(r.timings[i].stage, direct.timings[i].stage);
  }
}

TEST(BatchRunner, ClearCacheForgetsEntries) {
  flow::batch_runner runner(1);
  (void)runner.run({"dec"});
  runner.clear_cache();
  (void)runner.run({"dec"});
  const auto stats = runner.cache_stats();
  EXPECT_EQ(stats.full_hits, 0u);
  EXPECT_EQ(stats.full_misses, 2u);
}

TEST(BatchRunner, PerEntryOptionsSizeMismatchThrows) {
  flow::batch_runner runner(1);
  EXPECT_THROW(runner.run({"a", "b"}, std::vector<flow::flow_options>(1)),
               std::invalid_argument);
}

TEST(BatchRunner, SummarizeAggregatesDeterministically) {
  const auto report = flow::run_batch({"dec", "c432"}, {}, 2);
  ASSERT_EQ(report.num_ok(), 2u);
  const auto s = flow::summarize(report);
  EXPECT_EQ(s.circuits, 2u);
  const auto& a = report.entries[0].result;
  const auto& b = report.entries[1].result;
  EXPECT_EQ(s.xsfq_jj, a.mapped.stats.jj + b.mapped.stats.jj);
  EXPECT_EQ(s.rsfq_jj,
            a.baseline.jj_without_clock + b.baseline.jj_without_clock);
  EXPECT_EQ(s.aig_gates, a.optimized.num_gates() + b.optimized.num_gates());
  EXPECT_GT(s.geomean_savings, 1.0);
  EXPECT_GT(s.geomean_savings_clock, s.geomean_savings);
}

}  // namespace
}  // namespace xsfq
