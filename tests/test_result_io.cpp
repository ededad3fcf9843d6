/// Tests for the flow-result serialization layer (flow/result_io) and the
/// disk-persistent result cache tier (flow/disk_cache + batch_runner):
/// byte-exact AIG replay, full flow_result round trips, corruption and
/// version-mismatch handling, eviction, and warm hits across runner
/// "restarts" (two runner instances sharing one cache directory).
#include "flow/result_io.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "benchgen/registry.hpp"
#include "codec_sweep.hpp"
#include "flow/batch_runner.hpp"
#include "flow/disk_cache.hpp"
#include "util/hash.hpp"

namespace xsfq {
namespace {

namespace fs = std::filesystem;
using codec_test::sweep_decoder;
using codec_test::to_hex;

/// Unique scratch directory, removed on scope exit.
struct temp_dir {
  std::string path;
  temp_dir() {
    char tmpl[] = "/tmp/xsfq_result_io_XXXXXX";
    path = mkdtemp(tmpl);
  }
  ~temp_dir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

aig tiny_adder() {
  aig g;
  const signal a = g.create_pi("a");
  const signal b = g.create_pi("b");
  const signal c = g.create_pi("cin");
  g.create_po(g.create_xor(g.create_xor(a, b), c), "s");
  g.create_po(g.create_maj(a, b, c), "cout");
  return g;
}

std::vector<std::uint8_t> serialize_aig(const aig& g) {
  byte_writer w;
  write_field(w, g);
  return w.take();
}

TEST(ResultIo, AigRoundTripPreservesContentHash) {
  for (const char* name : {"c432", "c880", "s27", "s298"}) {
    const aig g = benchgen::make_benchmark(name);
    const std::vector<std::uint8_t> bytes = serialize_aig(g);
    byte_reader r(bytes);
    aig restored;
    read_field(r, restored);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(restored.content_hash(), g.content_hash()) << name;
    EXPECT_EQ(restored.num_gates(), g.num_gates()) << name;
    EXPECT_EQ(restored.num_registers(), g.num_registers()) << name;
  }
}

TEST(ResultIo, AigRoundTripTinyNetworkWithNames) {
  const aig g = tiny_adder();
  const std::vector<std::uint8_t> bytes = serialize_aig(g);
  byte_reader r(bytes);
  aig restored;
  read_field(r, restored);
  EXPECT_EQ(restored.content_hash(), g.content_hash());
  EXPECT_EQ(restored.pi_name(0), "a");
  EXPECT_EQ(restored.po_name(1), "cout");
}

TEST(ResultIo, CorruptedAigBytesAreRejectedNotMisread) {
  const aig g = benchgen::make_benchmark("c432");
  std::vector<std::uint8_t> bytes = serialize_aig(g);
  // Flip one byte somewhere in the node records; either the replay check,
  // a bounds check, or the final content hash must catch it.
  std::size_t rejected = 0;
  for (const std::size_t pos : {bytes.size() / 4, bytes.size() / 2}) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[pos] ^= 0x41;
    byte_reader r(mutated);
    try {
      aig restored;
      read_field(r, restored);
      // A mutation in dead padding could in principle decode; it must then
      // still hash identically (i.e. describe the same network).
      EXPECT_EQ(restored.content_hash(), g.content_hash());
    } catch (const serialize_error&) {
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1u);
  // Truncation always throws.
  std::vector<std::uint8_t> truncated(bytes.begin(),
                                      bytes.begin() + bytes.size() / 2);
  byte_reader r(truncated);
  aig restored;
  EXPECT_THROW(read_field(r, restored), serialize_error);
}

TEST(ResultIo, FlowResultRoundTrip) {
  flow::flow_options options;
  options.emit_verilog = true;
  const flow::flow_result original = flow::run_flow("c432", options);

  byte_writer w;
  flow::write_flow_result(w, original);
  const std::vector<std::uint8_t> bytes = w.take();
  byte_reader r(bytes);
  const flow::flow_result restored = flow::read_flow_result(r);
  r.expect_done();

  EXPECT_EQ(restored.name, original.name);
  EXPECT_EQ(restored.optimized.content_hash(),
            original.optimized.content_hash());
  EXPECT_EQ(restored.opt_stats.final_gates, original.opt_stats.final_gates);
  EXPECT_EQ(restored.opt_stats.work.replacements,
            original.opt_stats.work.replacements);
  EXPECT_EQ(restored.mapped.stats.jj, original.mapped.stats.jj);
  EXPECT_EQ(restored.mapped.netlist.size(), original.mapped.netlist.size());
  EXPECT_EQ(restored.mapped.netlist.summary(),
            original.mapped.netlist.summary());
  EXPECT_EQ(restored.mapped.co_negated, original.mapped.co_negated);
  EXPECT_EQ(restored.baseline.jj_without_clock,
            original.baseline.jj_without_clock);
  EXPECT_EQ(restored.verilog, original.verilog);
  ASSERT_EQ(restored.timings.size(), original.timings.size());
  for (std::size_t i = 0; i < restored.timings.size(); ++i) {
    EXPECT_EQ(restored.timings[i].stage, original.timings[i].stage);
    EXPECT_EQ(restored.timings[i].counters.nodes,
              original.timings[i].counters.nodes);
  }
  EXPECT_DOUBLE_EQ(restored.total_ms, original.total_ms);
}

/// A flow_result with every field set to a distinct value: a one-register
/// AIG, a netlist holding every element kind (its boundary DROC closed by
/// register_feedback), and distinct stats and timings.
flow::flow_result every_field_flow_result() {
  flow::flow_result r;
  r.name = "tiny";
  const signal a = r.optimized.create_pi("a");
  const signal q = r.optimized.create_register_output(true, "q");
  const signal g = r.optimized.create_and(a, !q);
  r.optimized.create_po(g, "y");
  r.optimized.set_register_input(0, !g);

  r.opt_stats = {101, 102, 103, 104, 105,
                 {201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211, 212}};

  const auto add = [&r](element_kind kind, port_ref f0, port_ref f1,
                        std::int64_t node, bool rail, std::uint16_t rank,
                        bool feedback, std::string name) {
    r.mapped.netlist.add_element(
        {kind, f0, f1, node, rail, rank, feedback, std::move(name)});
  };
  add(element_kind::input_rail, {}, {}, 1, false, 0, false, "a");
  add(element_kind::input_rail, {}, {}, 2, true, 0, false, "a_n");
  add(element_kind::const_rail, {}, {}, -1, false, 0, false, "zero");
  add(element_kind::droc, {}, {}, 3, false, 1, true, "q");
  add(element_kind::splitter, {0, 0}, {}, 4, false, 0, false, "");
  add(element_kind::la, {4, 0}, {3, 0}, 5, false, 0, false, "");
  add(element_kind::fa, {4, 1}, {3, 1}, 6, true, 0, false, "");
  add(element_kind::droc_preload, {5, 0}, {}, 7, false, 2, false, "");
  add(element_kind::output_port, {7, 1}, {}, 8, true, 0, false, "y");
  add(element_kind::output_port, {6, 0}, {}, 9, false, 0, false, "q_in");
  r.mapped.stats = {301, 302, 303, 304, 305, 306, 1.25, 307,
                    308, -309, 310, 311, 31.5, 15.75};
  r.mapped.co_negated = {true, false, true};
  r.mapped.register_feedback = {{3, {7, 0}}};

  r.baseline = {401, 402, 403, 404, 405, 406, 407, 408, 409};
  r.verilog = "module tiny;\nendmodule\n";
  r.timings = {{"generate", 0.5, {501, 502, 503, 504, 505, 506, 507, 508}},
               {"optimize", 2.5, {511, 512, 513, 514, 515, 516, 517, 518}}};
  r.total_ms = 3.75;
  return r;
}

std::vector<std::uint8_t> encode_flow_result(const flow::flow_result& r) {
  byte_writer w;
  flow::write_flow_result(w, r);
  return w.take();
}

flow::flow_result decode_flow_result(std::span<const std::uint8_t> bytes) {
  byte_reader r(bytes);
  flow::flow_result result = flow::read_flow_result(r);
  r.expect_done();
  return result;
}

TEST(ResultIo, EveryFieldFlowResultEncodesToPinnedBytes) {
  // Captured from the disk format 2 build whose codecs were hand-written
  // write/read pairs: deriving them from field lists moved no byte, so
  // entries on disk stay readable.  A reordered or resized field fails here.
  const std::vector<std::uint8_t> bytes =
      encode_flow_result(every_field_flow_result());
  EXPECT_EQ(
      to_hex(bytes),
      "040000000000000074696e790400000000000000010203020000000500000001"
      "0000000000000001000000000000006101000000000000000600000001000000"
      "00000000790100000000000000010107000000010000000000000071dda36c25"
      "a522521a65000000000000006600000000000000670000006800000069000000"
      "c900000000000000ca00000000000000cb00000000000000cc00000000000000"
      "cd00000000000000ce00000000000000cf00000000000000d000000000000000"
      "d100000000000000d200000000000000d300000000000000d400000000000000"
      "0a00000000000000000000000000000000000001000000000000000000000001"
      "0000000000000061000000000000000000000002000000000000000100000003"
      "00000000000000615f6e0100000000000000000000ffffffffffffffff000000"
      "0004000000000000007a65726f05000000000000000000000300000000000000"
      "0001000101000000000000007104000000000000000000000400000000000000"
      "0000000000000000000000000204000000000300000000050000000000000000"
      "0000000000000000000000030400000001030000000106000000000000000100"
      "0000000000000000000006050000000000000000000700000000000000000200"
      "0000000000000000000707000000010000000000080000000000000001000000"
      "0100000000000000790706000000000000000000090000000000000000000000"
      "0400000000000000715f696e2d010000000000002e010000000000002f010000"
      "0000000030010000000000003101000000000000320100000000000000000000"
      "0000f43f33010000000000003401000000000000cbfeffffffffffff36010000"
      "370100000000000000803f400000000000802f40030000000000000001000101"
      "0000000000000003000000070000000091010000000000009201000000000000"
      "9301000000000000940100000000000095010000000000009601000000000000"
      "970100009801000000000000990100000000000017000000000000006d6f6475"
      "6c652074696e793b0a656e646d6f64756c650a02000000000000000800000000"
      "00000067656e6572617465000000000000e03ff501000000000000f601000000"
      "000000f701000000000000f801000000000000f901000000000000fa01000000"
      "000000fb01000000000000fc0100000000000008000000000000006f7074696d"
      "697a650000000000000440ff0100000000000000020000000000000102000000"
      "0000000202000000000000030200000000000004020000000000000502000000"
      "00000006020000000000000000000000000e40");
  EXPECT_EQ(encode_flow_result(decode_flow_result(bytes)), bytes);
}

TEST(ResultIo, FlowResultDecoderRejectsTruncationAndMutationTyped) {
  sweep_decoder(encode_flow_result(every_field_flow_result()),
                [](auto bytes) { (void)decode_flow_result(bytes); });
}

TEST(ResultIo, OutOfRangeNetlistReferencesAreRejected) {
  const flow::flow_result good = every_field_flow_result();
  const auto rejects = [](const flow::flow_result& r) {
    EXPECT_THROW(decode_flow_result(encode_flow_result(r)), serialize_error);
  };
  const auto with_element = [&good](std::size_t i, auto edit) {
    flow::flow_result r = good;
    std::vector<xsfq_element> elements = r.mapped.netlist.elements();
    edit(elements[i]);
    r.mapped.netlist.clear();
    for (const xsfq_element& e : elements) r.mapped.netlist.add_element(e);
    return r;
  };
  // The LA (element 5) reading itself, an element past the end, a third
  // port; the FA (6) reading a later element; the boundary DROC (3) with a
  // non-default unused fanin0.  Consumers index by each unchecked.
  for (const port_ref ref :
       {port_ref{5, 0}, port_ref{0x7fffffff, 0}, port_ref{4, 2}}) {
    rejects(with_element(5, [ref](xsfq_element& e) { e.fanin0 = ref; }));
  }
  rejects(with_element(6, [](xsfq_element& e) { e.fanin1 = {9, 0}; }));
  rejects(with_element(3, [](xsfq_element& e) { e.fanin0 = {2, 0}; }));
  rejects(with_element(
      0, [](xsfq_element& e) { e.kind = static_cast<element_kind>(8); }));
  for (const auto& feedback :
       {std::pair<std::uint32_t, port_ref>{10, {7, 0}},
        std::pair<std::uint32_t, port_ref>{3, {10, 0}},
        std::pair<std::uint32_t, port_ref>{3, {7, 2}}}) {
    flow::flow_result bad = good;
    bad.mapped.register_feedback = {feedback};
    rejects(bad);
  }
}

TEST(DiskCache, StoreLoadHitAndAbsentMiss) {
  temp_dir dir;
  flow::disk_result_cache cache(dir.path + "/cache");
  const flow::flow_result result = flow::run_flow("c432");

  EXPECT_FALSE(cache.load(1, 2).has_value());
  cache.store(1, 2, result);
  const auto loaded = cache.load(1, 2);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->optimized.content_hash(),
            result.optimized.content_hash());
  EXPECT_EQ(loaded->mapped.stats.jj, result.mapped.stats.jj);
  // Same circuit key under different options is a distinct entry.
  EXPECT_FALSE(cache.load(1, 3).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.writes, 1u);
}

TEST(DiskCache, CorruptAndStaleVersionEntriesReadAsMissAndAreQuarantined) {
  temp_dir dir;
  const std::string cache_dir = dir.path + "/cache";
  const flow::flow_result result = flow::run_flow("c432");
  {
    flow::disk_result_cache cache(cache_dir);
    cache.store(7, 9, result);
  }
  // Find the entry file and truncate it mid-payload.
  std::string entry;
  for (const auto& de : fs::directory_iterator(cache_dir)) {
    entry = de.path().string();
  }
  ASSERT_FALSE(entry.empty());
  const auto full_size = fs::file_size(entry);
  fs::resize_file(entry, full_size / 2);
  {
    flow::disk_result_cache cache(cache_dir);
    EXPECT_FALSE(cache.load(7, 9).has_value());
    EXPECT_FALSE(fs::exists(entry));  // corrupt entry out of the live dir
    // Not erased, though: the bytes move to quarantine/ for inspection.
    EXPECT_EQ(cache.stats().quarantined, 1u);
    EXPECT_TRUE(fs::exists(cache.quarantine_directory()));
  }
  // A version from the future reads as a miss too.
  {
    flow::disk_result_cache cache(cache_dir);
    cache.store(7, 9, result);
  }
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);  // format-version field, after the magic
    const std::uint32_t future = 0xFFFFu;
    f.write(reinterpret_cast<const char*>(&future), sizeof(future));
  }
  flow::disk_result_cache cache(cache_dir);
  EXPECT_FALSE(cache.load(7, 9).has_value());
  EXPECT_FALSE(fs::exists(entry));
}

TEST(DiskCache, EntryWithOutOfRangeFaninIsQuarantinedNotServed) {
  // One c432 LA element's fanin0 overwritten with an element index past the
  // end: the decoder must refuse the entry rather than hand the pulse
  // simulator or the Verilog writer a reference they would index by.
  temp_dir dir;
  const std::string cache_dir = dir.path + "/cache";
  const flow::flow_result result = flow::run_flow("c432");
  flow::disk_result_cache(cache_dir).store(7, 9, result);

  // Offset of the first LA's fanin0.element: the entry prologue (magic,
  // format version, two keys), the fields ahead of the netlist, the element
  // count, the elements before the LA, and the LA's kind byte.
  byte_writer prefix;
  write_field(prefix, result.name);
  write_field(prefix, result.optimized);
  write_field(prefix, result.opt_stats);
  prefix.u64(result.mapped.netlist.size());
  for (const xsfq_element& e : result.mapped.netlist.elements()) {
    if (e.kind == element_kind::la) break;
    write_field(prefix, e);
  }
  std::string entry;
  for (const auto& de : fs::directory_iterator(cache_dir)) {
    entry = de.path().string();
  }
  ASSERT_FALSE(entry.empty());
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(24 + prefix.size() + 1));
    const std::uint32_t past_end = 0x7fffffff;
    f.write(reinterpret_cast<const char*>(&past_end), sizeof(past_end));
  }

  flow::disk_result_cache cache(cache_dir);
  EXPECT_FALSE(cache.load(7, 9).has_value());
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_FALSE(fs::exists(entry));
  std::size_t undecodable = 0;
  for (const auto& de : fs::directory_iterator(cache.quarantine_directory())) {
    undecodable += de.path().extension() == ".undecodable";
  }
  EXPECT_EQ(undecodable, 1u);
}

TEST(DiskCache, EvictsOldestBeyondMaxEntries) {
  temp_dir dir;
  flow::disk_result_cache cache(dir.path + "/cache", /*max_entries=*/2);
  const flow::flow_result result = flow::run_flow("c432");
  cache.store(1, 1, result);
  // Distinct mtimes so eviction order is deterministic.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.store(2, 2, result);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.store(3, 3, result);
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.load(1, 1).has_value());  // oldest gone
  EXPECT_TRUE(cache.load(3, 3).has_value());
}

TEST(DiskCache, PrunesDownToTheLowWaterMark) {
  // A prune scans and stats the whole directory.  Going down to 7/8 of the
  // cap, not to the cap itself, keeps the next cap/8 stores from paying for
  // another scan each.
  temp_dir dir;
  const std::string cache_dir = dir.path + "/cache";
  flow::disk_result_cache cache(cache_dir, /*max_entries=*/16);
  const flow::flow_result result = flow::run_flow("c432");
  const auto path = [&](std::size_t i) {
    char name[64];
    std::snprintf(name, sizeof(name), "/%016zx-%016zx.xfr", i, i);
    return cache_dir + name;
  };
  const auto live_entries = [&] {
    std::size_t n = 0;
    for (const auto& de : fs::directory_iterator(cache_dir)) {
      n += de.path().extension() == ".xfr";
    }
    return n;
  };
  // Distinct mtimes in the past, oldest first, so the order is exact.
  const auto past = fs::file_time_type::clock::now() - std::chrono::hours(1);
  for (std::size_t i = 1; i <= 16; ++i) {
    cache.store(i, i, result);
    fs::last_write_time(path(i), past + std::chrono::minutes(i));
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(live_entries(), 16u);

  cache.store(17, 17, result);
  EXPECT_EQ(cache.stats().evictions, 3u);
  EXPECT_EQ(live_entries(), 14u);
  for (std::size_t i = 1; i <= 3; ++i) EXPECT_FALSE(fs::exists(path(i))) << i;
  for (std::size_t i = 4; i <= 17; ++i) EXPECT_TRUE(fs::exists(path(i))) << i;

  cache.store(18, 18, result);
  EXPECT_EQ(cache.stats().evictions, 3u);
  EXPECT_EQ(live_entries(), 15u);
}

TEST(DiskCache, QuarantineIsBoundedOldestFirst) {
  // A corruption storm (failing disk, bad RAM) must not fill the volume
  // with quarantined evidence: quarantine/ is capped, oldest-first.  Seed
  // the live directory with more garbage entries than the cap and let the
  // recovery scan quarantine them all.
  temp_dir dir;
  const std::string cache_dir = dir.path + "/cache";
  fs::create_directories(cache_dir);
  const std::size_t total = flow::disk_result_cache::max_quarantine_entries + 6;
  const auto now = fs::file_time_type::clock::now();
  std::string oldest_stem, newest_stem;
  for (std::size_t i = 0; i < total; ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "%016zx-%016zx.xfr", i + 1, i + 1);
    const std::string path = cache_dir + "/" + name;
    std::ofstream(path) << "not a cache entry";
    // Distinct mtimes make "oldest" well defined; i=0 is oldest.
    fs::last_write_time(path, now - std::chrono::minutes(total - i));
    if (i == 0) oldest_stem = name;
    if (i + 1 == total) newest_stem = name;
  }

  flow::disk_result_cache cache(cache_dir);
  EXPECT_EQ(cache.stats().quarantined, total);
  EXPECT_EQ(cache.stats().pruned, 6u);

  std::size_t kept = 0;
  bool oldest_present = false, newest_present = false;
  for (const auto& de : fs::directory_iterator(cache.quarantine_directory())) {
    if (!de.is_regular_file()) continue;
    ++kept;
    const std::string file = de.path().filename().string();
    // Quarantine names keep the original stem plus a .reason suffix.
    oldest_present |= file.rfind(oldest_stem, 0) == 0;
    newest_present |= file.rfind(newest_stem, 0) == 0;
  }
  EXPECT_EQ(kept, flow::disk_result_cache::max_quarantine_entries);
  EXPECT_FALSE(oldest_present);  // oldest evidence went first
  EXPECT_TRUE(newest_present);   // newest evidence always survives
}

TEST(DiskCache, BatchRunnerWarmHitsAcrossRestart) {
  temp_dir dir;
  const std::string cache_dir = dir.path + "/cache";
  flow::flow_options options;
  flow::batch_report first;
  {
    flow::batch_runner runner(2);
    runner.set_disk_cache(cache_dir);
    first = runner.run({"c432", "c880"}, options);
    ASSERT_EQ(first.num_ok(), 2u);
    const auto stats = runner.cache_stats();
    EXPECT_EQ(stats.disk_writes, 2u);
    EXPECT_EQ(stats.disk_hits, 0u);
  }
  // "Restart": a fresh runner (cold memory cache) over the same directory.
  flow::batch_runner runner(2);
  runner.set_disk_cache(cache_dir);
  const auto second = runner.run({"c432", "c880"}, options);
  ASSERT_EQ(second.num_ok(), 2u);
  const auto stats = runner.cache_stats();
  EXPECT_EQ(stats.disk_hits, 2u);
  EXPECT_EQ(stats.disk_writes, 0u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(second.entries[i].result.optimized.content_hash(),
              first.entries[i].result.optimized.content_hash());
    EXPECT_EQ(second.entries[i].result.mapped.stats.jj,
              first.entries[i].result.mapped.stats.jj);
  }
}

TEST(DiskCache, RunCachedEmitsObserverEventsLiveThenCached) {
  temp_dir dir;
  flow::batch_runner runner(1);
  runner.set_disk_cache(dir.path + "/cache");
  const aig g = benchgen::make_benchmark("c432");

  std::vector<std::pair<std::string, bool>> events;
  std::vector<double> event_ms;
  const flow::stage_observer observer = [&](const flow::stage_event& ev) {
    events.emplace_back(ev.stage, ev.from_cache);
    event_ms.push_back(ev.ms);
    EXPECT_EQ(ev.total, 4u);
  };
  const auto live = runner.run_cached(g, "c432", {}, observer);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].first, "generate");
  EXPECT_EQ(events[1].first, "optimize");
  for (const auto& [stage, cached] : events) EXPECT_FALSE(cached);

  events.clear();
  event_ms.clear();
  const auto warm = runner.run_cached(g, "c432", {}, observer);
  ASSERT_EQ(events.size(), 4u);
  for (const auto& [stage, cached] : events) EXPECT_TRUE(cached);
  EXPECT_EQ(warm.mapped.stats.jj, live.mapped.stats.jj);
  // A hit replays the stored timings unchanged, generate included, and
  // returns the same figures it streamed.
  ASSERT_EQ(warm.timings.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(event_ms[i], live.timings[i].ms) << events[i].first;
    EXPECT_EQ(warm.timings[i].ms, live.timings[i].ms) << events[i].first;
  }
}

// flow::result_version joins the options half of the result-cache key, so a
// disk entry stored by an older algorithm is a plain miss, never served.
TEST(DiskCache, EntryStoredBeforeResultVersionIsAMiss) {
  temp_dir dir;
  const std::string cache_dir = dir.path + "/cache";
  const aig g = benchgen::make_benchmark("c432");
  const flow::flow_result real = flow::run_flow("c432");
  flow::flow_result sentinel = real;
  sentinel.name = "sentinel";
  sentinel.mapped.stats.jj = real.mapped.stats.jj + 1;
  // fingerprint(flow_options{}) as computed before result_version existed.
  constexpr std::uint64_t unversioned_options_key = 0x822debe5c1fed70dull;
  const std::uint64_t circuit_key = hash_mix_str(g.content_hash(), "c432");
  {
    flow::disk_result_cache disk(cache_dir);
    disk.store(circuit_key, unversioned_options_key, sentinel);
    ASSERT_TRUE(disk.load(circuit_key, unversioned_options_key).has_value());
  }
  flow::batch_runner runner(1);
  runner.set_disk_cache(cache_dir);
  const flow::flow_result r = runner.run_cached(g, "c432", {});
  EXPECT_EQ(runner.cache_stats().disk_hits, 0u);
  EXPECT_EQ(r.name, "c432");
  EXPECT_EQ(r.mapped.stats.jj, real.mapped.stats.jj);
}

}  // namespace
}  // namespace xsfq
