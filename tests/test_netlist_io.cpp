#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "aig/simulate.hpp"
#include "benchgen/iscas85.hpp"
#include "benchgen/registry.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/dot_io.hpp"
#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace xsfq {
namespace {

constexpr const char* k_bench_text = R"(
# full adder
INPUT(a)
INPUT(b)
INPUT(cin)
OUTPUT(s)
OUTPUT(cout)
x = XOR(a, b)
s = XOR(x, cin)
t1 = AND(a, b)
t2 = AND(x, cin)
cout = OR(t1, t2)
)";

TEST(Bench, ParsesFullAdder) {
  const aig g = read_bench(k_bench_text);
  EXPECT_EQ(g.num_pis(), 3u);
  EXPECT_EQ(g.num_pos(), 2u);
  EXPECT_EQ(g.num_gates(), 9u);  // as the earlier, netlist-based reader
  // Validate function.
  const auto tables = compute_co_tables(g);
  const auto a = truth_table::nth_var(3, 0);
  const auto b = truth_table::nth_var(3, 1);
  const auto c = truth_table::nth_var(3, 2);
  EXPECT_EQ(tables[0], a ^ b ^ c);
  EXPECT_EQ(tables[1], (a & b) | (a & c) | (b & c));
}

TEST(Bench, ForwardReferencesAllowed) {
  const aig g = read_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(x)\nx = BUFF(a)\n");
  EXPECT_EQ(compute_co_tables(g)[0], ~truth_table::nth_var(1, 0));
}

TEST(Bench, SequentialDffWithInit) {
  const aig g = read_bench("INPUT(d)\nOUTPUT(q)\nq = DFF(d, 1)\n");
  EXPECT_EQ(g.num_registers(), 1u);
  EXPECT_TRUE(g.register_at(0).init);
  sequential_simulator sim(g);
  EXPECT_EQ(sim.step({false})[0], true);   // init value
  EXPECT_EQ(sim.step({true})[0], false);   // captured 0
  EXPECT_EQ(sim.step({false})[0], true);
}

TEST(Bench, RoundTripThroughWriter) {
  const aig g = read_bench(k_bench_text);
  const aig g2 = read_bench(write_bench_string(netlist_from_aig(g, "fa")));
  EXPECT_TRUE(exhaustive_equivalent(g, g2));
}

TEST(Bench, AigRoundTrip) {
  const aig g = benchgen::make_c432();
  const netlist n = netlist_from_aig(g, "c432");
  const std::string text = write_bench_string(n);
  const aig g2 = read_bench(text);
  EXPECT_TRUE(random_equivalent(g, g2, 32, 9));
}

TEST(Bench, Errors) {
  EXPECT_THROW(read_bench("y = FROB(a)\n"), std::invalid_argument);
  EXPECT_THROW(read_bench("INPUT(a)\ny = NOT(a, a)\n"),
               std::invalid_argument);
  EXPECT_THROW(read_bench("INPUT(a)\nOUTPUT(y)\n"),
               std::invalid_argument);  // y undriven
  EXPECT_THROW(read_bench("INPUT(a)\na = NOT(a)\n"),
               std::invalid_argument);  // driven twice
}

constexpr const char* k_blif_text = R"(
.model mux
.inputs s a b
.outputs y
.names s a t0
11 1
.names s b t1
01 1
.names t0 t1 y
1- 1
-1 1
.end
)";

TEST(Blif, ParsesMux) {
  const aig g = read_blif(k_blif_text);
  ASSERT_EQ(g.num_pis(), 3u);
  EXPECT_EQ(g.pi_name(0), "s");
  EXPECT_EQ(g.pi_name(1), "a");
  EXPECT_EQ(g.pi_name(2), "b");
  ASSERT_EQ(g.num_pos(), 1u);
  EXPECT_EQ(g.po_name(0), "y");
  const auto tables = compute_co_tables(g);
  const auto s = truth_table::nth_var(3, 0);
  const auto a = truth_table::nth_var(3, 1);
  const auto b = truth_table::nth_var(3, 2);
  EXPECT_EQ(tables[0], (s & a) | (~s & b));
}

TEST(Blif, OffsetCover) {
  // Output listed through its offset: y=0 exactly when a=1,b=1 -> y = NAND.
  const aig g = read_blif(
      ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n");
  EXPECT_EQ(compute_co_tables(g)[0],
            ~(truth_table::nth_var(2, 0) & truth_table::nth_var(2, 1)));
}

TEST(Blif, LatchWithInit) {
  const aig g = read_blif(
      ".model c\n.inputs d\n.outputs q\n.latch d q re clk 1\n.end\n");
  EXPECT_EQ(g.num_registers(), 1u);
  EXPECT_TRUE(g.register_at(0).init);
}

TEST(Blif, ConstantNames) {
  const aig g = read_blif(
      ".model k\n.outputs one zero\n.names one\n1\n.names zero\n.end\n");
  const auto tables = compute_co_tables(g);
  EXPECT_TRUE(tables[0].is_const1());
  EXPECT_TRUE(tables[1].is_const0());
}

TEST(Blif, RoundTripThroughWriter) {
  const aig g = read_blif(k_blif_text);
  const aig g2 = read_blif(write_blif_string(netlist_from_aig(g, "mux")));
  EXPECT_TRUE(exhaustive_equivalent(g, g2));
}

TEST(Blif, AigWithRegistersRoundTrip) {
  aig g;
  const signal in = g.create_pi("in");
  const signal r = g.create_register_output(true, "st");
  g.set_register_input(0, g.create_xor(in, r));
  g.create_po(g.create_and(r, in), "out");
  const netlist n = netlist_from_aig(g, "seq");
  const aig g2 = read_blif(write_blif_string(n));
  EXPECT_TRUE(random_sequential_equivalent(g, g2, 8, 64));
}

// ---------------------------------------------------------------------------
// Lowering order.  Node order feeds content_hash, the cache keys and
// optimize, so the readers must lower every gate in the sweep repeated
// file-order sweeps would lower it in.  Every registry circuit is exported
// as .bench and as BLIF, both as written and with its gates (.bench lines,
// BLIF .names blocks) in a seeded shuffle, and each read is pinned to the
// content hash and gate count that reader produced.
// ---------------------------------------------------------------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  for (std::size_t start = 0; start < text.size();) {
    const auto nl = text.find('\n', start);
    lines.push_back(text.substr(start, nl - start));
    if (nl == std::string::npos) break;
    start = nl + 1;
  }
  return lines;
}

template <typename T>
void seeded_shuffle(std::vector<T>& v, std::uint64_t seed) {
  rng gen(seed);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[gen.below(i)]);
  }
}

/// The .bench text with its gate lines (every line holding '=') shuffled
/// among themselves.
std::string shuffled_bench(const std::string& text, std::uint64_t seed) {
  std::vector<std::string> lines = split_lines(text);
  std::vector<std::size_t> slots;
  std::vector<std::string> gates;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find('=') != std::string::npos) {
      slots.push_back(i);
      gates.push_back(lines[i]);
    }
  }
  seeded_shuffle(gates, seed);
  for (std::size_t k = 0; k < slots.size(); ++k) lines[slots[k]] = gates[k];
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  return out;
}

/// The BLIF text with whole .names blocks (header and cover) shuffled among
/// themselves; every other line keeps its place.
std::string shuffled_blif(const std::string& text, std::uint64_t seed) {
  std::vector<std::string> blocks;
  std::vector<std::string> items;  // "" marks a block's slot
  for (const auto& l : split_lines(text)) {
    if (l.starts_with(".names")) {
      blocks.push_back(l + "\n");
      items.emplace_back();
    } else if (!l.empty() && l[0] != '.' && !blocks.empty() &&
               items.back().empty()) {
      blocks.back() += l + "\n";
    } else {
      items.push_back(l + "\n");
    }
  }
  seeded_shuffle(blocks, seed);
  std::string out;
  std::size_t next = 0;
  for (const auto& item : items) out += item.empty() ? blocks[next++] : item;
  return out;
}

struct order_pin {
  std::uint64_t hash;
  std::size_t gates;
};

struct exported_pins {
  const char* circuit;
  order_pin bench;
  order_pin bench_shuffled;
  order_pin blif;
  order_pin blif_shuffled;
};

constexpr std::uint64_t shuffle_seed = 17;

/// Captured from the earlier reader, which built a netlist and lowered it by
/// sweeping its gates in file order until every gate was lowered.
const exported_pins k_order_pins[] = {
    {"c432", {0xa60cec7287b7aea7ull, 143}, {0xcd8b8e50e4055496ull, 143}, {0xa60cec7287b7aea7ull, 143}, {0xcd8b8e50e4055496ull, 143}},
    {"c499", {0xc9d2b958ca709403ull, 522}, {0x8dda57bd00108dd7ull, 522}, {0xc9d2b958ca709403ull, 522}, {0x8dda57bd00108dd7ull, 522}},
    {"c880", {0x6721470b46b01d49ull, 483}, {0xeb748eb63c4887beull, 483}, {0x6721470b46b01d49ull, 483}, {0xeb748eb63c4887beull, 483}},
    {"c1355", {0xc9d2b958ca709403ull, 522}, {0x8dda57bd00108dd7ull, 522}, {0xc9d2b958ca709403ull, 522}, {0x8dda57bd00108dd7ull, 522}},
    {"c1908", {0x5804b4862e185146ull, 308}, {0x2b8e1864799267f2ull, 308}, {0x5804b4862e185146ull, 308}, {0x2b8e1864799267f2ull, 308}},
    {"c2670", {0xd5b9ab2d213cde64ull, 710}, {0xf24a6ee136f9031dull, 710}, {0xd5b9ab2d213cde64ull, 710}, {0xf24a6ee136f9031dull, 710}},
    {"c3540", {0x554aff539f1b4153ull, 489}, {0x30b0ce3999588725ull, 489}, {0x554aff539f1b4153ull, 489}, {0x30b0ce3999588725ull, 489}},
    {"c5315", {0x33fee479488a4461ull, 1212}, {0xd254aa57b8bcf2f9ull, 1212}, {0x33fee479488a4461ull, 1212}, {0xd254aa57b8bcf2f9ull, 1212}},
    {"c6288", {0x93d31ec9340af814ull, 2560}, {0x9bc65569f6a7867full, 2560}, {0x93d31ec9340af814ull, 2560}, {0x9bc65569f6a7867full, 2560}},
    {"c7552", {0xe94dae96ab8dfbfeull, 1445}, {0x45f7ede5f63b09a0ull, 1445}, {0xe94dae96ab8dfbfeull, 1445}, {0x45f7ede5f63b09a0ull, 1445}},
    {"arbiter", {0x7d8d3eb58482dff0ull, 1272}, {0x1ad025a38fdb0613ull, 1272}, {0x7d8d3eb58482dff0ull, 1272}, {0x1ad025a38fdb0613ull, 1272}},
    {"cavlc", {0x081142b1454b580full, 60}, {0x9f90d9c4329a5dabull, 60}, {0x081142b1454b580full, 60}, {0x9f90d9c4329a5dabull, 60}},
    {"ctrl", {0xe4e6e5eedf76daf9ull, 86}, {0xde95c7cb66f34da5ull, 86}, {0xe4e6e5eedf76daf9ull, 86}, {0xde95c7cb66f34da5ull, 86}},
    {"dec", {0x08cc494854ca7e75ull, 312}, {0x4870dc5d9ec25781ull, 312}, {0x08cc494854ca7e75ull, 312}, {0x4870dc5d9ec25781ull, 312}},
    {"i2c", {0x4430040f572cc926ull, 428}, {0x56d550b45dff9e3dull, 428}, {0x4430040f572cc926ull, 428}, {0x56d550b45dff9e3dull, 428}},
    {"int2float", {0xb790720311560d08ull, 85}, {0x9e970d09e1e61921ull, 85}, {0xb790720311560d08ull, 85}, {0x9e970d09e1e61921ull, 85}},
    {"mem_ctrl", {0x3a9315d2fc3ded3dull, 337}, {0x39ae2a1e2d2da61eull, 337}, {0x3a9315d2fc3ded3dull, 337}, {0x39ae2a1e2d2da61eull, 337}},
    {"priority", {0x7317dfd061527938ull, 494}, {0xb7b2fa25e80e2351ull, 494}, {0x7317dfd061527938ull, 494}, {0xb7b2fa25e80e2351ull, 494}},
    {"router", {0xc89eeb9eeb936bfaull, 378}, {0x102f6383bc5e60b1ull, 378}, {0xc89eeb9eeb936bfaull, 378}, {0x102f6383bc5e60b1ull, 378}},
    {"voter", {0xed2d09048abe3c54ull, 13932}, {0xc39090279184dea3ull, 13932}, {0xed2d09048abe3c54ull, 13932}, {0xc39090279184dea3ull, 13932}},
    {"voter_sop", {0x2b362798cbac1dabull, 112}, {0x20d4009f289d9706ull, 112}, {0x2b362798cbac1dabull, 112}, {0x20d4009f289d9706ull, 112}},
    {"sin", {0xb102aaaf2bc0d4ecull, 12357}, {0x2d18d9556a78ad97ull, 12357}, {0xb102aaaf2bc0d4ecull, 12357}, {0x2d18d9556a78ad97ull, 12357}},
    {"s27", {0x94d71b44579a0a08ull, 25}, {0xc5826aa0d4da0c13ull, 25}, {0x94d71b44579a0a08ull, 25}, {0xcc208539e1ae5df2ull, 25}},
    {"s298", {0x3da1e39a03453aecull, 183}, {0xce1af16c3dcc3709ull, 183}, {0x3da1e39a03453aecull, 183}, {0x4a8f0edf4c3c91c7ull, 183}},
    {"s344", {0x68ea74cbaabce313ull, 423}, {0xfb84e2d7b2b13458ull, 423}, {0x68ea74cbaabce313ull, 423}, {0x4673c2282a420bdaull, 423}},
    {"s349", {0x6d2ba80312be0b4eull, 425}, {0x74bad6846bfd841aull, 425}, {0x6d2ba80312be0b4eull, 425}, {0x03ed7ecba59e8bb9ull, 425}},
    {"s382", {0x12bf623db12bf7b8ull, 218}, {0x70e8009dfe162ce7ull, 218}, {0x12bf623db12bf7b8ull, 218}, {0x2b072cde4734b4b4ull, 218}},
    {"s386", {0x9eccf5b97b7bf691ull, 172}, {0xab66e7568db485b9ull, 172}, {0x9eccf5b97b7bf691ull, 172}, {0x10b371c9dd11619aull, 172}},
    {"s400", {0x68cb0953e496d87dull, 214}, {0x067e5f12d15e02cdull, 214}, {0x68cb0953e496d87dull, 214}, {0xb1ab1334a12056f4ull, 214}},
    {"s420.1", {0x83864302db166cbfull, 112}, {0x344fd391b18961efull, 112}, {0x83864302db166cbfull, 112}, {0x1ec88c9846e93ae2ull, 112}},
    {"s444", {0x2acbde8086a4470bull, 223}, {0x618d09175c62c2e5ull, 223}, {0x2acbde8086a4470bull, 223}, {0x091b0bd443c23617ull, 223}},
    {"s510", {0x15903a87c3eb2d04ull, 281}, {0x71de2383dc78920bull, 281}, {0x15903a87c3eb2d04ull, 281}, {0xaf3ae4b8fcf8de84ull, 281}},
    {"s526", {0x46406719bbf09364ull, 222}, {0xdcb9b0daab7ddd94ull, 222}, {0x46406719bbf09364ull, 222}, {0x12f867543363dd90ull, 222}},
    {"s641", {0x71aef673d5c929bfull, 1821}, {0x427bb8ab4a5169ffull, 1821}, {0x71aef673d5c929bfull, 1821}, {0x9e13bc0a5e86cbe6ull, 1821}},
    {"s713", {0x9f21dd2ff1da0d88ull, 1733}, {0x11a42a8255ee192full, 1733}, {0x9f21dd2ff1da0d88ull, 1733}, {0xf61e825b9bd42af1ull, 1733}},
    {"s820", {0x3e709d6d89d99262ull, 815}, {0x4370dd571418c23eull, 815}, {0x3e709d6d89d99262ull, 815}, {0x9701374c9d1c9be7ull, 815}},
    {"s832", {0xf2ea016540e9b8a4ull, 803}, {0xd2ce032f3572e23aull, 803}, {0xf2ea016540e9b8a4ull, 803}, {0xb9fbcee981d77759ull, 803}},
    {"s838.1", {0x976237b0d3c61ab5ull, 224}, {0x831428fdcbf4c2e1ull, 224}, {0x976237b0d3c61ab5ull, 224}, {0x85f24c716f816d30ull, 224}},
};

TEST(NetlistOrder, ExportedRegistryCircuitsKeepTheirNodeOrder) {
  const auto& registry = benchgen::all_benchmarks();
  ASSERT_EQ(registry.size(), std::size(k_order_pins));
  for (const exported_pins& pin : k_order_pins) {
    const aig g = benchgen::make_benchmark(pin.circuit);
    const netlist n = netlist_from_aig(g, pin.circuit);
    const std::string bench = write_bench_string(n);
    const std::string blif = write_blif_string(n);
    const std::pair<aig, order_pin> reads[] = {
        {read_bench(bench), pin.bench},
        {read_bench(shuffled_bench(bench, shuffle_seed)), pin.bench_shuffled},
        {read_blif(blif), pin.blif},
        {read_blif(shuffled_blif(blif, shuffle_seed)), pin.blif_shuffled}};
    const char* what[] = {"bench", "shuffled bench", "blif", "shuffled blif"};
    for (std::size_t i = 0; i < std::size(reads); ++i) {
      EXPECT_EQ(reads[i].first.content_hash(), reads[i].second.hash)
          << pin.circuit << " " << what[i];
      EXPECT_EQ(reads[i].first.num_gates(), reads[i].second.gates)
          << pin.circuit << " " << what[i];
    }
  }
}

/// A chain g1 = AND(i0, i1), gk = AND(g(k-1), i(k % 16)), listed in order
/// or last gate first.
std::string chain_bench(std::size_t length, bool reversed) {
  std::string text;
  for (int i = 0; i < 16; ++i) text += "INPUT(i" + std::to_string(i) + ")\n";
  text += "OUTPUT(g" + std::to_string(length) + ")\n";
  std::vector<std::string> gates;
  gates.push_back("g1 = AND(i0, i1)\n");
  for (std::size_t k = 2; k <= length; ++k) {
    gates.push_back("g" + std::to_string(k) + " = AND(g" +
                    std::to_string(k - 1) + ", i" + std::to_string(k % 16) +
                    ")\n");
  }
  if (reversed) std::reverse(gates.begin(), gates.end());
  for (const auto& g : gates) text += g;
  return text;
}

TEST(NetlistOrder, ReversedChainLowersInLinearTime) {
  // Repeated sweeps in file order need one sweep per gate here: quadratic.
  // One topological pass keeps the reversed listing within a small factor
  // of the in-order one (best of three each, so a descheduled read does not
  // decide it).
  constexpr std::size_t length = 50000;
  const std::string forward = chain_bench(length, false);
  const std::string backward = chain_bench(length, true);
  const auto best_ms = [](const std::string& text, aig& out) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      out = read_bench(text);
      best = std::min(best, std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    }
    return best;
  };
  aig in_order;
  aig reversed;
  const double forward_ms = best_ms(forward, in_order);
  const double backward_ms = best_ms(backward, reversed);
  EXPECT_EQ(in_order.num_gates(), length);
  EXPECT_EQ(reversed.content_hash(), in_order.content_hash());
  EXPECT_LE(backward_ms, 4.0 * forward_ms)
      << "in order " << forward_ms << " ms, reversed " << backward_ms << " ms";
}

TEST(Dot, ContainsStructure) {
  aig g;
  const signal a = g.create_pi("a");
  const signal b = g.create_pi("b");
  g.create_po(!g.create_and(a, b), "y");
  const std::string dot = write_dot_string(g, "t");
  EXPECT_NE(dot.find("digraph t"), std::string::npos);
  EXPECT_NE(dot.find("style=dotted"), std::string::npos);  // the PO inversion
  EXPECT_NE(dot.find("label=\"a\""), std::string::npos);
}

}  // namespace
}  // namespace xsfq
