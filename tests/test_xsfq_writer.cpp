#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "benchgen/registry.hpp"
#include "core/xsfq_writer.hpp"
#include "opt/script.hpp"
#include "util/hash.hpp"

namespace xsfq {
namespace {

TEST(XsfqWriter, VerilogContainsAllCells) {
  const aig g = optimize(benchgen::make_benchmark("cavlc"));
  const auto m = map_to_xsfq(g);
  const std::string v = write_xsfq_verilog_string(m, "cavlc");
  EXPECT_NE(v.find("module cavlc"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  // Instance counts match the netlist exactly.
  auto count_occurrences = [&](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = v.find(needle); pos != std::string::npos;
         pos = v.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count_occurrences("\n  LA u"), m.stats.la_cells);
  EXPECT_EQ(count_occurrences("\n  FA u"), m.stats.fa_cells);
  EXPECT_EQ(count_occurrences("\n  SPLIT u"), m.stats.splitters);
}

TEST(XsfqWriter, SequentialVerilogClosesFeedback) {
  const aig g = optimize(benchgen::make_benchmark("s27"));
  mapping_params p;
  p.reg_style = register_style::pair_boundary;
  const auto m = map_to_xsfq(g, p);
  const std::string v = write_xsfq_verilog_string(m, "s27");
  EXPECT_NE(v.find("DROC_P"), std::string::npos);
  EXPECT_NE(v.find(".trg(trg"), std::string::npos);
  // Every boundary DROC data input references a wire, not an empty name.
  EXPECT_EQ(v.find("(.d(),"), std::string::npos);
}

TEST(XsfqWriter, FeedbackDrocWithoutArcKeepsAnEmptyDataPort) {
  // result_io accepts a feedback DROC with no recorded arc, so a result
  // read back from the disk tier can reach the writer without any arcs.
  const aig g = optimize(benchgen::make_benchmark("s27"));
  mapping_params p;
  p.reg_style = register_style::pair_boundary;
  mapping_result m = map_to_xsfq(g, p);
  ASSERT_FALSE(m.register_feedback.empty());
  m.register_feedback.clear();
  const std::string v = write_xsfq_verilog_string(m, "s27");
  EXPECT_NE(v.find("(.d(), .clk(clk), .trg(trg), .qp("), std::string::npos);
  EXPECT_NE(v.find("\nendmodule\n"), std::string::npos);
}

TEST(XsfqWriter, DotIsBalancedAndAnnotated) {
  const aig g = optimize(benchgen::make_benchmark("c432"));
  mapping_params p;
  p.pipeline_stages = 1;
  const auto m = map_to_xsfq(g, p);
  const std::string dot = write_xsfq_dot_string(m, "c432");
  EXPECT_NE(dot.find("digraph c432"), std::string::npos);
  EXPECT_NE(dot.find("rank 1"), std::string::npos);
  EXPECT_NE(dot.find("rank 2"), std::string::npos);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(XsfqWriter, NamesAreSanitized) {
  aig g;
  const signal a = g.create_pi("a[0]");
  g.create_po(a, "out.q");
  const auto m = map_to_xsfq(g);
  const std::string v = write_xsfq_verilog_string(m, "weird-name");
  EXPECT_NE(v.find("module weird_name"), std::string::npos);
  EXPECT_NE(v.find("a_0__p"), std::string::npos);
  EXPECT_NE(v.find("out_q"), std::string::npos);
  EXPECT_EQ(v.find('['), std::string::npos);
}

/// One mapping of a registry circuit as the generator builds it (no
/// optimize, so the pins follow the mapper and the writers alone).  The
/// hashes were captured from the std::ostream-based writers, before the
/// two-pass ones.  A row of zeros is a mapping the mapper rejects
/// (pipelining a sequential circuit).
struct writer_pin {
  const char* circuit;
  polarity_mode polarity;
  register_style regs;
  unsigned pipeline;
  std::uint64_t verilog;    ///< module named after the circuit
  std::uint64_t odd_names;  ///< modules "9x", "" and "a-b.c", in turn
  std::uint64_t dot;        ///< graph named after the circuit
};

const writer_pin kWriterPins[] = {
    {"c432", polarity_mode::direct_dual_rail, register_style::pair_boundary, 0,
     0xD1C6182C25EDA39Bull, 0x844EEDAC97C4B4EAull, 0xA2C03C56A30FCECFull},
    {"c432", polarity_mode::direct_dual_rail, register_style::pair_boundary, 3,
     0xE843FD8236AEDCD6ull, 0x4F8BECDDCA3FC814ull, 0xD833F46027755489ull},
    {"c432", polarity_mode::direct_dual_rail, register_style::pair_retimed, 0,
     0xD1C6182C25EDA39Bull, 0x844EEDAC97C4B4EAull, 0xA2C03C56A30FCECFull},
    {"c432", polarity_mode::direct_dual_rail, register_style::pair_retimed, 3,
     0xE843FD8236AEDCD6ull, 0x4F8BECDDCA3FC814ull, 0xD833F46027755489ull},
    {"c432", polarity_mode::positive_outputs, register_style::pair_boundary, 0,
     0xB2CEC5BAA2C2027Bull, 0x33F646E604FB8F8Aull, 0x92A01C976FE259D6ull},
    {"c432", polarity_mode::positive_outputs, register_style::pair_boundary, 3,
     0xD7EB8754F39FA350ull, 0xDED9DF2A3DA0D255ull, 0x3C146E63AEC976C8ull},
    {"c432", polarity_mode::positive_outputs, register_style::pair_retimed, 0,
     0xB2CEC5BAA2C2027Bull, 0x33F646E604FB8F8Aull, 0x92A01C976FE259D6ull},
    {"c432", polarity_mode::positive_outputs, register_style::pair_retimed, 3,
     0xD7EB8754F39FA350ull, 0xDED9DF2A3DA0D255ull, 0x3C146E63AEC976C8ull},
    {"c432", polarity_mode::optimized, register_style::pair_boundary, 0,
     0xB2CEC5BAA2C2027Bull, 0x33F646E604FB8F8Aull, 0x92A01C976FE259D6ull},
    {"c432", polarity_mode::optimized, register_style::pair_boundary, 3,
     0xD7EB8754F39FA350ull, 0xDED9DF2A3DA0D255ull, 0x3C146E63AEC976C8ull},
    {"c432", polarity_mode::optimized, register_style::pair_retimed, 0,
     0xB2CEC5BAA2C2027Bull, 0x33F646E604FB8F8Aull, 0x92A01C976FE259D6ull},
    {"c432", polarity_mode::optimized, register_style::pair_retimed, 3,
     0xD7EB8754F39FA350ull, 0xDED9DF2A3DA0D255ull, 0x3C146E63AEC976C8ull},
    {"c880", polarity_mode::direct_dual_rail, register_style::pair_boundary, 0,
     0x4899028EDF9F257Cull, 0xAA8E34C3BE982B7Eull, 0xF74A107071576BD8ull},
    {"c880", polarity_mode::direct_dual_rail, register_style::pair_boundary, 3,
     0x19331C0DB77DBA42ull, 0x3D86BD9B449D5D87ull, 0x7F61CBC71D047165ull},
    {"c880", polarity_mode::direct_dual_rail, register_style::pair_retimed, 0,
     0x4899028EDF9F257Cull, 0xAA8E34C3BE982B7Eull, 0xF74A107071576BD8ull},
    {"c880", polarity_mode::direct_dual_rail, register_style::pair_retimed, 3,
     0x19331C0DB77DBA42ull, 0x3D86BD9B449D5D87ull, 0x7F61CBC71D047165ull},
    {"c880", polarity_mode::positive_outputs, register_style::pair_boundary, 0,
     0x584EC7174E01D19Cull, 0x81A58F59595B113Eull, 0x07954689F7248BBFull},
    {"c880", polarity_mode::positive_outputs, register_style::pair_boundary, 3,
     0x18D9241C5AAB67FCull, 0x7BEF04AE5B51DC9Aull, 0x467838E38F8431C0ull},
    {"c880", polarity_mode::positive_outputs, register_style::pair_retimed, 0,
     0x584EC7174E01D19Cull, 0x81A58F59595B113Eull, 0x07954689F7248BBFull},
    {"c880", polarity_mode::positive_outputs, register_style::pair_retimed, 3,
     0x18D9241C5AAB67FCull, 0x7BEF04AE5B51DC9Aull, 0x467838E38F8431C0ull},
    {"c880", polarity_mode::optimized, register_style::pair_boundary, 0,
     0x584EC7174E01D19Cull, 0x81A58F59595B113Eull, 0x07954689F7248BBFull},
    {"c880", polarity_mode::optimized, register_style::pair_boundary, 3,
     0x18D9241C5AAB67FCull, 0x7BEF04AE5B51DC9Aull, 0x467838E38F8431C0ull},
    {"c880", polarity_mode::optimized, register_style::pair_retimed, 0,
     0x584EC7174E01D19Cull, 0x81A58F59595B113Eull, 0x07954689F7248BBFull},
    {"c880", polarity_mode::optimized, register_style::pair_retimed, 3,
     0x18D9241C5AAB67FCull, 0x7BEF04AE5B51DC9Aull, 0x467838E38F8431C0ull},
    {"s27", polarity_mode::direct_dual_rail, register_style::pair_boundary, 0,
     0x5B6BE6E7F55F1E30ull, 0xBA62E24E9DBB5949ull, 0x7DB65465F31014BDull},
    {"s27", polarity_mode::direct_dual_rail, register_style::pair_boundary, 3,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"s27", polarity_mode::direct_dual_rail, register_style::pair_retimed, 0,
     0x92DF918031F6B92Eull, 0x5092266F8C295BFCull, 0xA66B2991E8508AD5ull},
    {"s27", polarity_mode::direct_dual_rail, register_style::pair_retimed, 3,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"s27", polarity_mode::positive_outputs, register_style::pair_boundary, 0,
     0x01D5F375962F67E6ull, 0x5150CAC188A118CBull, 0x3A20E04F379238D6ull},
    {"s27", polarity_mode::positive_outputs, register_style::pair_boundary, 3,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"s27", polarity_mode::positive_outputs, register_style::pair_retimed, 0,
     0x2406B0F405911FFAull, 0xDC46CF113DECED1Dull, 0x5779F22BC96BAFE3ull},
    {"s27", polarity_mode::positive_outputs, register_style::pair_retimed, 3,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"s27", polarity_mode::optimized, register_style::pair_boundary, 0,
     0x01D5F375962F67E6ull, 0x5150CAC188A118CBull, 0x3A20E04F379238D6ull},
    {"s27", polarity_mode::optimized, register_style::pair_boundary, 3,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"s27", polarity_mode::optimized, register_style::pair_retimed, 0,
     0x2406B0F405911FFAull, 0xDC46CF113DECED1Dull, 0x5779F22BC96BAFE3ull},
    {"s27", polarity_mode::optimized, register_style::pair_retimed, 3,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"s298", polarity_mode::direct_dual_rail, register_style::pair_boundary, 0,
     0xB47C0D7F6D1A1F6Aull, 0x57E08B340323D8A8ull, 0xA5ABA333CD5F4080ull},
    {"s298", polarity_mode::direct_dual_rail, register_style::pair_boundary, 3,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"s298", polarity_mode::direct_dual_rail, register_style::pair_retimed, 0,
     0xBADD78421C689566ull, 0xEAD109E9B6A299DCull, 0x45E957EAEA3CAC1Cull},
    {"s298", polarity_mode::direct_dual_rail, register_style::pair_retimed, 3,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"s298", polarity_mode::positive_outputs, register_style::pair_boundary, 0,
     0x26BDCC7BFB7B90E8ull, 0x7C7EF9210D2D6892ull, 0x61A663C6DCCD2FFBull},
    {"s298", polarity_mode::positive_outputs, register_style::pair_boundary, 3,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"s298", polarity_mode::positive_outputs, register_style::pair_retimed, 0,
     0x0D462A1D0E16FAF0ull, 0xB5E841C23106C50Dull, 0x0817E0D041059D16ull},
    {"s298", polarity_mode::positive_outputs, register_style::pair_retimed, 3,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"s298", polarity_mode::optimized, register_style::pair_boundary, 0,
     0x26BDCC7BFB7B90E8ull, 0x7C7EF9210D2D6892ull, 0x61A663C6DCCD2FFBull},
    {"s298", polarity_mode::optimized, register_style::pair_boundary, 3,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull},
    {"s298", polarity_mode::optimized, register_style::pair_retimed, 0,
     0x0D462A1D0E16FAF0ull, 0xB5E841C23106C50Dull, 0x0817E0D041059D16ull},
    {"s298", polarity_mode::optimized, register_style::pair_retimed, 3,
     0x0000000000000000ull, 0x0000000000000000ull, 0x0000000000000000ull}
};

TEST(XsfqWriter, BytesMatchPinnedHashesAcrossMappingOptions) {
  constexpr std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  for (const writer_pin& pin : kWriterPins) {
    const aig g = benchgen::make_benchmark(pin.circuit);
    mapping_params p;
    p.polarity = pin.polarity;
    p.reg_style = pin.regs;
    p.pipeline_stages = pin.pipeline;
    const std::string what = std::string(pin.circuit) + " polarity " +
                             std::to_string(static_cast<int>(pin.polarity)) +
                             " regs " +
                             std::to_string(static_cast<int>(pin.regs)) +
                             " pipeline " + std::to_string(pin.pipeline);
    if (pin.verilog == 0) {
      EXPECT_THROW((void)map_to_xsfq(g, p), std::invalid_argument) << what;
      continue;
    }
    const mapping_result m = map_to_xsfq(g, p);
    EXPECT_EQ(hash_mix_str(seed, write_xsfq_verilog_string(m, pin.circuit)),
              pin.verilog)
        << what;
    std::uint64_t odd = seed;
    for (const char* name : {"9x", "", "a-b.c"}) {
      odd = hash_mix_str(odd, write_xsfq_verilog_string(m, name));
    }
    EXPECT_EQ(odd, pin.odd_names) << what;
    EXPECT_EQ(hash_mix_str(seed, write_xsfq_dot_string(m, pin.circuit)),
              pin.dot)
        << what;
  }
}

}  // namespace
}  // namespace xsfq
