/// Fuzz-shaped hardening tests for the .bench/.blif frontends: truncated
/// lines, combinational cycles, oversized identifiers, and NUL bytes must
/// all surface as typed std::invalid_argument errors — never a crash, hang,
/// or silent mis-parse — because the serving daemon feeds these parsers
/// with whatever bytes a client sends.  A deterministic mutation loop then
/// sweeps hundreds of corrupted variants of valid netlists through both
/// readers asserting the parse-or-typed-throw contract, and an
/// end-to-end check pins that a served malformed circuit comes back as an
/// error response on a connection that stays open.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include "benchgen/iscas85.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/netlist.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/synth_service.hpp"

namespace xsfq {
namespace {

const char* const valid_bench =
    "# comment\n"
    "INPUT(a)\n"
    "INPUT(b)\n"
    "INPUT(c)\n"
    "OUTPUT(y)\n"
    "OUTPUT(z)\n"
    "t1 = AND(a, b)\n"
    "t2 = XOR(t1, c)\n"
    "y = NOT(t2)\n"
    "z = MUX(a, t1, t2)\n";

const char* const valid_blif =
    ".model fuzz\n"
    ".inputs a b c\n"
    ".outputs y\n"
    ".names a b t1\n"
    "11 1\n"
    ".names t1 c y\n"
    "10 1\n"
    "01 1\n"
    ".end\n";

/// The contract every malformed input must satisfy: a typed throw (or a
/// clean parse for mutations that happen to stay well-formed), nothing
/// else.  The readers lower into the AIG, so lowering shares the guarantee.
void parse_or_typed_throw(const std::string& text) {
  try {
    (void)read_bench(text);
  } catch (const std::invalid_argument&) {
    // typed rejection is the expected failure mode
  }
  try {
    (void)read_blif(text);
  } catch (const std::invalid_argument&) {
  }
}

/// Expects a typed error that names the format and the line at fault.
template <typename Read>
void expect_line_error(Read&& read, const std::string& text,
                       const std::string& format) {
  try {
    (void)read(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_TRUE(std::string(e.what()).starts_with(format + ": line "))
        << e.what();
  }
}

TEST(NetlistFuzz, TruncatedLinesThrowTypedErrors) {
  const char* truncated[] = {
      "INPUT(a",                      // unclosed port
      "INPUT(a)\nOUTPUT(y)\ny = ",    // dangling assignment
      "INPUT(a)\nOUTPUT(y)\ny = AND(a",  // unclosed gate args
      "INPUT(a)\nOUTPUT(y)\ny AND(a)",   // missing '='
      "INPUT(a)\nOUTPUT(y)\ny = FROB(a, a)",  // unknown gate
  };
  for (const char* text : truncated) {
    expect_line_error(read_bench, text, "bench");
  }
  const char* blif_truncated[] = {
      ".model m\n.inputs a\n.outputs y\n.names\n",       // .names w/o output
      ".model m\n.inputs a\n.outputs y\n.names a y\n1\n",  // short cover
      ".model m\n.inputs a\n.outputs y\n1 1\n",          // cover w/o .names
      ".model m\n.inputs a\n.outputs y\n.latch a\n",     // .latch w/o output
      ".model m\n.frobnicate\n",                         // unknown directive
      // Covers a reader could silently mis-lower:
      ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n",
      ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 x\n",
      ".model m\n.outputs y\n.names y\n7\n",
      // An undriven output named like a cover's helper net.
      ".model m\n.inputs a b\n.outputs _blif0a\n.names a b y\n11 1\n",
  };
  for (const char* text : blif_truncated) {
    expect_line_error(read_blif, text, "blif");
  }
  // Truncation at every byte boundary of a valid file: each prefix either
  // parses (some prefixes are complete netlists) or throws typed.
  const std::string bench(valid_bench);
  for (std::size_t cut = 0; cut < bench.size(); ++cut) {
    parse_or_typed_throw(bench.substr(0, cut));
  }
  const std::string blif(valid_blif);
  for (std::size_t cut = 0; cut < blif.size(); ++cut) {
    parse_or_typed_throw(blif.substr(0, cut));
  }
}

TEST(NetlistFuzz, CombinationalCyclesAreDetectedNotLoopedOn) {
  // BENCH allows forward references, so every line of a cycle is well
  // formed — the typed error must come from the lowering's topological
  // pass, not an infinite loop.
  expect_line_error(read_bench,
                    "INPUT(a)\nOUTPUT(y)\n"
                    "p = AND(q, a)\n"
                    "q = AND(p, a)\n"
                    "y = AND(p, q)\n",
                    "bench");
  // Self-loop, same contract; a loop through a register is no cycle.
  expect_line_error(read_bench,
                    "INPUT(a)\nOUTPUT(y)\ns = AND(s, a)\ny = BUF(s)\n",
                    "bench");
  EXPECT_NO_THROW(
      read_bench("INPUT(a)\nOUTPUT(y)\ns = AND(r, a)\nr = DFF(s)\n"
                 "y = BUF(s)\n"));
  expect_line_error(read_blif,
                    ".model m\n.inputs a\n.outputs y\n.names y a y\n11 1\n",
                    "blif");
}

TEST(NetlistFuzz, OversizedIdentifiersAreRejected) {
  const std::string huge(10000, 'x');
  expect_line_error(
      read_bench, "INPUT(" + huge + ")\nOUTPUT(y)\ny = BUF(" + huge + ")\n",
      "bench");
  expect_line_error(
      read_bench,
      "INPUT(a)\nOUTPUT(y)\n" + huge + " = BUF(a)\ny = BUF(a)\n", "bench");
  expect_line_error(read_blif,
                    ".model m\n.inputs " + huge + "\n.outputs y\n.names " +
                        huge + " y\n1 1\n",
                    "blif");
  // At the cap is still fine — the limit must not reject real names.
  const std::string big_ok(4096, 'x');
  EXPECT_NO_THROW(read_bench("INPUT(" + big_ok + ")\nOUTPUT(y)\ny = BUF(" +
                             big_ok + ")\n"));
}

TEST(NetlistFuzz, NulBytesAreRejected) {
  std::string bench(valid_bench);
  bench[bench.size() / 2] = '\0';
  try {
    (void)read_bench(bench);
    FAIL() << "NUL byte should have been rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("NUL"), std::string::npos);
  }
  std::string blif(valid_blif);
  blif[blif.size() / 2] = '\0';
  expect_line_error(read_blif, blif, "blif");
}

TEST(NetlistFuzz, DeterministicMutationSweepNeverCrashes) {
  // A seeded LCG drives byte flips, deletions, and splices over the valid
  // sources and c432 as exported in both formats; every mutant must parse
  // or throw typed.  Deterministic, so a failure reproduces by seed — no
  // corpus files, no flakes.
  std::uint64_t state = 0x5eedf00dULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(state >> 33);
  };
  const netlist c432 = netlist_from_aig(benchgen::make_c432(), "c432");
  for (const std::string& source :
       {std::string(valid_bench), std::string(valid_blif),
        write_bench_string(c432), write_blif_string(c432)}) {
    for (int round = 0; round < 400; ++round) {
      std::string mutant = source;
      const unsigned edits = 1 + next() % 4;
      for (unsigned e = 0; e < edits; ++e) {
        if (mutant.empty()) break;
        const std::size_t at = next() % mutant.size();
        switch (next() % 4) {
          case 0:  // flip to an arbitrary byte (including controls)
            mutant[at] = static_cast<char>(next() % 256);
            break;
          case 1:  // delete a span
            mutant.erase(at, 1 + next() % 8);
            break;
          case 2:  // duplicate a span (builds repeated/conflicting defs)
            mutant.insert(at, mutant.substr(at, 1 + next() % 16));
            break;
          case 3:  // splice a line boundary away
            if (const auto nl = mutant.find('\n', at);
                nl != std::string::npos) {
              mutant.erase(nl, 1);
            }
            break;
        }
      }
      parse_or_typed_throw(mutant);
    }
  }
}

TEST(NetlistFuzz, ServedMalformedCircuitKeepsConnectionOpen) {
  // The daemon-side contract: garbage circuit text is a failed *request*
  // (typed error in the response), never a dead connection or daemon.
  char tmpl[] = "/tmp/xsfq_fuzz_XXXXXX";
  const std::string dir = mkdtemp(tmpl);
  serve::server_options options;
  options.socket_path = dir + "/served.sock";
  options.threads = 2;
  serve::server srv(options);
  serve::client cli(options.socket_path);

  const char* bad_sources[] = {
      "INPUT(a\n",                       // truncated
      "INPUT(a)\nOUTPUT(y)\ny = AND(y, a)\n",  // self-cycle
      "OUTPUT(y)\n",                     // undriven output
      "p = AND(q, a)\nq = AND(p, a)\n",  // cycle + undriven
  };
  for (const char* text : bad_sources) {
    serve::synth_request req;
    req.spec = "fuzz.bench";
    req.source = serve::circuit_source::bench_text;
    req.model = "fuzz";
    req.source_text = text;
    const serve::synth_response resp = cli.submit(req);
    EXPECT_FALSE(resp.ok) << text;
    EXPECT_FALSE(resp.error.empty()) << text;
    EXPECT_TRUE(cli.ping()) << text;  // connection survives every reject
  }
  // A real NUL mid-payload (not string-literal-truncated).
  serve::synth_request req;
  req.spec = "fuzz.bench";
  req.source = serve::circuit_source::bench_text;
  req.model = "fuzz";
  req.source_text = std::string(valid_bench);
  req.source_text[5] = '\0';
  const serve::synth_response resp = cli.submit(req);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("NUL"), std::string::npos) << resp.error;
  EXPECT_TRUE(cli.ping());

  // And the daemon still serves good requests afterwards.
  const serve::synth_response good =
      cli.submit(serve::make_request_for_spec("c432"));
  EXPECT_TRUE(good.ok);
  srv.stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace xsfq
