#pragma once
/// \file simulate.hpp
/// \brief Bit-parallel Boolean simulation and equivalence checking of AIGs.
///
/// These routines provide the golden-model side of the verification story:
/// every optimization pass and every xSFQ mapping is validated against the
/// Boolean behaviour of the original network (Sec. 6 of DESIGN.md).
///
/// The workhorse is `sim_engine`, a *wide* word-parallel simulator: one AIG
/// traversal evaluates `width()` 64-bit pattern words per node (so 64*W
/// patterns per sweep) out of a single contiguous scratch plane that is
/// recycled across calls.  Gates are pre-decoded at attach() time into a
/// dense streaming program, and the per-gate kernel is a plain
/// fixed-trip-count `uint64_t` loop that the compiler auto-vectorizes
/// (widths 1/4/8/16/32 get dedicated kernels, multiversioned for AVX2 /
/// AVX-512 with a baseline fallback; other widths — used by
/// `compute_co_tables` for > 6-input networks — take a generic loop).  An
/// incremental mode re-simulates only the transitive fanout cone of inputs
/// whose patterns changed since the last sweep.  `simulate64`,
/// `compute_co_tables`, `exhaustive_equivalent` and `random_equivalent` are
/// all thin layers over this engine.

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "util/rng.hpp"
#include "util/truth_table.hpp"

namespace xsfq {

namespace detail {
/// One AND gate, pre-decoded at sim_engine::attach() time: fanin literals
/// are raw signals ((index << 1) | complement), `out` is the gate's node
/// index.  Sweeps stream this dense 12-byte array instead of re-walking the
/// node table and its type tags on every traversal.
struct sim_gate_op {
  std::uint32_t out;
  std::uint32_t a;
  std::uint32_t b;
};
}  // namespace detail

/// Work counters of a sim_engine, accumulated across sweeps until reset.
struct sim_counters {
  std::uint64_t traversals = 0;     ///< full + incremental sweeps
  std::uint64_t pattern_words = 0;  ///< 64-pattern words applied at the CIs
  std::uint64_t node_evals = 0;     ///< gate x word evaluations performed
  std::uint64_t node_evals_skipped = 0;  ///< avoided by incremental resim

  sim_counters& operator+=(const sim_counters& o) {
    traversals += o.traversals;
    pattern_words += o.pattern_words;
    node_evals += o.node_evals;
    node_evals_skipped += o.node_evals_skipped;
    return *this;
  }
};

/// Reusable wide simulator.  Attach a network, fill the CI pattern plane,
/// sweep, read the CO planes; the scratch plane reaches its high-water mark
/// once and is recycled across attach() calls and networks.
class sim_engine {
public:
  /// Default lane count: 8 x 64 = 512 patterns per traversal.
  static constexpr unsigned default_width = 8;

  explicit sim_engine(unsigned width = default_width) { set_width(width); }

  /// Words simulated per node and traversal.
  [[nodiscard]] unsigned width() const { return width_; }
  /// Changes the lane count; detaches the engine (attach() again before
  /// simulating) but keeps the scratch plane's capacity.
  void set_width(unsigned width);

  /// Binds the engine to `network` and sizes the scratch plane.  The network
  /// must outlive the engine or the next attach().  All CI patterns start
  /// out dirty (a full simulate() is required before reading planes).
  void attach(const aig& network);
  [[nodiscard]] const aig* network() const { return net_; }

  /// Pattern words of CI `i` (width() words, mutable).  Writing through the
  /// span marks the input dirty for the next resimulate().
  [[nodiscard]] std::span<std::uint64_t> ci_words(std::size_t i);
  /// Fills every CI lane with fresh random words (and marks them dirty).
  void randomize_inputs(rng& gen);

  /// Full sweep: evaluates every gate on all lanes.
  void simulate();
  /// Incremental sweep: re-evaluates only gates in the transitive fanout of
  /// CIs written since the last sweep.  Equivalent to simulate() in result.
  void resimulate();

  /// Value plane of node `n` after a sweep (width() words).
  [[nodiscard]] std::span<const std::uint64_t> node_words(
      aig::node_index n) const {
    return {values_.data() + static_cast<std::size_t>(n) * width_, width_};
  }
  /// Copies the value plane of CO `i` (output complement applied) to `out`.
  void co_words(std::size_t i, std::span<std::uint64_t> out) const;
  /// One word of CO `i`'s plane, complement applied.
  [[nodiscard]] std::uint64_t co_word(std::size_t i, unsigned lane) const;
  /// True when every CO plane of this engine equals the other engine's
  /// (requires equal widths and CO counts; complements applied).
  [[nodiscard]] bool co_equal(const sim_engine& other) const;

  [[nodiscard]] const sim_counters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

private:
  void sweep(bool incremental);

  const aig* net_ = nullptr;
  unsigned width_ = default_width;
  std::vector<std::uint64_t> values_;  ///< size() * width contiguous plane
  std::vector<detail::sim_gate_op> program_;  ///< gates in topological order
  std::vector<std::uint8_t> dirty_;    ///< per-node dirty flag (incremental)
  bool any_dirty_ = false;  ///< some CI was written since the last sweep
  bool valid_ = false;      ///< a full sweep has run since attach()
  sim_counters counters_;
};

/// Reusable two-sided randomized equivalence checker: both engines and their
/// scratch planes persist across check() calls (the opt_engine keeps one for
/// its per-pass validation).
class equivalence_checker {
public:
  /// Checks batch patterns 32 words at a time: wide enough that the
  /// per-gate decode cost all but vanishes (see bench_perf), small
  /// enough that two c6288-sized planes stay cache-resident.
  static constexpr unsigned default_width = 32;

  explicit equivalence_checker(unsigned width = default_width)
      : left_(width), right_(width) {}

  /// Randomized combinational check with `rounds` * 64 patterns; sound "no"
  /// answers, probabilistic "yes".  Interface mismatch returns false.
  bool check(const aig& a, const aig& b, unsigned rounds = 64,
             std::uint64_t seed = 1);

  /// Work done by both engines across every check().
  [[nodiscard]] sim_counters counters() const {
    sim_counters c = left_.counters();
    c += right_.counters();
    return c;
  }

private:
  sim_engine left_;
  sim_engine right_;
};

/// Simulates 64 input patterns at once.  `ci_patterns` holds one 64-bit word
/// per combinational input (PIs then register outputs); the result holds one
/// word per combinational output (POs then register inputs).
std::vector<std::uint64_t> simulate64(const aig& network,
                                      std::span<const std::uint64_t> ci_patterns);

/// Computes the truth table of every combinational output as a function of
/// all combinational inputs.  Requires num_cis() <= truth_table::max_vars.
std::vector<truth_table> compute_co_tables(const aig& network);

/// Exhaustive combinational equivalence check (requires matching interface
/// sizes and num_cis() <= 16).
bool exhaustive_equivalent(const aig& a, const aig& b);

/// Randomized combinational equivalence check with `rounds` * 64 patterns.
/// Sound "no" answers; probabilistic "yes".
bool random_equivalent(const aig& a, const aig& b, unsigned rounds = 64,
                       std::uint64_t seed = 1);

/// Cycle-accurate sequential simulator (single trace, bool-valued).
class sequential_simulator {
public:
  explicit sequential_simulator(const aig& network);

  /// Resets all registers to their declared init values.
  void reset();
  /// Applies one clock cycle with the given PI values; returns PO values
  /// (computed from the *current* state before the register update).
  std::vector<bool> step(const std::vector<bool>& pi_values);
  /// Current register state.
  [[nodiscard]] const std::vector<bool>& state() const { return state_; }
  void set_state(std::vector<bool> state) { state_ = std::move(state); }

private:
  const aig& network_;
  std::vector<bool> state_;
};

/// Randomized sequential equivalence check: both networks are reset and
/// driven with the same random input traces; POs must match at every cycle.
bool random_sequential_equivalent(const aig& a, const aig& b,
                                  unsigned num_traces = 8,
                                  unsigned cycles_per_trace = 64,
                                  std::uint64_t seed = 1);

}  // namespace xsfq
