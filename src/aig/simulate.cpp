#include "aig/simulate.hpp"

#include <algorithm>
#include <stdexcept>

namespace xsfq {

// ---------------------------------------------------------------------------
// Sweep kernels.  Free functions so that function multiversioning applies:
// on x86 each kernel is cloned for AVX2/AVX-512 with a baseline fallback and
// resolved once at load time — the 8-lane kernel then processes a whole
// plane row per vector instruction.  The fixed-width variants give the
// compiler compile-time trip counts; all planes are disjoint by topological
// order (gate outputs always sit above their fanins).
// ---------------------------------------------------------------------------

namespace {

using detail::sim_gate_op;

// ThreadSanitizer builds skip the clones: their ifunc resolvers run before
// the TSan runtime is initialized and crash the process before main.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define XSFQ_SIM_NO_CLONES
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define XSFQ_SIM_NO_CLONES
#endif
#if defined(__x86_64__) && defined(__has_attribute) && \
    !defined(XSFQ_SIM_NO_CLONES)
#if __has_attribute(target_clones)
#define XSFQ_SIM_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#endif
#endif
#ifndef XSFQ_SIM_CLONES
#define XSFQ_SIM_CLONES
#endif

#define XSFQ_DEFINE_SWEEP_KERNEL(NAME, W)                              \
  XSFQ_SIM_CLONES void NAME(const sim_gate_op* ops, std::size_t n,     \
                            std::uint64_t* values) {                   \
    for (std::size_t i = 0; i < n; ++i) {                              \
      const sim_gate_op op = ops[i];                                   \
      const std::uint64_t ma = -static_cast<std::uint64_t>(op.a & 1u); \
      const std::uint64_t mb = -static_cast<std::uint64_t>(op.b & 1u); \
      const std::uint64_t* const __restrict va =                       \
          values + static_cast<std::size_t>(op.a >> 1) * (W);          \
      const std::uint64_t* const __restrict vb =                       \
          values + static_cast<std::size_t>(op.b >> 1) * (W);          \
      std::uint64_t* const __restrict out =                            \
          values + static_cast<std::size_t>(op.out) * (W);             \
      for (unsigned w = 0; w < (W); ++w) {                             \
        out[w] = (va[w] ^ ma) & (vb[w] ^ mb);                          \
      }                                                                \
    }                                                                  \
  }

XSFQ_DEFINE_SWEEP_KERNEL(sweep_full_w1, 1)
XSFQ_DEFINE_SWEEP_KERNEL(sweep_full_w4, 4)
XSFQ_DEFINE_SWEEP_KERNEL(sweep_full_w8, 8)
XSFQ_DEFINE_SWEEP_KERNEL(sweep_full_w16, 16)
XSFQ_DEFINE_SWEEP_KERNEL(sweep_full_w32, 32)
#undef XSFQ_DEFINE_SWEEP_KERNEL

XSFQ_SIM_CLONES void sweep_full_generic(const sim_gate_op* ops, std::size_t n,
                                        std::uint64_t* values,
                                        unsigned width) {
  for (std::size_t i = 0; i < n; ++i) {
    const sim_gate_op op = ops[i];
    const std::uint64_t ma = -static_cast<std::uint64_t>(op.a & 1u);
    const std::uint64_t mb = -static_cast<std::uint64_t>(op.b & 1u);
    const std::uint64_t* const __restrict va =
        values + static_cast<std::size_t>(op.a >> 1) * width;
    const std::uint64_t* const __restrict vb =
        values + static_cast<std::size_t>(op.b >> 1) * width;
    std::uint64_t* const __restrict out =
        values + static_cast<std::size_t>(op.out) * width;
    for (unsigned w = 0; w < width; ++w) {
      out[w] = (va[w] ^ ma) & (vb[w] ^ mb);
    }
  }
}

struct sweep_totals {
  std::uint64_t evals = 0;
  std::uint64_t skipped = 0;
};

/// Incremental sweep: evaluates only gates whose fanin is dirty and
/// propagates the dirty flags.  One shape for every width (the incremental
/// path is already the cheap one; the per-gate branch dominates it).
XSFQ_SIM_CLONES sweep_totals sweep_incremental(const sim_gate_op* ops,
                                               std::size_t n,
                                               std::uint64_t* values,
                                               std::uint8_t* dirty,
                                               unsigned width) {
  sweep_totals totals;
  for (std::size_t i = 0; i < n; ++i) {
    const sim_gate_op op = ops[i];
    if ((dirty[op.a >> 1] | dirty[op.b >> 1]) == 0) {
      totals.skipped += width;
      continue;
    }
    dirty[op.out] = 1;
    const std::uint64_t ma = -static_cast<std::uint64_t>(op.a & 1u);
    const std::uint64_t mb = -static_cast<std::uint64_t>(op.b & 1u);
    const std::uint64_t* const __restrict va =
        values + static_cast<std::size_t>(op.a >> 1) * width;
    const std::uint64_t* const __restrict vb =
        values + static_cast<std::size_t>(op.b >> 1) * width;
    std::uint64_t* const __restrict out =
        values + static_cast<std::size_t>(op.out) * width;
    for (unsigned w = 0; w < width; ++w) {
      out[w] = (va[w] ^ ma) & (vb[w] ^ mb);
    }
    totals.evals += width;
  }
  return totals;
}

}  // namespace

// ---------------------------------------------------------------------------
// sim_engine
// ---------------------------------------------------------------------------

void sim_engine::set_width(unsigned width) {
  width_ = std::max(1u, width);
  // The plane geometry changed; the engine must be re-attached (never touch
  // the previous network here: recycled thread-local engines may outlive it).
  net_ = nullptr;
  valid_ = false;
}

void sim_engine::attach(const aig& network) {
  net_ = &network;
  values_.resize(network.size() * static_cast<std::size_t>(width_));
  // The constant node's plane is written once here; gates are overwritten by
  // every sweep and CI planes by the caller, so no full clear is needed.
  std::fill_n(values_.begin(), width_, 0u);
  program_.clear();
  program_.reserve(network.num_gates());
  network.foreach_gate([&](aig::node_index n) {
    program_.push_back(
        detail::sim_gate_op{n, network.fanin0(n).raw(),
                            network.fanin1(n).raw()});
  });
  dirty_.assign(network.size(), 0);
  any_dirty_ = false;
  valid_ = false;
}

std::span<std::uint64_t> sim_engine::ci_words(std::size_t i) {
  if (net_ == nullptr) {
    throw std::logic_error("sim_engine: attach before ci_words");
  }
  const aig::node_index n = net_->ci(i).index();
  dirty_[n] = 1;
  any_dirty_ = true;
  return {values_.data() + static_cast<std::size_t>(n) * width_, width_};
}

void sim_engine::randomize_inputs(rng& gen) {
  for (std::size_t i = 0; i < net_->num_cis(); ++i) {
    for (auto& word : ci_words(i)) word = gen();
  }
}

void sim_engine::sweep(bool incremental) {
  if (net_ == nullptr) {
    throw std::logic_error("sim_engine: simulate before attach");
  }
  const sim_gate_op* const ops = program_.data();
  const std::size_t n = program_.size();
  std::uint64_t* const values = values_.data();
  if (incremental) {
    const sweep_totals totals =
        sweep_incremental(ops, n, values, dirty_.data(), width_);
    counters_.node_evals += totals.evals;
    counters_.node_evals_skipped += totals.skipped;
  } else {
    switch (width_) {
      case 1: sweep_full_w1(ops, n, values); break;
      case 4: sweep_full_w4(ops, n, values); break;
      case 8: sweep_full_w8(ops, n, values); break;
      case 16: sweep_full_w16(ops, n, values); break;
      case 32: sweep_full_w32(ops, n, values); break;
      default: sweep_full_generic(ops, n, values, width_); break;
    }
    counters_.node_evals += n * width_;
  }
  ++counters_.traversals;
  counters_.pattern_words += width_;
  std::fill(dirty_.begin(), dirty_.end(), 0);
  any_dirty_ = false;
  valid_ = true;
}

void sim_engine::simulate() { sweep(/*incremental=*/false); }

void sim_engine::resimulate() {
  // Before the first full sweep (or right after attach) there is no valid
  // plane to patch incrementally; fall back to the full sweep.
  if (!valid_) {
    sweep(false);
    return;
  }
  if (!any_dirty_) return;  // nothing changed since the last sweep
  sweep(true);
}

void sim_engine::co_words(std::size_t i, std::span<std::uint64_t> out) const {
  const signal s = net_->co(i);
  const std::uint64_t mask = s.is_complemented() ? ~std::uint64_t{0} : 0;
  const auto plane = node_words(s.index());
  for (unsigned w = 0; w < width_; ++w) out[w] = plane[w] ^ mask;
}

std::uint64_t sim_engine::co_word(std::size_t i, unsigned lane) const {
  const signal s = net_->co(i);
  const std::uint64_t v = node_words(s.index())[lane];
  return s.is_complemented() ? ~v : v;
}

bool sim_engine::co_equal(const sim_engine& other) const {
  if (width_ != other.width_ || net_->num_cos() != other.net_->num_cos()) {
    return false;
  }
  for (std::size_t i = 0; i < net_->num_cos(); ++i) {
    const signal sa = net_->co(i);
    const signal sb = other.net_->co(i);
    const std::uint64_t ma = sa.is_complemented() ? ~std::uint64_t{0} : 0;
    const std::uint64_t mb = sb.is_complemented() ? ~std::uint64_t{0} : 0;
    const auto pa = node_words(sa.index());
    const auto pb = other.node_words(sb.index());
    for (unsigned w = 0; w < width_; ++w) {
      if ((pa[w] ^ ma) != (pb[w] ^ mb)) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// equivalence_checker
// ---------------------------------------------------------------------------

bool equivalence_checker::check(const aig& a, const aig& b, unsigned rounds,
                                std::uint64_t seed) {
  if (a.num_cis() != b.num_cis() || a.num_cos() != b.num_cos()) return false;
  left_.attach(a);
  right_.attach(b);
  const unsigned width = left_.width();
  rng gen(seed);
  unsigned done = 0;
  while (done < rounds) {
    const unsigned chunk = std::min(width, rounds - done);
    for (std::size_t i = 0; i < a.num_cis(); ++i) {
      const auto wa = left_.ci_words(i);
      const auto wb = right_.ci_words(i);
      for (unsigned w = 0; w < chunk; ++w) {
        const std::uint64_t word = gen();
        wa[w] = word;
        wb[w] = word;
      }
      // Unused tail lanes carry identical (zero) patterns on both sides, so
      // the full-plane comparison below stays sound.
      for (unsigned w = chunk; w < width; ++w) {
        wa[w] = 0;
        wb[w] = 0;
      }
    }
    left_.simulate();
    right_.simulate();
    if (!left_.co_equal(right_)) return false;
    done += chunk;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Free functions, all layered over a recycled per-thread engine.
// ---------------------------------------------------------------------------

namespace {

/// Fills the CI planes of `engine` with projection-variable patterns: CI i
/// becomes variable x_i of a truth table over all CIs (the engine width must
/// be the table word count).
void fill_var_patterns(sim_engine& engine, const aig& network) {
  const auto num_vars = static_cast<unsigned>(network.num_cis());
  const unsigned width = engine.width();
  for (std::size_t i = 0; i < network.num_cis(); ++i) {
    const auto words = engine.ci_words(i);
    if (i < truth_table::small_vars) {
      std::uint64_t word = truth_table::var_masks[i];
      if (num_vars < truth_table::small_vars) {
        word &= (std::uint64_t{1} << (std::uint64_t{1} << num_vars)) - 1;
      }
      for (unsigned w = 0; w < width; ++w) words[w] = word;
    } else {
      for (unsigned w = 0; w < width; ++w) {
        words[w] = ((w >> (i - truth_table::small_vars)) & 1u)
                       ? ~std::uint64_t{0}
                       : 0;
      }
    }
  }
}

unsigned table_width(unsigned num_vars) {
  return num_vars <= truth_table::small_vars
             ? 1u
             : 1u << (num_vars - truth_table::small_vars);
}

}  // namespace

std::vector<std::uint64_t> simulate64(
    const aig& network, std::span<const std::uint64_t> ci_patterns) {
  if (ci_patterns.size() != network.num_cis()) {
    throw std::invalid_argument("simulate64: pattern count mismatch");
  }
  thread_local sim_engine engine(1);  // function-local: width never drifts
  engine.attach(network);
  for (std::size_t i = 0; i < network.num_cis(); ++i) {
    engine.ci_words(i)[0] = ci_patterns[i];
  }
  engine.simulate();
  std::vector<std::uint64_t> result(network.num_cos());
  for (std::size_t i = 0; i < network.num_cos(); ++i) {
    result[i] = engine.co_word(i, 0);
  }
  return result;
}

std::vector<truth_table> compute_co_tables(const aig& network) {
  const auto num_vars = static_cast<unsigned>(network.num_cis());
  if (num_vars > truth_table::max_vars) {
    throw std::invalid_argument("compute_co_tables: too many inputs");
  }
  thread_local sim_engine engine(1);
  const unsigned width = table_width(num_vars);
  if (engine.width() != width) engine.set_width(width);
  engine.attach(network);
  fill_var_patterns(engine, network);
  engine.simulate();

  std::vector<truth_table> result;
  result.reserve(network.num_cos());
  for (std::size_t i = 0; i < network.num_cos(); ++i) {
    if (num_vars <= truth_table::small_vars) {
      result.push_back(
          truth_table::from_word(num_vars, engine.co_word(i, 0)));
    } else {
      truth_table t(num_vars);
      engine.co_words(i, t.words());
      result.push_back(std::move(t));
    }
  }
  return result;
}

bool exhaustive_equivalent(const aig& a, const aig& b) {
  if (a.num_cis() != b.num_cis() || a.num_cos() != b.num_cos()) return false;
  const auto num_vars = static_cast<unsigned>(a.num_cis());
  if (num_vars > truth_table::max_vars) {
    throw std::invalid_argument("exhaustive_equivalent: too many inputs");
  }
  thread_local sim_engine left(1);
  thread_local sim_engine right(1);
  const unsigned width = table_width(num_vars);
  if (left.width() != width) left.set_width(width);
  if (right.width() != width) right.set_width(width);
  left.attach(a);
  right.attach(b);
  fill_var_patterns(left, a);
  fill_var_patterns(right, b);
  left.simulate();
  right.simulate();
  // Tail lanes of the <6-variable case evaluate the all-zeros minterm on
  // both sides (masked projection patterns), so plane equality is exact.
  return left.co_equal(right);
}

bool random_equivalent(const aig& a, const aig& b, unsigned rounds,
                       std::uint64_t seed) {
  thread_local equivalence_checker checker;
  return checker.check(a, b, rounds, seed);
}

// ---------------------------------------------------------------------------
// Sequential simulation.
// ---------------------------------------------------------------------------

sequential_simulator::sequential_simulator(const aig& network)
    : network_(network) {
  if (!network.is_well_formed()) {
    throw std::invalid_argument(
        "sequential_simulator: register inputs not all connected");
  }
  reset();
}

void sequential_simulator::reset() {
  state_.resize(network_.num_registers());
  for (std::size_t i = 0; i < state_.size(); ++i) {
    state_[i] = network_.register_at(i).init;
  }
}

std::vector<bool> sequential_simulator::step(const std::vector<bool>& pi_values) {
  if (pi_values.size() != network_.num_pis()) {
    throw std::invalid_argument("sequential_simulator: PI count mismatch");
  }
  std::vector<std::uint64_t> ci(network_.num_cis());
  for (std::size_t i = 0; i < pi_values.size(); ++i) {
    ci[i] = pi_values[i] ? ~std::uint64_t{0} : 0;
  }
  for (std::size_t i = 0; i < state_.size(); ++i) {
    ci[network_.num_pis() + i] = state_[i] ? ~std::uint64_t{0} : 0;
  }
  const auto co = simulate64(network_, ci);
  std::vector<bool> outputs(network_.num_pos());
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    outputs[i] = (co[i] & 1u) != 0;
  }
  for (std::size_t i = 0; i < state_.size(); ++i) {
    state_[i] = (co[network_.num_pos() + i] & 1u) != 0;
  }
  return outputs;
}

bool random_sequential_equivalent(const aig& a, const aig& b,
                                  unsigned num_traces,
                                  unsigned cycles_per_trace,
                                  std::uint64_t seed) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) return false;
  rng gen(seed);
  sequential_simulator sim_a(a);
  sequential_simulator sim_b(b);
  std::vector<bool> pis(a.num_pis());
  for (unsigned t = 0; t < num_traces; ++t) {
    sim_a.reset();
    sim_b.reset();
    for (unsigned c = 0; c < cycles_per_trace; ++c) {
      for (std::size_t i = 0; i < pis.size(); ++i) pis[i] = gen.flip();
      if (sim_a.step(pis) != sim_b.step(pis)) return false;
    }
  }
  return true;
}

}  // namespace xsfq
