#pragma once
/// \file aig_structure.hpp
/// \brief A small standalone AIG fragment used as a resynthesis candidate.
///
/// Cut-based optimization replaces the cone above a cut with a fresh
/// implementation of the cut function.  Candidates are described abstractly
/// as a list of AND steps over the cut leaves so that they can be *probed*
/// against the destination network's structural hash table (counting how many
/// nodes the replacement would really add) before anything is built.  This
/// is the exchange form of a candidate (the rewrite library's output and the
/// `resynthesis_fn` contract); the optimization engine copies the steps into
/// its own flat step pool and probes and builds them there
/// (opt/opt_engine.hpp).

#include <cstdint>
#include <vector>

#include "util/truth_table.hpp"

namespace xsfq {

/// Literal address space of a structure: values 0..num_leaves-1 refer to the
/// cut leaves, num_leaves+i refers to the output of step i.  The LSB of a
/// literal is the complement flag: literal = (ref << 1) | complemented.
struct aig_structure {
  struct step {
    std::uint32_t lit0 = 0;
    std::uint32_t lit1 = 0;
  };

  unsigned num_leaves = 0;
  std::vector<step> steps;
  /// Output literal; may reference a leaf directly (buffer/inverter) or be
  /// one of the constant literals below.
  std::uint32_t out_lit = 0;

  static constexpr std::uint32_t const0_lit = 0xFFFFFFFEu;
  static constexpr std::uint32_t const1_lit = 0xFFFFFFFFu;

  [[nodiscard]] unsigned num_steps() const {
    return static_cast<unsigned>(steps.size());
  }

  /// Evaluates the structure as a truth table over `num_leaves` variables
  /// (used by tests and by the library builder for self-checks).
  [[nodiscard]] truth_table evaluate() const;
};

}  // namespace xsfq
