#include "opt/aig_structure.hpp"

namespace xsfq {

truth_table aig_structure::evaluate() const {
  std::vector<truth_table> value;
  value.reserve(num_leaves + steps.size());
  for (unsigned v = 0; v < num_leaves; ++v) {
    value.push_back(truth_table::nth_var(num_leaves, v));
  }
  auto resolve = [&](std::uint32_t lit) -> truth_table {
    if (lit == const0_lit) return truth_table::zeros(num_leaves);
    if (lit == const1_lit) return truth_table::ones(num_leaves);
    const truth_table& t = value[lit >> 1];
    return (lit & 1u) ? ~t : t;
  };
  for (const auto& st : steps) {
    value.push_back(resolve(st.lit0) & resolve(st.lit1));
  }
  return resolve(out_lit);
}

}  // namespace xsfq
