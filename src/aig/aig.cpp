#include "aig/aig.hpp"

#include <algorithm>

#include "util/hash.hpp"

namespace xsfq {
namespace {
std::string default_name(const char* prefix, std::size_t index) {
  std::string s(prefix);
  s += std::to_string(index);
  return s;
}

std::uint64_t mix_strash_hash(std::uint64_t key) {
  // splitmix64 finalizer: cheap and well distributed for packed fanin pairs.
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ull;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBull;
  key ^= key >> 31;
  return key;
}
}  // namespace

aig::aig() {
  // Node 0 is the constant-0 node.
  nodes_.push_back(node{});
}

void aig::reset() {
  nodes_.clear();
  nodes_.push_back(node{});
  pis_.clear();
  pos_.clear();
  registers_.clear();
  pi_names_.clear();
  po_names_.clear();
  register_names_.clear();
  std::fill(strash_keys_.begin(), strash_keys_.end(), 0);
  strash_used_ = 0;
  num_gates_ = 0;
}

// ----- structural hash -------------------------------------------------------

std::size_t aig::strash_slot(std::uint64_t key) const {
  return mix_strash_hash(key) & (strash_keys_.size() - 1);
}

std::optional<aig::node_index> aig::strash_find(std::uint64_t key) const {
  if (strash_keys_.empty()) return std::nullopt;
  std::size_t slot = strash_slot(key);
  while (strash_keys_[slot] != 0) {
    if (strash_keys_[slot] == key) return strash_values_[slot];
    slot = (slot + 1) & (strash_keys_.size() - 1);
  }
  return std::nullopt;
}

void aig::strash_grow(std::size_t new_capacity) {
  std::vector<std::uint64_t> old_keys = std::move(strash_keys_);
  std::vector<node_index> old_values = std::move(strash_values_);
  strash_keys_.assign(new_capacity, 0);
  strash_values_.assign(new_capacity, 0);
  for (std::size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] == 0) continue;
    std::size_t slot = strash_slot(old_keys[i]);
    while (strash_keys_[slot] != 0) {
      slot = (slot + 1) & (new_capacity - 1);
    }
    strash_keys_[slot] = old_keys[i];
    strash_values_[slot] = old_values[i];
  }
}

void aig::strash_insert(std::uint64_t key, node_index value) {
  // Grow at 70% load; capacity is always a power of two.
  if (strash_keys_.empty() ||
      (strash_used_ + 1) * 10 > strash_keys_.size() * 7) {
    strash_grow(strash_keys_.empty() ? 64 : strash_keys_.size() * 2);
  }
  std::size_t slot = strash_slot(key);
  while (strash_keys_[slot] != 0) {
    slot = (slot + 1) & (strash_keys_.size() - 1);
  }
  strash_keys_[slot] = key;
  strash_values_[slot] = value;
  ++strash_used_;
}

void aig::reserve(std::size_t expected_nodes) {
  nodes_.reserve(expected_nodes + 1);
  std::size_t capacity = 64;
  while (expected_nodes * 10 > capacity * 7) capacity <<= 1;
  if (capacity > strash_keys_.size()) strash_grow(capacity);
}

// ----- construction ----------------------------------------------------------

signal aig::create_pi(std::string name) {
  node n;
  n.type = node_type::pi;
  n.ci_ordinal = static_cast<std::uint32_t>(pis_.size());
  const auto index = static_cast<node_index>(nodes_.size());
  nodes_.push_back(n);
  pis_.emplace_back(index, false);
  if (name.empty()) name = default_name("pi", pis_.size() - 1);
  pi_names_.push_back(std::move(name));
  return pis_.back();
}

std::size_t aig::create_po(signal f, std::string name) {
  if (f.index() >= nodes_.size()) {
    throw std::invalid_argument("aig::create_po: dangling signal");
  }
  pos_.push_back(f);
  if (name.empty()) name = default_name("po", pos_.size() - 1);
  po_names_.push_back(std::move(name));
  return pos_.size() - 1;
}

signal aig::create_register_output(bool init, std::string name) {
  node n;
  n.type = node_type::register_output;
  n.ci_ordinal = static_cast<std::uint32_t>(registers_.size());
  const auto index = static_cast<node_index>(nodes_.size());
  nodes_.push_back(n);
  register_info reg;
  reg.output_node = index;
  reg.init = init;
  registers_.push_back(reg);
  if (name.empty()) name = default_name("r", registers_.size() - 1);
  register_names_.push_back(std::move(name));
  return signal(index, false);
}

void aig::set_register_input(std::size_t reg, signal f) {
  if (f.index() >= nodes_.size()) {
    throw std::invalid_argument("aig::set_register_input: dangling signal");
  }
  registers_.at(reg).input = f;
  registers_.at(reg).input_set = true;
}

signal aig::create_and(signal a, signal b) {
  if (a.index() >= nodes_.size() || b.index() >= nodes_.size()) {
    throw std::invalid_argument("aig::create_and: dangling fanin");
  }
  // Trivial cases.
  if (a == b) return a;
  if (a == !b) return get_constant(false);
  if (a == get_constant(false) || b == get_constant(false)) {
    return get_constant(false);
  }
  if (a == get_constant(true)) return b;
  if (b == get_constant(true)) return a;
  // Canonical fanin order for hashing.
  if (b.raw() < a.raw()) std::swap(a, b);

  const std::uint64_t key = strash_key(a, b);
  if (const auto hit = strash_find(key)) {
    return signal(*hit, false);
  }
  node n;
  n.type = node_type::gate;
  n.fanin0 = a;
  n.fanin1 = b;
  const auto index = static_cast<node_index>(nodes_.size());
  nodes_.push_back(n);
  strash_insert(key, index);
  ++num_gates_;
  return signal(index, false);
}

signal aig::append_gate_raw(signal a, signal b) {
  if (a.index() >= nodes_.size() || b.index() >= nodes_.size()) {
    throw std::invalid_argument("aig::append_gate_raw: dangling fanin");
  }
  if (a.index() == b.index() || a.index() == 0 || b.index() == 0) {
    throw std::invalid_argument("aig::append_gate_raw: degenerate fanin pair");
  }
  if (b.raw() < a.raw()) std::swap(a, b);
  node n;
  n.type = node_type::gate;
  n.fanin0 = a;
  n.fanin1 = b;
  const auto index = static_cast<node_index>(nodes_.size());
  nodes_.push_back(n);
  ++num_gates_;
  return signal(index, false);
}

void aig::set_gate_fanins(node_index n, signal a, signal b) {
  if (n >= nodes_.size() || !is_gate(n)) {
    throw std::invalid_argument("aig::set_gate_fanins: not a gate");
  }
  if (a.index() >= n || b.index() >= n) {
    throw std::invalid_argument("aig::set_gate_fanins: fanin not earlier");
  }
  if (a.index() == b.index() || a.index() == 0 || b.index() == 0) {
    throw std::invalid_argument("aig::set_gate_fanins: degenerate fanin pair");
  }
  if (b.raw() < a.raw()) std::swap(a, b);
  nodes_[n].fanin0 = a;
  nodes_[n].fanin1 = b;
}

void aig::rebuild_strash() {
  std::fill(strash_keys_.begin(), strash_keys_.end(), 0);
  strash_used_ = 0;
  for (node_index n = 0; n < nodes_.size(); ++n) {
    if (!is_gate(n)) continue;
    const std::uint64_t key = strash_key(nodes_[n].fanin0, nodes_[n].fanin1);
    if (!strash_find(key)) strash_insert(key, n);
  }
}

std::optional<signal> aig::find_and(signal a, signal b) const {
  // Mirror create_and's trivial cases so probing matches construction.
  if (a == b) return a;
  if (a == !b) return get_constant(false);
  if (a == get_constant(false) || b == get_constant(false)) {
    return get_constant(false);
  }
  if (a == get_constant(true)) return b;
  if (b == get_constant(true)) return a;
  if (b.raw() < a.raw()) std::swap(a, b);
  if (const auto hit = strash_find(strash_key(a, b))) {
    return signal(*hit, false);
  }
  return std::nullopt;
}

signal aig::create_xor(signal a, signal b) {
  // a ^ b = !(!(a & !b) & !(!a & b))
  return !create_and(!create_and(a, !b), !create_and(!a, b));
}

signal aig::create_mux(signal sel, signal then_f, signal else_f) {
  return !create_and(!create_and(sel, then_f), !create_and(!sel, else_f));
}

signal aig::create_maj(signal a, signal b, signal c) {
  return !create_and(!create_and(a, b),
                     !create_and(c, !create_and(!a, !b)));
}

namespace {
template <typename Combine>
signal reduce_balanced(std::span<const signal> fs, signal empty_value,
                       Combine&& combine) {
  if (fs.empty()) return empty_value;
  if (fs.size() == 1) return fs[0];
  if (fs.size() == 2) return combine(fs[0], fs[1]);  // no layer to allocate
  std::vector<signal> layer(fs.begin(), fs.end());
  while (layer.size() > 1) {
    std::vector<signal> next;
    next.reserve((layer.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(combine(layer[i], layer[i + 1]));
    }
    if (layer.size() % 2) next.push_back(layer.back());
    layer = std::move(next);
  }
  return layer.front();
}
}  // namespace

signal aig::create_and_n(std::span<const signal> fs) {
  return reduce_balanced(fs, get_constant(true),
                         [this](signal a, signal b) { return create_and(a, b); });
}

signal aig::create_or_n(std::span<const signal> fs) {
  return reduce_balanced(fs, get_constant(false),
                         [this](signal a, signal b) { return create_or(a, b); });
}

signal aig::create_xor_n(std::span<const signal> fs) {
  return reduce_balanced(fs, get_constant(false),
                         [this](signal a, signal b) { return create_xor(a, b); });
}

void aig::compute_levels_into(std::vector<std::uint32_t>& levels) const {
  levels.assign(nodes_.size(), 0);
  for (node_index n = 0; n < nodes_.size(); ++n) {
    if (is_gate(n)) {
      levels[n] = 1 + std::max(levels[nodes_[n].fanin0.index()],
                               levels[nodes_[n].fanin1.index()]);
    }
  }
}

std::vector<std::uint32_t> aig::compute_levels() const {
  std::vector<std::uint32_t> level;
  compute_levels_into(level);
  return level;
}

std::uint32_t aig::depth() const {
  const auto level = compute_levels();
  std::uint32_t d = 0;
  for (std::size_t i = 0; i < num_cos(); ++i) {
    d = std::max(d, level[co(i).index()]);
  }
  return d;
}

void aig::compute_fanout_counts_into(
    std::vector<std::uint32_t>& fanout) const {
  fanout.assign(nodes_.size(), 0);
  for (node_index n = 0; n < nodes_.size(); ++n) {
    if (is_gate(n)) {
      ++fanout[nodes_[n].fanin0.index()];
      ++fanout[nodes_[n].fanin1.index()];
    }
  }
  for (std::size_t i = 0; i < num_cos(); ++i) ++fanout[co(i).index()];
}

std::vector<std::uint32_t> aig::compute_fanout_counts() const {
  std::vector<std::uint32_t> fanout;
  compute_fanout_counts_into(fanout);
  return fanout;
}

std::size_t aig::mark_reachable(compaction_scratch& scratch) const {
  scratch.reachable.assign(nodes_.size(), 0);
  scratch.stack.clear();
  for (std::size_t i = 0; i < num_cos(); ++i) {
    scratch.stack.push_back(co(i).index());
  }
  std::size_t reachable_gates = 0;
  while (!scratch.stack.empty()) {
    const node_index n = scratch.stack.back();
    scratch.stack.pop_back();
    if (scratch.reachable[n]) continue;
    scratch.reachable[n] = 1;
    if (is_gate(n)) {
      ++reachable_gates;
      scratch.stack.push_back(nodes_[n].fanin0.index());
      scratch.stack.push_back(nodes_[n].fanin1.index());
    } else if (is_register_output(n)) {
      const auto& reg = registers_[nodes_[n].ci_ordinal];
      if (reg.input_set) scratch.stack.push_back(reg.input.index());
    }
  }
  return num_gates_ - reachable_gates;
}

void aig::compact_into(aig& result, compaction_scratch& scratch) const {
  result.reset();
  result.reserve(nodes_.size());
  scratch.map.assign(nodes_.size(), result.get_constant(false));

  // All PIs are kept (interface must not change); registers are kept too so
  // that register ordinals remain stable for sequential flows.
  for (std::size_t i = 0; i < pis_.size(); ++i) {
    scratch.map[pis_[i].index()] = result.create_pi(pi_names_[i]);
  }
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    scratch.map[registers_[i].output_node] =
        result.create_register_output(registers_[i].init, register_names_[i]);
  }
  for (node_index n = 0; n < nodes_.size(); ++n) {
    if (!is_gate(n) || !scratch.reachable[n]) continue;
    const signal a = scratch.map[nodes_[n].fanin0.index()] ^
                     nodes_[n].fanin0.is_complemented();
    const signal b = scratch.map[nodes_[n].fanin1.index()] ^
                     nodes_[n].fanin1.is_complemented();
    scratch.map[n] = result.create_and(a, b);
  }
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    result.create_po(scratch.map[pos_[i].index()] ^ pos_[i].is_complemented(),
                     po_names_[i]);
  }
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    if (registers_[i].input_set) {
      result.set_register_input(
          i, scratch.map[registers_[i].input.index()] ^
                 registers_[i].input.is_complemented());
    }
  }
}

aig aig::cleanup() const {
  aig result;
  compaction_scratch scratch;
  mark_reachable(scratch);
  compact_into(result, scratch);
  return result;
}

bool aig::is_well_formed() const {
  return std::all_of(registers_.begin(), registers_.end(),
                     [](const register_info& r) { return r.input_set; });
}

std::size_t aig::memory_bytes() const {
  std::size_t bytes = nodes_.capacity() * sizeof(node);
  bytes += pis_.capacity() * sizeof(signal);
  bytes += pos_.capacity() * sizeof(signal);
  bytes += registers_.capacity() * sizeof(register_info);
  bytes += (pi_names_.capacity() + po_names_.capacity() +
            register_names_.capacity()) *
           sizeof(std::string);
  bytes += strash_keys_.capacity() * sizeof(std::uint64_t);
  bytes += strash_values_.capacity() * sizeof(node_index);
  return bytes;
}

std::uint64_t aig::content_hash() const {
  std::uint64_t h = 0x5851F42D4C957F2Dull;
  h = hash_mix(h, nodes_.size());
  h = hash_mix(h, num_pis());
  h = hash_mix(h, num_pos());
  h = hash_mix(h, num_registers());
  for (const node& n : nodes_) {
    h = hash_mix(h, (std::uint64_t{n.fanin0.raw()} << 32) | n.fanin1.raw());
    h = hash_mix(h, (std::uint64_t{static_cast<std::uint8_t>(n.type)} << 32) |
                        n.ci_ordinal);
  }
  for (const signal s : pos_) h = hash_mix(h, s.raw());
  for (const register_info& r : registers_) {
    h = hash_mix(h, (std::uint64_t{r.output_node} << 32) | r.input.raw());
    h = hash_mix(h, (std::uint64_t{r.init} << 1) | std::uint64_t{r.input_set});
  }
  for (const auto& name : pi_names_) h = hash_mix_str(h, name);
  for (const auto& name : po_names_) h = hash_mix_str(h, name);
  for (const auto& name : register_names_) h = hash_mix_str(h, name);
  return h;
}

}  // namespace xsfq
