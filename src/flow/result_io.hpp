#pragma once
/// \file result_io.hpp
/// \brief Binary (de)serialization of flow results and their constituents.
///
/// The value side of the disk-persistent result cache and of the serve wire
/// protocol: an entire `flow_result` — optimized AIG, mapped xSFQ netlist,
/// optimize/baseline stats, per-stage timings — round-trips through the
/// field walker in util/serialize.hpp.  Each struct's layout is the one
/// `fields` list below; the serve protocol reuses the lists for
/// `mapping_params`, `stage_counters`, `stage_timing` and `stage_event`
/// (its progress frame).
///
/// Two members are codecs rather than layouts.  The AIG is stored as its
/// construction replay: CIs and gates in node-array order (the array is
/// topologically sorted by construction), then COs and register wiring.
/// Replaying `create_and` on a strashed network recreates every node at its
/// original index — the strash table and the trivial-case simplifier see
/// exactly the prefix they saw during the original construction — and
/// `read_field` verifies that invariant node by node, plus the full
/// `content_hash` at the end, so a corrupted or stale entry decodes into
/// `serialize_error`, never into a silently different network.  The mapped
/// netlist is a counted element sequence whose decoder also checks every
/// fanin reference, because the pulse simulator and the Verilog/DOT writers
/// index by them unchecked.

#include "aig/aig.hpp"
#include "flow/flow.hpp"
#include "util/serialize.hpp"

namespace xsfq {

// Integer members go on the wire at their width: 8 bytes for the size_t and
// long stats, 4 for the unsigned depths, on every supported platform.
static_assert(sizeof(std::size_t) == 8 && sizeof(long) == 8 &&
              sizeof(unsigned) == 4);

auto fields(of<opt_counters> auto& c, auto&& f) {
  return f(c.passes, c.cuts_enumerated, c.cut_candidates, c.mffc_queries,
           c.replacements, c.resynth_cache_hits, c.cut_arena_bytes,
           c.equiv_checks, c.sim_words, c.sim_node_evals, c.net_arena_bytes,
           c.rebuilds_avoided);
}

auto fields(of<optimize_stats> auto& s, auto&& f) {
  return f(s.initial_gates, s.final_gates, s.initial_depth, s.final_depth,
           s.rounds, s.work);
}

auto fields(of<rsfq_stats> auto& s, auto&& f) {
  return f(s.logic_cells, s.not_cells, s.balancing_dros, s.dffs,
           s.data_splitters, s.clocked_cells, s.depth, s.jj_without_clock,
           s.jj_with_clock);
}

auto fields(of<port_ref> auto& p, auto&& f) { return f(p.element, p.port); }

auto fields(of<xsfq_element> auto& e, auto&& f) {
  return f(bounded{e.kind, element_kind::input_rail, element_kind::output_port,
                   "netlist element kind"},
           e.fanin0, e.fanin1, e.aig_node, e.rail, e.pipeline_rank,
           e.feedback_input, e.name);
}

auto fields(of<mapping_stats> auto& s, auto&& f) {
  return f(s.la_cells, s.fa_cells, s.splitters, s.drocs_plain,
           s.drocs_preload, s.nodes_used, s.duplication, s.jj, s.jj_ptl,
           s.eq1_splitters, s.depth, s.depth_with_splitters, s.circuit_ghz,
           s.architectural_ghz);
}

auto fields(of<mapping_result> auto& m, auto&& f) {
  return f(m.netlist, m.stats, m.co_negated, m.register_feedback);
}

/// The pipeline cap is the one the CLIs enforce: a long-lived daemon must
/// not run the mapper with an absurd rank count from one hand-crafted frame.
auto fields(of<mapping_params> auto& p, auto&& f) {
  return f(bounded{p.polarity, polarity_mode::direct_dual_rail,
                   polarity_mode::optimized, "polarity mode"},
           bounded{p.pipeline_stages, 0u, 64u, "pipeline stage count"},
           bounded{p.reg_style, register_style::pair_boundary,
                   register_style::pair_retimed, "register style"},
           p.forced_polarities);
}

/// The AIG's construction replay (see the file comment): read_field
/// replaces `network`, and throws serialize_error unless every node and the
/// content hash reproduce.
void write_field(byte_writer& w, const aig& network);
void read_field(byte_reader& r, aig& network);
/// The element sequence; read_field also checks every fanin reference.
void write_field(byte_writer& w, const xsfq_netlist& netlist);
void read_field(byte_reader& r, xsfq_netlist& netlist);

}  // namespace xsfq

namespace xsfq::flow {

auto fields(of<stage_counters> auto& c, auto&& f) {
  return f(c.nodes, c.cuts, c.replacements, c.arena_bytes, c.sim_words,
           c.sim_node_evals, c.arena_peak_bytes, c.rebuilds_avoided);
}

auto fields(of<stage_timing> auto& t, auto&& f) {
  return f(t.stage, t.ms, t.counters);
}

auto fields(of<stage_event> auto& e, auto&& f) {
  return f(e.stage, e.index, e.total, e.ms, e.counters, e.from_cache);
}

auto fields(of<flow_result> auto& r, auto&& f) {
  return f(r.name, r.optimized, r.opt_stats, r.mapped, r.baseline, r.verilog,
           r.timings, r.total_ms);
}

void write_flow_result(byte_writer& w, const flow_result& result);
[[nodiscard]] flow_result read_flow_result(byte_reader& r);

}  // namespace xsfq::flow
