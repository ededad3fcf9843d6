#pragma once
/// \file flow.hpp
/// \brief The paper's synthesis flow as one straight-line function.
///
/// `run_flow` runs the fixed sequence generate -> [optimize] -> map ->
/// [baseline] -> [emit] and times every stage.  It returns a `flow_result`
/// carrying the optimized network, mapping and baseline stats, and the
/// per-stage wall-clock breakdown.  The table/figure binaries, the examples,
/// the batch_runner and the daemon all run this one function; the
/// batch_runner's cached optimize tier is its only hook (`optimize_fn`).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "baseline/rsfq.hpp"
#include "core/mapper.hpp"
#include "opt/script.hpp"

namespace xsfq::flow {

/// Work counters of one executed stage.  `nodes` is filled for every stage
/// (AIG gates after the stage ran); the cut/rewrite counters are filled by
/// the optimize stage.
struct stage_counters {
  std::uint64_t nodes = 0;         ///< AIG gates after the stage
  std::uint64_t cuts = 0;          ///< cuts enumerated during the stage
  std::uint64_t replacements = 0;  ///< accepted resynthesis rewrites
  std::uint64_t arena_bytes = 0;   ///< peak cut-arena footprint
  std::uint64_t sim_words = 0;       ///< 64-pattern sim words swept
  std::uint64_t sim_node_evals = 0;  ///< gate x word sim evaluations
  std::uint64_t arena_peak_bytes = 0;  ///< peak network-arena footprint
  std::uint64_t rebuilds_avoided = 0;  ///< pass outputs taken without rebuild
};

/// Wall-clock and work cost of one executed stage.
struct stage_timing {
  std::string stage;
  double ms = 0.0;
  stage_counters counters;
};

/// One per-stage progress notification, emitted as soon as the stage
/// finishes; the serving front end (src/serve) streams it to clients as is.
/// `from_cache` marks events replayed from a cached flow_result's timings
/// instead of a live stage execution.
struct stage_event {
  std::string stage;
  std::uint32_t index = 0;  ///< 0-based position within the flow
  std::uint32_t total = 0;  ///< stages the flow will run in total
  double ms = 0.0;
  stage_counters counters;
  bool from_cache = false;
};

/// Called after every completed stage; empty observers are skipped.  The
/// observer runs on whichever thread executes the flow (a batch_runner
/// worker inside a batch), so it must be safe to call off the submitting
/// thread.  Observer exceptions propagate and fail the flow.
using stage_observer = std::function<void(const stage_event&)>;

/// Everything one flow run produced.  Table binaries read it directly:
/// `r.mapped.stats.jj`, `r.baseline.jj_without_clock`, ...
struct flow_result {
  std::string name;
  aig optimized;  ///< network after the optimize stage (the input without)
  optimize_stats opt_stats;
  mapping_result mapped;
  rsfq_stats baseline;
  std::string verilog;
  std::vector<stage_timing> timings;
  double total_ms = 0.0;
};

/// Knobs for the paper flow.
struct flow_options {
  optimize_params opt;
  mapping_params map;
  rsfq_params baseline;
  bool run_optimize = true;   ///< skip to map the raw network
  bool run_baseline = true;   ///< skip the clocked-RSFQ comparison
  bool emit_verilog = false;  ///< fill flow_result::verilog
};

/// Version of what the flow computes, mixed into fingerprint(flow_options).
/// Bump it in the change that makes some stage produce a different result
/// for the same circuit and options (a fixed rewrite gain rule, a new
/// mapper cost): result-cache keys then change, so the disk tier's entries
/// of the old algorithm read as plain misses and age out, instead of being
/// served.  A change to the serialized layout bumps
/// disk_result_cache::format_version instead.
inline constexpr std::uint64_t result_version = 1;

/// 64-bit digest covering every knob in `options` (fields are mixed in a
/// fixed order, so the digest itself is order-sensitive) and
/// result_version.  Two option sets with equal fingerprints produce
/// identical flow results on the same circuit; used as the options half of
/// the batch_runner result-cache key.
std::uint64_t fingerprint(const flow_options& options);
/// Same digest restricted to the optimize stage's knobs (the optimized-
/// network cache tier is shared across differing map/baseline options).
std::uint64_t fingerprint(const optimize_params& params);

/// Stands in for the optimize stage: replaces `network` with its optimized
/// form and returns the stats.  It must compute what xsfq::optimize under
/// the flow's options.opt computes (the batch_runner's shared-future
/// optimize tier serves it from cache).
using optimize_fn = std::function<optimize_stats(aig& network)>;

/// The paper flow on an existing network: generate (handing `network` to
/// the flow) -> [optimize] -> map -> [baseline] -> [emit], each stage timed
/// and reported to `observer`.  Stage exceptions propagate.
flow_result run_flow(aig network, std::string name,
                     const flow_options& options,
                     const stage_observer& observer = {},
                     const optimize_fn& optimize = {});

/// The same flow on a registry benchmark; its generate stage builds it.
flow_result run_flow(const std::string& benchmark_name,
                     const flow_options& options = {});

}  // namespace xsfq::flow
