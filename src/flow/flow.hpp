#pragma once
/// \file flow.hpp
/// \brief Composable synthesis-flow pass manager.
///
/// One `flow` is an ordered list of named stages (generate/parse ->
/// optimize -> map -> baseline -> emit) operating on a shared
/// `flow_context`.  Running a flow times every stage and returns a
/// `flow_result` carrying the optimized network, mapping and baseline
/// stats, and the per-stage wall-clock breakdown.  The table/figure
/// binaries, the examples, and the batch_runner all compose their flows
/// from the stage factories below instead of hand-rolling the
/// optimize/map/baseline sequence.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "baseline/rsfq.hpp"
#include "benchgen/registry.hpp"
#include "core/mapper.hpp"
#include "opt/script.hpp"

namespace xsfq::flow {

/// Work counters of one executed stage.  `nodes` is filled by the runner for
/// every stage (AIG gates after the stage ran); the cut/rewrite counters are
/// filled by the stages that do cut-based work (optimize, pass).
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

/// Mutable state threaded through the stages of one flow run.  Stages fill
/// in the optional fields they are responsible for; later stages may read
/// anything earlier stages produced.
struct flow_context {
  std::string name;  ///< circuit name (set by the generate/parse stage)
  aig network;       ///< current network; transform stages replace it
  std::optional<optimize_stats> opt;
  std::optional<mapping_result> mapped;
  std::optional<rsfq_stats> baseline;
  std::string verilog;  ///< structural Verilog, if an emit stage ran
  /// Scratch slot for the currently running stage's counters; reset by the
  /// runner before each stage and harvested into its stage_timing after.
  stage_counters counters;
};

/// Copies an opt_counters work record into a stage's counter slot (the one
/// mapping shared by stages::optimize, stages::pass, and the batch_runner's
/// cached optimize stage — add new counters here, not at the call sites).
void apply_opt_counters(stage_counters& counters, const opt_counters& work);

/// Wall-clock and work cost of one executed stage.
struct stage_timing {
  std::string stage;
  double ms = 0.0;
  stage_counters counters;
};

/// One per-stage progress notification, emitted as soon as the stage
/// finishes.  The serving front end (src/serve) streams these to clients;
/// `from_cache` marks events replayed from a cached flow_result's timings
/// instead of a live stage execution.
struct stage_event {
  std::string stage;
  std::size_t index = 0;  ///< 0-based position within the flow
  std::size_t total = 0;  ///< stages the flow will run in total
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
  aig optimized;  ///< network after the last transform stage
  optimize_stats opt_stats;
  mapping_result mapped;
  rsfq_stats baseline;
  std::string verilog;
  std::vector<stage_timing> timings;
  double total_ms = 0.0;

  /// Wall-clock of a named stage, or 0 if it did not run.
  double stage_ms(const std::string& stage) const;
};

/// A named unit of work inside a flow.
struct stage {
  std::string name;
  std::function<void(flow_context&)> run;
};

/// Ordered stage list with timed execution.
class flow {
 public:
  flow() = default;
  explicit flow(std::string flow_name) : name_(std::move(flow_name)) {}

  /// Appends a stage; returns *this for chaining.
  flow& add_stage(std::string stage_name, std::function<void(flow_context&)> fn);
  flow& add_stage(stage s);

  /// Appends every stage of another flow (front-end + canned-flow
  /// composition).
  flow& add_stages(const flow& other);

  const std::string& name() const { return name_; }
  std::size_t num_stages() const { return stages_.size(); }
  const std::vector<stage>& stages() const { return stages_; }

  /// Runs every stage in order over a fresh context and reports the result.
  /// Stage exceptions propagate to the caller.  The observer, when given,
  /// receives one stage_event per completed stage.
  flow_result run(const stage_observer& observer = {}) const;

  /// Same, but seeds the context with an existing network (for flows whose
  /// first stage is not a generate/parse stage).
  flow_result run_on(const aig& network, std::string circuit_name,
                     const stage_observer& observer = {}) const;

 private:
  flow_result run_context(flow_context ctx,
                          const stage_observer& observer) const;

  std::string name_;
  std::vector<stage> stages_;
};

// ---------------------------------------------------------------------------
// Stage factories: the vocabulary every flow is built from.
// ---------------------------------------------------------------------------
namespace stages {

/// Generate a named benchmark from the registry (the "parse" front end).
stage benchmark(std::string benchmark_name);

/// Provide an already-built network.
stage preset(aig network, std::string circuit_name);

/// resyn-style optimization (src/opt); records optimize_stats.
stage optimize(optimize_params params = {});

/// A single named pass ("b", "rw", "rwz", "rf", "rfz", "clean").
stage pass(std::string pass_name);

/// AIG -> xSFQ mapping; records the mapping_result.
stage map(mapping_params params = {});

/// Clocked-RSFQ baseline on the current network; records rsfq_stats.
stage baseline(rsfq_params params = {});

/// Structural-Verilog emission of the mapped netlist (requires map()).
stage emit_verilog(std::string module_name = "");

}  // namespace stages

// ---------------------------------------------------------------------------
// Canned flows.
// ---------------------------------------------------------------------------

/// Knobs for the standard paper flow.
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

/// optimize -> map [-> baseline] [-> emit]; prepend your own front end.
flow make_synthesis_flow(const flow_options& options = {});

/// The paper flow on a named benchmark: generate -> optimize -> map ->
/// baseline.  This is the one-call replacement for the old
/// bench_common::run_flow.
flow_result run_flow(const std::string& benchmark_name,
                     const flow_options& options = {});

/// The paper flow on an existing network.
flow_result run_flow(const aig& network, std::string circuit_name,
                     const flow_options& options = {});

}  // namespace xsfq::flow
