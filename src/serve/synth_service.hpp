#pragma once
/// \file synth_service.hpp
/// \brief The one synthesis-request driver behind xsfq_synth, the daemon,
/// and xsfq_client.
///
/// Both front ends reduce a command line to a `synth_request`, and both
/// render the outcome from a `synth_response` — the daemon executes this
/// driver server-side, the CLI executes it in-process — so a served run and
/// a local run of the same circuit+options produce byte-identical
/// deterministic output (everything except the wall-clock timing lines) by
/// construction rather than by parallel maintenance of two printers.
///
/// Submits run on the calling thread through batch_runner::run_request,
/// which is safe from any number of concurrent callers and applies the
/// request memo and every result-cache tier (memory, in-flight optimize
/// dedup, disk); the runner's pool only serves a partitioned optimize's
/// subtasks.

#include <string>
#include <string_view>

#include "flow/batch_runner.hpp"
#include "serve/protocol.hpp"

namespace xsfq::serve {

/// Builds a request from a CLI circuit spec: a registry benchmark name, or
/// a .bench/.blif path whose content is inlined into the request (so the
/// same request works locally and across the socket).  Throws
/// std::invalid_argument when a file cannot be read.
synth_request make_request_for_spec(const std::string& spec);

/// Materializes the request's circuit (registry lookup or netlist parse).
/// Throws on unknown benchmarks or parse errors.
aig load_request_circuit(const synth_request& req);

/// The request's synthesis knobs as flow options — the one translation,
/// shared by the submit path, the delta path, its cache supersession
/// (drop_entry must key exactly what run_cached stored) and xsfq_synth's
/// corpus entries.
flow::flow_options options_for(const synth_request& req);

/// Runs one request on the calling thread with all cache tiers applied and
/// renders the full response, including the deterministic report text and
/// any requested Verilog/DOT payloads.  A repeat of a request the runner
/// served from a result tier is answered from its request memo without
/// loading the circuit; the circuit load is a `serve.load` span, a memo hit
/// a `cache.request_hit` span.  `progress` (optional) receives one event per
/// stage, on the calling thread.  Never throws for request-level failures:
/// they come back as ok=false.
synth_response run_synth(const synth_request& req, flow::batch_runner& runner,
                         const std::function<void(const progress_event&)>&
                             progress = {});

/// How a delta request located its base network — the server's eco_*
/// counters distinguish the fast path (retained) from the rebuild.
struct eco_outcome {
  bool base_retained = false;  ///< served from the runner's retained tier
  bool base_rebuilt = false;   ///< re-materialized from the request's circuit
};

/// Runs one v4 incremental-resynthesis request: locates the base network
/// (retained tier, else rebuilt from req.base and verified against
/// base_content_hash), replays the edit script, and synthesizes the edited
/// circuit through the identical flow a plain submit would run — so the
/// response is byte-identical to submitting the edited circuit from scratch,
/// only faster (region/result caches skip everything the edit left alone).
/// On success the base circuit's cache entries are dropped when
/// `supersede_base` asks for it.  Throws service_error{unknown_base} when
/// the base cannot be reconstructed and service_error{bad_edit} on a
/// malformed or illegal edit script (the server maps both onto typed error
/// frames); other request-level failures come back as ok=false.
synth_response run_synth_delta(const synth_delta_request& req,
                               flow::batch_runner& runner,
                               const std::function<void(const progress_event&)>&
                                   progress = {},
                               eco_outcome* outcome = nullptr);

/// The non-deterministic stage-timing footer ("timing:   ... (total X ms)").
/// A result served from a cache tier carries the timings of the run that
/// computed it; `cached` marks the line "(cached)", as --progress marks its
/// replayed stages.
std::string format_timing_line(const std::vector<flow::stage_timing>& timings,
                               double total_ms, bool cached = false);

/// Per-stage counter CSV (xsfq_synth --timing).
std::string format_timing_csv(const std::vector<flow::stage_timing>& timings);

// ---------------------------------------------------------------------------
// Shared CLI vocabulary.  xsfq_synth and xsfq_client both parse the same
// synthesis options and render the same response through these helpers, so
// their byte-identity contract cannot drift: a new option or a changed
// default lands in both binaries or in neither.
// ---------------------------------------------------------------------------

/// Synthesis options common to both front ends (each binary parses its own
/// transport/mode flags — --socket, --corpus, --cache-dir, ... — itself).
struct synth_cli_options {
  mapping_params map;
  std::string verilog_path;
  std::string dot_path;
  std::string liberty_path;
  bool validate = false;
  bool timing_csv = false;   ///< --timing
  bool no_timing = false;    ///< --no-timing
  bool progress = false;     ///< --progress (stderr)
  unsigned flow_jobs = 1;    ///< --flow-jobs=N (intra-flow parallelism)
  /// --partition-grain=N (fixed-grain region partitioning; 0 = legacy
  /// monolithic optimize).  The knob interactive ECO sessions set so edits
  /// resynthesize in region-cache time.
  unsigned partition_grain = 0;
};

enum class cli_parse {
  consumed,          ///< the argument was a shared synthesis option
  not_synth_option,  ///< not ours; the caller handles it
  invalid,           ///< recognized but malformed; `error` explains
};

cli_parse parse_synth_option(const std::string& arg, synth_cli_options& cli,
                             std::string& error);

/// "--key=value" extraction; empty when `arg` is not that key.  The one
/// helper behind every front end's flag parsing.
std::string cli_value(const std::string& arg, const std::string& key);

/// Copies the shared options into a request (map/validate/want_* fields).
void apply_cli_options(const synth_cli_options& cli, synth_request& req);

/// One streamed progress event, printed to stderr (stdout stays diffable).
void print_progress_event(const progress_event& ev);

/// Prints the response exactly as both front ends must (report, timing
/// footer and CSV per the flags, validation verdict, requested output
/// files) and returns the process exit code (0, or 1 on a request error or
/// failed validation).
int render_synth_response(const synth_response& resp,
                          const synth_cli_options& cli);

/// Renders a server_stats scrape as Prometheus-style plaintext exposition
/// (`xsfq_...` gauge/counter lines; histograms as sparse cumulative
/// `_bucket{le="..."}` lines plus `_sum`/`_count`).  Behind
/// `xsfq_client --stats`, and scrape-parseable by the CI smoke test.
/// Lines follow for_each_stat order after the leading `xsfq_build_info`.
std::string format_server_stats_text(const server_stats_reply& stats);

/// A Prometheus label value with `\`, `"` and newline escaped, so any text
/// (a fault-site name, an endpoint path) renders as one well-formed series.
std::string prometheus_label_value(std::string_view value);

}  // namespace xsfq::serve
