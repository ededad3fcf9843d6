#include "flow/flow.hpp"

#include <chrono>
#include <utility>

#include "benchgen/registry.hpp"
#include "core/xsfq_writer.hpp"
#include "util/hash.hpp"

namespace xsfq::flow {

std::uint64_t fingerprint(const optimize_params& params) {
  std::uint64_t h = 0x0B7E151628AED2A6ull;
  h = hash_mix(h, params.max_rounds);
  h = hash_mix(h, params.zero_gain_final);
  h = hash_mix(h, params.refactor_cut_size);
  h = hash_mix(h, params.validate_passes);
  h = hash_mix(h, params.validate_passes ? params.validate_rounds : 0);
  // The partition shape changes the optimized network (region boundaries
  // freeze cuts), so it is part of the result identity; the executor and the
  // region cache are wall-clock-only and deliberately excluded.  In grain
  // mode the shape is the grain alone — flow_jobs degrades to a parallelism
  // knob — so the grain joins the digest in flow_jobs' place (the extra mix
  // keeps grain-mode digests disjoint from every legacy one); with grain 0
  // the mix sequence is exactly the legacy digest.
  if (params.partition_grain > 0) {
    h = hash_mix(h, 1u);
    h = hash_mix(h, params.partition_grain);
  } else {
    h = hash_mix(h, params.flow_jobs == 0 ? 1u : params.flow_jobs);
  }
  return h;
}

std::uint64_t fingerprint(const flow_options& options) {
  std::uint64_t h = fingerprint(options.opt);
  h = hash_mix(h, options.run_optimize);
  h = hash_mix(h, static_cast<std::uint64_t>(options.map.polarity));
  h = hash_mix(h, options.map.pipeline_stages);
  h = hash_mix(h, static_cast<std::uint64_t>(options.map.reg_style));
  h = hash_mix(h, options.map.forced_polarities.has_value());
  if (options.map.forced_polarities) {
    h = hash_mix(h, options.map.forced_polarities->size());
    for (const bool negate : *options.map.forced_polarities) {
      h = hash_mix(h, negate);
    }
  }
  h = hash_mix(h, options.run_baseline);
  h = hash_mix(h, options.baseline.detect_xor);
  h = hash_mix(h, options.baseline.costs.logic_cell);
  h = hash_mix(h, options.baseline.costs.not_cell);
  h = hash_mix(h, options.baseline.costs.dro);
  h = hash_mix(h, options.baseline.costs.dff);
  h = hash_mix(h, options.baseline.costs.splitter);
  h = hash_mix(h, options.emit_verilog);
  h = hash_mix(h, result_version);
  return h;
}

namespace {

/// The flow itself.  `generate` yields the input network and is timed as
/// the generate stage; every later stage works on result.optimized.
template <class Generate>
flow_result run_stages(Generate&& generate, std::string name,
                       const flow_options& options,
                       const stage_observer& observer,
                       const optimize_fn& optimize) {
  using clock = std::chrono::steady_clock;
  const std::uint32_t total = 2 + options.run_optimize +
                              options.run_baseline + options.emit_verilog;
  flow_result r;
  r.name = std::move(name);
  const auto flow_start = clock::now();
  auto stage_start = flow_start;
  // Closes the stage that began at stage_start.
  const auto finish = [&](const char* stage, stage_counters counters) {
    const std::chrono::duration<double, std::milli> elapsed =
        clock::now() - stage_start;
    counters.nodes = r.optimized.num_gates();
    const auto index = static_cast<std::uint32_t>(r.timings.size());
    r.timings.push_back({stage, elapsed.count(), counters});
    if (observer) {
      observer({stage, index, total, elapsed.count(), counters,
                /*from_cache=*/false});
    }
    stage_start = clock::now();
  };

  r.optimized = generate();
  finish("generate", {});
  if (options.run_optimize) {
    if (optimize) {
      r.opt_stats = optimize(r.optimized);
    } else {
      r.optimized = xsfq::optimize(r.optimized, options.opt, &r.opt_stats);
    }
    const opt_counters& work = r.opt_stats.work;
    finish("optimize",
           {0, work.cuts_enumerated, work.replacements, work.cut_arena_bytes,
            work.sim_words, work.sim_node_evals, work.net_arena_bytes,
            work.rebuilds_avoided});
  }
  r.mapped = map_to_xsfq(r.optimized, options.map);
  finish("map", {});
  if (options.run_baseline) {
    r.baseline = map_to_rsfq(r.optimized, options.baseline);
    finish("baseline", {});
  }
  if (options.emit_verilog) {
    r.verilog = write_xsfq_verilog_string(r.mapped, r.name);
    finish("emit", {});
  }
  const std::chrono::duration<double, std::milli> elapsed =
      clock::now() - flow_start;
  r.total_ms = elapsed.count();
  return r;
}

}  // namespace

flow_result run_flow(aig network, std::string name,
                     const flow_options& options,
                     const stage_observer& observer,
                     const optimize_fn& optimize) {
  return run_stages([&] { return std::move(network); }, std::move(name),
                    options, observer, optimize);
}

flow_result run_flow(const std::string& benchmark_name,
                     const flow_options& options) {
  return run_stages([&] { return benchgen::make_benchmark(benchmark_name); },
                    benchmark_name, options, {}, {});
}

}  // namespace xsfq::flow
