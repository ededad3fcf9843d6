#include "flow/flow.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/xsfq_writer.hpp"
#include "opt/opt_engine.hpp"
#include "util/hash.hpp"

namespace xsfq::flow {

double flow_result::stage_ms(const std::string& stage_name) const {
  for (const auto& t : timings) {
    if (t.stage == stage_name) return t.ms;
  }
  return 0.0;
}

flow& flow::add_stage(std::string stage_name,
                      std::function<void(flow_context&)> fn) {
  stages_.push_back({std::move(stage_name), std::move(fn)});
  return *this;
}

flow& flow::add_stage(stage s) {
  stages_.push_back(std::move(s));
  return *this;
}

flow& flow::add_stages(const flow& other) {
  for (const auto& s : other.stages()) stages_.push_back(s);
  return *this;
}

flow_result flow::run(const stage_observer& observer) const {
  return run_context(flow_context{}, observer);
}

flow_result flow::run_on(const aig& network, std::string circuit_name,
                         const stage_observer& observer) const {
  flow_context ctx;
  ctx.network = network;
  ctx.name = std::move(circuit_name);
  return run_context(std::move(ctx), observer);
}

flow_result flow::run_context(flow_context ctx,
                              const stage_observer& observer) const {
  using clock = std::chrono::steady_clock;
  flow_result result;
  const auto flow_start = clock::now();
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const auto& s = stages_[i];
    const auto stage_start = clock::now();
    ctx.counters = {};
    s.run(ctx);
    const std::chrono::duration<double, std::milli> elapsed =
        clock::now() - stage_start;
    ctx.counters.nodes = ctx.network.num_gates();
    result.timings.push_back({s.name, elapsed.count(), ctx.counters});
    if (observer) {
      observer({s.name, i, stages_.size(), elapsed.count(), ctx.counters,
                /*from_cache=*/false});
    }
  }
  const std::chrono::duration<double, std::milli> total =
      clock::now() - flow_start;
  result.total_ms = total.count();

  result.name = std::move(ctx.name);
  result.optimized = std::move(ctx.network);
  if (ctx.opt) result.opt_stats = *ctx.opt;
  if (ctx.mapped) result.mapped = std::move(*ctx.mapped);
  if (ctx.baseline) result.baseline = *ctx.baseline;
  result.verilog = std::move(ctx.verilog);
  return result;
}

void apply_opt_counters(stage_counters& counters, const opt_counters& work) {
  counters.cuts = work.cuts_enumerated;
  counters.replacements = work.replacements;
  counters.arena_bytes = work.cut_arena_bytes;
  counters.sim_words = work.sim_words;
  counters.sim_node_evals = work.sim_node_evals;
  counters.arena_peak_bytes = work.net_arena_bytes;
  counters.rebuilds_avoided = work.rebuilds_avoided;
}

namespace stages {

stage benchmark(std::string benchmark_name) {
  return {"generate", [name = std::move(benchmark_name)](flow_context& ctx) {
            ctx.name = name;
            ctx.network = benchgen::make_benchmark(name);
          }};
}

stage preset(aig network, std::string circuit_name) {
  return {"generate",
          [network = std::move(network),
           name = std::move(circuit_name)](flow_context& ctx) {
            ctx.name = name;
            ctx.network = network;
          }};
}

stage optimize(optimize_params params) {
  return {"optimize", [params](flow_context& ctx) {
            optimize_stats st;
            ctx.network = xsfq::optimize(ctx.network, params, &st);
            apply_opt_counters(ctx.counters, st.work);
            ctx.opt = st;
          }};
}

stage pass(std::string pass_name) {
  return {pass_name, [pass_name](flow_context& ctx) {
            // Pooled engines persist across stages and entries, so this
            // stage's work is the counter delta, not the lifetime total.
            const opt_engine::lease engine;
            const opt_counters before = engine->counters();
            ctx.network = engine->run_pass(ctx.network, pass_name);
            apply_opt_counters(ctx.counters,
                               engine->counters().delta_since(before));
          }};
}

stage map(mapping_params params) {
  return {"map", [params](flow_context& ctx) {
            ctx.mapped = map_to_xsfq(ctx.network, params);
          }};
}

stage baseline(rsfq_params params) {
  return {"baseline", [params](flow_context& ctx) {
            ctx.baseline = map_to_rsfq(ctx.network, params);
          }};
}

stage emit_verilog(std::string module_name) {
  return {"emit", [module = std::move(module_name)](flow_context& ctx) {
            if (!ctx.mapped) {
              throw std::logic_error(
                  "flow: emit_verilog stage requires a map stage before it");
            }
            ctx.verilog = write_xsfq_verilog_string(
                *ctx.mapped, module.empty() ? ctx.name : module);
          }};
}

}  // namespace stages

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

flow make_synthesis_flow(const flow_options& options) {
  flow f("synthesis");
  if (options.run_optimize) f.add_stage(stages::optimize(options.opt));
  f.add_stage(stages::map(options.map));
  if (options.run_baseline) f.add_stage(stages::baseline(options.baseline));
  if (options.emit_verilog) f.add_stage(stages::emit_verilog());
  return f;
}

flow_result run_flow(const std::string& benchmark_name,
                     const flow_options& options) {
  flow full("synthesis");
  full.add_stage(stages::benchmark(benchmark_name));
  full.add_stages(make_synthesis_flow(options));
  return full.run();
}

flow_result run_flow(const aig& network, std::string circuit_name,
                     const flow_options& options) {
  return make_synthesis_flow(options).run_on(network, std::move(circuit_name));
}

}  // namespace xsfq::flow
