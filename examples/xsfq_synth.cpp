/// xsfq_synth — the end-to-end synthesis CLI (the "Yosys + ABC + mapper"
/// command of the paper's flow in one binary).
///
///   xsfq_synth <circuit> [options]
///   xsfq_synth --corpus=DIR [options]
///     <circuit>          benchmark name (c880, dec, s298, ...) or a
///                        .bench / .blif file path
///     --corpus=DIR       synthesize every .bench/.blif under DIR through
///                        the parallel batch runner (summary table output)
///     --polarity=MODE    direct | positive | optimized   (default optimized)
///     --pipeline=K       architectural pipeline stages (combinational only)
///     --registers=STYLE  boundary | retimed              (default retimed)
///     --verilog=FILE     write the mapped xSFQ netlist as structural Verilog
///     --dot=FILE         write the mapped netlist as Graphviz
///     --liberty=FILE     write the Table 2 cell library (.lib)
///     --flow-jobs=N      intra-flow parallelism: partition the optimize
///                        stage into N regions run concurrently on the
///                        worker pool (1 = sequential pipeline; the
///                        partition count changes the result deterministically
///                        and joins the result-cache key)
///     --partition-grain=N
///                        optimize in fixed regions of N gates (0 = off;
///                        the grain joins the result-cache key)
///     --validate         pulse-level validation against the golden model,
///                        plus per-pass sim-equivalence checks in optimize
///     --timing           also print per-stage counters as CSV (for perf
///                        tracking: ms, nodes, cuts, rewrites, arena bytes,
///                        sim words / node evaluations)
///     --no-timing        suppress the wall-clock timing footer, leaving
///                        only deterministic output (CI diffs local runs
///                        against xsfq_client runs byte for byte)
///     --cache-dir=DIR    disk-persistent result cache: repeated invocations
///                        on the same circuit+options reuse prior results
///     --threads=N        worker threads for --corpus (0 = hardware)
///     --progress         stream per-stage progress to stderr
///
/// The synthesis itself runs through serve::run_synth — the exact driver the
/// xsfq_served daemon executes — so a local run and a served run of the same
/// circuit+options produce byte-identical deterministic output.
///
/// SIGINT/SIGTERM drain gracefully: in corpus mode, entries not yet started
/// are skipped, in-flight entries finish (their disk-cache writes are
/// synchronous and atomic), and the summary reports what completed.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "flow/batch_runner.hpp"
#include "serve/synth_service.hpp"

using namespace xsfq;

namespace {

// Lock-free atomic (not volatile sig_atomic_t): the handler runs on the
// main thread but pool workers on other cores poll the flag to drain.
std::atomic<int> g_signal{0};
static_assert(std::atomic<int>::is_always_lock_free);

void signal_handler(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

void install_signal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = signal_handler;
  sa.sa_flags = SA_RESTART;  // keep in-flight IO running while we drain
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

struct cli_options {
  std::string spec;
  std::string corpus_dir;
  std::string cache_dir;
  unsigned threads = 0;
  serve::synth_cli_options synth;  ///< shared with xsfq_client
};

int run_corpus(const cli_options& cli) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const auto& de : fs::directory_iterator(cli.corpus_dir)) {
    const std::string ext = de.path().extension().string();
    if (ext == ".bench" || ext == ".blif") {
      files.push_back(de.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cerr << "corpus: no .bench/.blif files under " << cli.corpus_dir
              << "\n";
    return 2;
  }

  flow::batch_runner runner(cli.threads);
  if (!cli.cache_dir.empty()) runner.set_disk_cache(cli.cache_dir);

  // One batch job per file on the runner's pool, results in input
  // order.  Each entry is the request a single run of that file makes,
  // under the same options translation.  Parsing happens inside the job, so
  // a malformed file fails its own entry (and parsing parallelizes) instead
  // of aborting the whole run.  Each job checks the signal flag on entry, so
  // a SIGINT drains in-flight work and skips the rest instead of aborting
  // mid-write.
  std::vector<std::function<flow::flow_result()>> jobs;
  jobs.reserve(files.size());
  for (const auto& file : files) {
    jobs.push_back([&runner, &cli, file] {
      if (g_signal != 0) {
        throw std::runtime_error("skipped: interrupted before start");
      }
      serve::synth_request req = serve::make_request_for_spec(file);
      serve::apply_cli_options(cli.synth, req);
      return runner.run_cached(serve::load_request_circuit(req), req.spec,
                               serve::options_for(req));
    });
  }
  const flow::batch_report report = runner.run_jobs(files, std::move(jobs));

  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
  std::cout << "circuit,gates,jj,savings,ms\n";
  for (const flow::batch_entry& e : report.entries) {
    if (e.ok) {
      const flow::flow_result& r = e.result;
      const double savings =
          r.mapped.stats.jj > 0
              ? static_cast<double>(r.baseline.jj_without_clock) /
                    static_cast<double>(r.mapped.stats.jj)
              : 0.0;
      std::cout << r.name << "," << r.optimized.num_gates() << ","
                << r.mapped.stats.jj << "," << savings << "," << e.wall_ms
                << "\n";
      ++completed;
    } else if (e.error.rfind("skipped:", 0) == 0) {
      ++skipped;
    } else {
      std::cout << e.name << ",error," << e.error << "\n";
      ++failed;
    }
  }
  std::cout << "corpus: " << completed << " completed, " << failed
            << " failed, " << skipped << " skipped of " << files.size()
            << " (threads " << runner.num_threads() << ")\n";
  const auto stats = runner.cache_stats();
  std::cout << "cache:  full " << stats.full_hits << "/"
            << stats.full_hits + stats.full_misses << " hits, disk "
            << stats.disk_hits << " hits " << stats.disk_writes
            << " writes\n";
  if (g_signal != 0) {
    std::cout << "interrupted: drained in-flight entries and flushed the "
                 "disk cache\n";
    return 130;  // partial CSV must not read as a completed sweep
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: xsfq_synth <circuit|file.bench|file.blif> "
                 "[--polarity=...] [--pipeline=K] [--registers=...]\n"
                 "                  [--verilog=F] [--dot=F] [--liberty=F] "
                 "[--validate] [--timing] [--no-timing]\n"
                 "                  [--cache-dir=DIR] [--progress] "
                 "[--flow-jobs=N] [--partition-grain=N]\n"
                 "       xsfq_synth --corpus=DIR [--threads=N] [options]\n";
    return 2;
  }
  cli_options cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string error;
    switch (serve::parse_synth_option(arg, cli.synth, error)) {
      case serve::cli_parse::consumed:
        continue;
      case serve::cli_parse::invalid:
        std::cerr << error << "\n";
        return 2;
      case serve::cli_parse::not_synth_option:
        break;
    }
    if (auto v = serve::cli_value(arg, "--corpus"); !v.empty()) {
      cli.corpus_dir = v;
    } else if (auto v2 = serve::cli_value(arg, "--cache-dir"); !v2.empty()) {
      cli.cache_dir = v2;
    } else if (auto v3 = serve::cli_value(arg, "--threads"); !v3.empty()) {
      const auto n = flow::parse_thread_count(v3.c_str());
      if (!n) {
        std::cerr << "--threads expects 0..256, got: " << v3 << "\n";
        return 2;
      }
      cli.threads = *n;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option: " << arg << "\n";
      return 2;
    } else if (cli.spec.empty()) {
      cli.spec = arg;
    } else {
      std::cerr << "unexpected argument: " << arg << "\n";
      return 2;
    }
  }
  if (cli.spec.empty() == cli.corpus_dir.empty()) {
    std::cerr << "expected exactly one of <circuit> or --corpus=DIR\n";
    return 2;
  }
  if (!cli.corpus_dir.empty() &&
      (!cli.synth.verilog_path.empty() || !cli.synth.dot_path.empty() ||
       !cli.synth.liberty_path.empty() || cli.synth.progress)) {
    // Rejecting beats silently dropping the user's request: corpus mode
    // prints a summary table, not per-circuit artifacts (--validate is
    // honored as per-pass sim checks inside every entry's optimize stage).
    std::cerr << "--verilog/--dot/--liberty/--progress are not supported "
                 "with --corpus\n";
    return 2;
  }

  install_signal_handlers();
  try {
    if (!cli.corpus_dir.empty()) return run_corpus(cli);

    // The CLI is literally the served flow: the same synth_request driver
    // the daemon runs, here on the main thread against a process-local
    // runner, rendered by the same response printer xsfq_client uses.
    serve::synth_request req = serve::make_request_for_spec(cli.spec);
    serve::apply_cli_options(cli.synth, req);

    // The flow runs on this thread; the workers serve the partitioned
    // optimize's subtasks when --flow-jobs asks for them.  Capped at the
    // hardware: surplus workers on a small machine would just timeshare the
    // cores the partitions already occupy.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    flow::batch_runner runner(std::max(1u, std::min(cli.synth.flow_jobs, hw)));
    if (!cli.cache_dir.empty()) runner.set_disk_cache(cli.cache_dir);

    const auto progress = [&](const serve::progress_event& ev) {
      if (cli.synth.progress) serve::print_progress_event(ev);
    };
    const serve::synth_response resp = serve::run_synth(req, runner, progress);
    const int code = serve::render_synth_response(resp, cli.synth);
    if (code != 0) return code;
    if (g_signal != 0) return 130;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
