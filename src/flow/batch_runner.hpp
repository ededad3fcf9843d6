#pragma once
/// \file batch_runner.hpp
/// \brief Parallel execution of synthesis flows over benchmark suites.
///
/// One persistent worker pool runs a flow per circuit concurrently; results
/// come back in input order with per-circuit timing, so the output of a
/// 8-thread run is byte-identical to a 1-thread run (every flow is
/// deterministic, and each result lands in its input-ordered slot).
///
/// There is one scheduler.  A batch, like a partitioned optimize's regions,
/// is a group of closures claimed through one shared cursor by the calling
/// thread and by pool workers (self-scheduling: whoever is free takes the
/// next entry), so a skewed suite (one c6288 among small circuits) never
/// waits behind a fixed assignment.  The caller returns when its own group
/// is done, whatever else the pool is running.
///
/// Canned-flow runs additionally consult a cross-run result cache keyed
/// by (circuit content hash, flow-options fingerprint): re-running a suite
/// entry under identical options returns the cached flow_result, and
/// re-running the same circuit under different *mapping* options still
/// reuses the cached optimized network (the expensive stage).
///
/// Every canned flow is one flow::run_flow call on the calling thread: a
/// batch entry (run), a served request (run_request and run_cached_shared —
/// the daemon's handler threads share every cache tier, so a warm hit is
/// answered from the shared cache entry without a pool handoff or a copy),
/// and the cold ECO comparator (run_uncached).  The cached paths pass the
/// shared-future optimize tier as run_flow's optimize hook.  A hit returns
/// the stored result with the timings it was computed with.  The `generate`
/// stage times the same thing everywhere: handing the already-built network
/// to the flow.
///
/// In front of the result tiers, a served request meets the request memo:
/// the exact bytes its circuit is built from, mapped to the facts of that
/// circuit, so a repeat is answered from the memory or disk tier without
/// parsing or generating the circuit at all (run_request).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "flow/flow.hpp"

namespace xsfq::flow {

/// Parses a worker-thread count from a command-line argument.  Accepts
/// 0 (= hardware concurrency) through 256; returns nullopt on non-numeric,
/// trailing-garbage, negative, or out-of-range input so callers can print
/// usage instead of spawning a surprising number of threads.
std::optional<unsigned> parse_thread_count(const char* arg);

/// Result slot of one batch entry.  A failed flow (stage threw) carries the
/// exception text instead of a result.
struct batch_entry {
  std::string name;
  bool ok = false;
  std::string error;   ///< what() of the stage exception, if !ok
  flow_result result;  ///< valid only when ok
  /// This run's wall time for the entry's job.  A cached result keeps the
  /// time of the run that computed it in result.total_ms; this is what the
  /// entry cost now (a lookup, for a hit).
  double wall_ms = 0.0;
};

/// Outcome of one batch: entries in input order plus wall-clock accounting.
struct batch_report {
  std::vector<batch_entry> entries;
  double wall_ms = 0.0;      ///< elapsed wall-clock for the whole batch
  double flow_ms_sum = 0.0;  ///< sum of the entries' wall_ms (CPU-ish)
  unsigned threads = 1;      ///< the runner's num_threads()

  std::size_t num_ok() const;
  std::size_t num_failed() const;
};

/// Deterministic roll-up across the successful circuits of a batch.
struct batch_summary {
  std::size_t circuits = 0;
  std::size_t aig_gates = 0;         ///< optimized AIG nodes, summed
  std::size_t xsfq_jj = 0;           ///< mapped JJ, summed
  std::size_t rsfq_jj = 0;           ///< baseline JJ without clock, summed
  std::size_t rsfq_jj_clock = 0;     ///< baseline JJ with clock, summed
  double geomean_savings = 0.0;      ///< geomean rsfq_jj / xsfq_jj
  double geomean_savings_clock = 0.0;
};

batch_summary summarize(const batch_report& report);

/// Cumulative result-cache counters of one batch_runner.  The disk tier
/// counters stay zero until set_disk_cache() enables persistence.
struct batch_cache_stats {
  std::uint64_t full_hits = 0;    ///< whole flow_results served from memory
  std::uint64_t full_misses = 0;
  std::uint64_t opt_hits = 0;     ///< optimized networks served from cache
  std::uint64_t opt_misses = 0;
  std::uint64_t disk_hits = 0;    ///< flow_results loaded from the disk tier
  std::uint64_t disk_misses = 0;  ///< disk lookups that found nothing usable
  std::uint64_t disk_writes = 0;  ///< flow_results persisted to disk
  /// Undecodable disk entries / orphaned temp files moved to quarantine/
  /// instead of served (v5; see flow/disk_cache.hpp).
  std::uint64_t disk_quarantined = 0;
  std::uint64_t region_hits = 0;    ///< optimized regions replayed (ECO tier)
  std::uint64_t region_misses = 0;  ///< regions optimized live
  std::uint64_t eco_patches = 0;    ///< drop_entry calls that dropped entries
  std::uint64_t retained_networks = 0;  ///< networks held for delta requests
  /// v7: retained networks evicted by the LRU byte budget (see
  /// set_retained_bytes) — a high rate means sessions churn through more
  /// base circuits than the budget can pin.
  std::uint64_t retained_evictions = 0;
  /// v7: quarantined disk-cache files pruned to keep quarantine/ inside its
  /// count/byte bounds (see flow/disk_cache.hpp).
  std::uint64_t disk_quarantine_pruned = 0;
  // The request memo.  In-process only: the scrape carries none of these.
  std::uint64_t request_hits = 0;     ///< requests that skipped the build
  std::uint64_t request_entries = 0;  ///< sources held right now
  std::uint64_t request_bytes = 0;    ///< their bytes, at most the bound
};

/// What a served response reports about its input circuit: the content
/// hash a later synth_delta names as its base, and the sizes on the
/// `loaded` line.  The gate count also feeds the result key's partition
/// clamp, so the facts alone locate a stored result.
struct circuit_facts {
  std::uint64_t content_hash = 0;
  std::size_t pis = 0;
  std::size_t pos = 0;
  std::size_t registers = 0;
  std::size_t gates = 0;

  static circuit_facts of(const aig& network);
};

/// The exact input a served request builds its circuit from: the source
/// kind and the bytes the builder reads (the netlist text, or the registry
/// name).  Equal sources build equal circuits.
struct request_source {
  std::uint8_t kind = 0;
  std::string_view bytes;
};

/// Thread-pool flow executor.  Construct once, run many batches; worker
/// threads and the result cache persist across run() calls.  The batch and
/// single-flow entry points (run, run_jobs, run_cached, run_cached_shared,
/// run_request, run_uncached, run_subtasks) are safe from any number of
/// threads at once: two batches, or a batch beside single flows, each wait
/// only for their own work.
class batch_runner {
 public:
  /// \param num_threads threads that may run a batch's entries, the caller
  /// included; 0 picks hardware_concurrency (min 1).  A 1-thread runner
  /// starts no worker and runs everything on its callers.
  explicit batch_runner(unsigned num_threads = 0);
  ~batch_runner();
  batch_runner(const batch_runner&) = delete;
  batch_runner& operator=(const batch_runner&) = delete;

  unsigned num_threads() const { return num_threads_; }

  /// Claim loops offered to the pool and not yet taken by a worker, one per
  /// helper a batch or a partitioned optimize asked for.  A point-in-time
  /// gauge for serving metrics; racy by nature, never used for control
  /// decisions.
  std::size_t queue_depth() const;

  /// Runs the canned paper flow (generate -> optimize -> map -> baseline)
  /// over every named benchmark, consulting the result cache per entry.
  batch_report run(const std::vector<std::string>& benchmark_names,
                   const flow_options& options = {});

  /// Same, with per-entry options (ablation sweeps re-running one circuit
  /// under several option sets; the optimize cache tier de-duplicates the
  /// expensive stage across entries that share opt parameters).
  batch_report run(const std::vector<std::string>& benchmark_names,
                   const std::vector<flow_options>& per_entry_options);

  /// Fully generic: one job per entry, claimed by the calling thread and up
  /// to num_threads() - 1 pool workers, results in input order.  Bypasses
  /// the result cache.
  batch_report run_jobs(std::vector<std::string> names,
                        std::vector<std::function<flow_result()>> jobs);

  /// The cached canned flow for an already-built network, executed on the
  /// calling thread with every cache tier applied (memory, in-flight
  /// optimize dedup, disk).  The observer (optional) streams per-stage
  /// progress; cache hits replay the cached timings with from_cache=true.
  /// A run_jobs job may call it.
  flow_result run_cached(aig network, const std::string& name,
                         const flow_options& options,
                         const stage_observer& observer = {});

  /// run_cached without the by-value copies: returns the immutable cache
  /// entry itself (hit or freshly stored miss alike).  The daemon renders
  /// its response straight out of the entry, so a warm hit pays zero
  /// flow_result copies; a cache-disabled runner still computes and wraps a
  /// fresh result.  Cached timings are replayed through the observer with
  /// from_cache=true exactly as run_cached does.
  std::shared_ptr<const flow_result> run_cached_shared(
      aig network, const std::string& name, const flow_options& options,
      const stage_observer& observer = {});

  /// run_cached_shared for a served request whose circuit `build` makes
  /// from `source`, through the request memo.  A source enters the memo
  /// once a request of it was built and then served from a result tier (a
  /// text compiled once and never again does not, nor one whose build
  /// throws).  A repeat is then answered from the memory or disk tier
  /// without calling `build`; if its result has left both tiers, it builds
  /// and recomputes after that one lookup, so every request counts one
  /// lookup.  `facts` is filled before the flow runs and left alone when
  /// `build` throws, so a caller can name the circuit of a flow that
  /// failed.  A cache-disabled runner neither reads nor fills the memo.
  /// `admit` (optional) runs at most once, right before the first step that
  /// is not a memo or memory-tier lookup: the build, a disk-tier load or a
  /// flow stage.  A request the memo and the memory tier answer never calls
  /// it; the daemon takes an execution slot there.  Exceptions from `admit`,
  /// from `build` and from the flow propagate.
  std::shared_ptr<const flow_result> run_request(
      const request_source& source, const std::function<aig()>& build,
      const std::string& name, const flow_options& options,
      const stage_observer& observer, circuit_facts& facts,
      const std::function<void()>& admit = {});

  /// Byte bound of the request memo: the stored source bytes plus a fixed
  /// per-entry overhead.  The least recently used sources leave first; a
  /// source larger than the bound is never stored.
  static constexpr std::size_t max_request_memo_bytes = 8u << 20;

  /// The canned flow with every cache tier bypassed — no lookups, no stores,
  /// no region cache — executed inline on the calling thread.  This is the
  /// ECO comparator: "what would a cold run of this exact circuit produce",
  /// byte-identical to the incremental path by the determinism contract.
  flow_result run_uncached(aig network, const std::string& name,
                           const flow_options& options,
                           const stage_observer& observer = {});

  // ----- ECO surface (serve/synth_service delta requests) -------------------

  /// The network most recently served under `content_hash` through
  /// run_cached / run_cached_shared, or nullptr when it was never seen or
  /// has been evicted (byte-budgeted LRU; a hit refreshes the entry).  Delta
  /// requests replay their edit script onto this retained base instead of
  /// re-parsing it.
  std::shared_ptr<const aig> retained_network(std::uint64_t content_hash) const;

  /// v7: byte budget of the retained-network tier (default 256 MiB),
  /// measured with aig::memory_bytes.  Shrinking below the current
  /// footprint evicts least-recently-used entries immediately (counted in
  /// cache_stats().retained_evictions); the most recent entry is always
  /// kept even when it alone exceeds the budget.
  void set_retained_bytes(std::size_t budget);

  /// Drops the memory/disk entries (full result + optimized network) for
  /// (circuit, name, options).  Returns true when anything was dropped.  The
  /// ECO supersede path calls this on the base circuit's hash so a stale
  /// entry cannot be served after its circuit was edited away; without it,
  /// superseded entries linger until mtime pruning.  Counted in
  /// cache_stats().eco_patches when something was dropped.
  bool drop_entry(std::uint64_t circuit_hash, std::size_t num_gates,
                  const std::string& name, const flow_options& options);

  /// Runs every closure to completion with pool assistance: the closures are
  /// claimed by the calling thread and by up to num_threads() - 1 idle
  /// workers, so progress is guaranteed even when every worker is busy (a
  /// job may call this re-entrantly — that is exactly the intra-flow
  /// parallelism path).  Closures must not throw; callers capture errors
  /// themselves.  The flow entry points install it as the optimize executor
  /// whenever flow_options asks for opt.flow_jobs > 1 without one.
  void run_subtasks(std::vector<std::function<void()>> tasks);

  /// The cross-run result cache is on by default; disabling it also clears
  /// nothing (re-enable to keep using prior entries).  The switch covers the
  /// request memo too.
  void set_cache_enabled(bool enabled);
  bool cache_enabled() const;
  batch_cache_stats cache_stats() const;
  /// Empties every in-memory tier: results, optimized networks, retained
  /// networks, regions and the request memo.  The disk tier stays.
  void clear_cache();

  /// Attaches the disk-persistent cache tier rooted at `directory` (created
  /// if absent).  Full-result lookups that miss in memory then consult the
  /// disk tier, and every freshly computed result is persisted atomically,
  /// so warm results survive process restarts.  Call before serving traffic;
  /// not thread-safe against in-flight jobs.  Throws std::runtime_error when
  /// the directory cannot be created.
  void set_disk_cache(const std::string& directory,
                      std::size_t max_entries = 1024);
  /// Directory of the disk tier, or empty when disabled.
  std::string disk_cache_directory() const;

 private:
  struct impl;
  impl* impl_;
  unsigned num_threads_ = 1;
};

/// One-shot convenience: run the paper flow over the names with a temporary
/// pool of `num_threads` workers.
batch_report run_batch(const std::vector<std::string>& benchmark_names,
                       const flow_options& options = {},
                       unsigned num_threads = 0);

}  // namespace xsfq::flow
