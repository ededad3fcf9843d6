#include "flow/batch_runner.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "benchgen/registry.hpp"
#include "flow/disk_cache.hpp"
#include "opt/partition.hpp"
#include "util/hash.hpp"
#include "util/trace.hpp"

namespace xsfq::flow {

std::optional<unsigned> parse_thread_count(const char* arg) {
  if (arg == nullptr || *arg == '\0') return std::nullopt;
  char* end = nullptr;
  const long n = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0' || n < 0 || n > 256) return std::nullopt;
  return static_cast<unsigned>(n);
}

std::size_t batch_report::num_ok() const {
  std::size_t n = 0;
  for (const auto& e : entries) {
    if (e.ok) ++n;
  }
  return n;
}

std::size_t batch_report::num_failed() const {
  return entries.size() - num_ok();
}

std::vector<const flow_result*> batch_report::ok_results() const {
  std::vector<const flow_result*> out;
  out.reserve(entries.size());
  for (const auto& e : entries) {
    if (e.ok) out.push_back(&e.result);
  }
  return out;
}

batch_summary summarize(const batch_report& report) {
  batch_summary s;
  double log_sum = 0.0;
  double log_sum_clock = 0.0;
  std::size_t ratio_count = 0;
  for (const auto& e : report.entries) {
    if (!e.ok) continue;
    const auto& r = e.result;
    ++s.circuits;
    s.aig_gates += r.optimized.num_gates();
    s.xsfq_jj += r.mapped.stats.jj;
    s.rsfq_jj += r.baseline.jj_without_clock;
    s.rsfq_jj_clock += r.baseline.jj_with_clock;
    if (r.mapped.stats.jj > 0 && r.baseline.jj_without_clock > 0) {
      log_sum += std::log(static_cast<double>(r.baseline.jj_without_clock) /
                          static_cast<double>(r.mapped.stats.jj));
      log_sum_clock +=
          std::log(static_cast<double>(r.baseline.jj_with_clock) /
                   static_cast<double>(r.mapped.stats.jj));
      ++ratio_count;
    }
  }
  if (ratio_count > 0) {
    const double n = static_cast<double>(ratio_count);
    s.geomean_savings = std::exp(log_sum / n);
    s.geomean_savings_clock = std::exp(log_sum_clock / n);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Worker pool (per-worker deques + stealing) and cross-run result cache.
// ---------------------------------------------------------------------------

struct batch_runner::impl {
  // ----- work-stealing pool -------------------------------------------------

  unsigned num_threads = 1;  ///< mirror of the owner's worker count

  /// One deque per worker; the owner pops the front, thieves pop the back.
  struct worker_queue {
    std::mutex mutex;
    std::deque<std::function<void()>> jobs;
  };

  std::vector<std::unique_ptr<worker_queue>> queues;
  std::mutex mutex;  ///< guards the sleep/wake protocol and shutdown flag
  std::condition_variable work_ready;
  std::condition_variable batch_done;
  std::atomic<std::size_t> queued{0};     ///< jobs sitting in some deque
  std::atomic<std::size_t> in_flight{0};  ///< queued + currently executing
  std::atomic<std::uint64_t> steal_count{0};
  bool shutting_down = false;
  std::vector<std::thread> workers;
  /// Round-robin cursor; atomic because run_subtasks() submits from
  /// arbitrary threads concurrently (batch run() still submits from one).
  std::atomic<std::size_t> next_queue{0};

  bool try_pop(std::size_t self, std::function<void()>& job) {
    {
      worker_queue& own = *queues[self];
      std::lock_guard<std::mutex> lock(own.mutex);
      if (!own.jobs.empty()) {
        job = std::move(own.jobs.front());
        own.jobs.pop_front();
        queued.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
    for (std::size_t offset = 1; offset < queues.size(); ++offset) {
      worker_queue& victim = *queues[(self + offset) % queues.size()];
      std::lock_guard<std::mutex> lock(victim.mutex);
      if (!victim.jobs.empty()) {
        job = std::move(victim.jobs.back());
        victim.jobs.pop_back();
        queued.fetch_sub(1, std::memory_order_relaxed);
        steal_count.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  void worker_loop(std::size_t self) {
    for (;;) {
      std::function<void()> job;
      if (try_pop(self, job)) {
        job();
        if (in_flight.fetch_sub(1) == 1) {
          std::lock_guard<std::mutex> lock(mutex);
          batch_done.notify_all();
        }
        continue;
      }
      std::unique_lock<std::mutex> lock(mutex);
      work_ready.wait(lock, [this] {
        return shutting_down || queued.load(std::memory_order_relaxed) > 0;
      });
      if (shutting_down && queued.load(std::memory_order_relaxed) == 0) {
        return;
      }
    }
  }

  void submit(std::function<void()> job) {
    in_flight.fetch_add(1);
    {
      const std::size_t slot =
          next_queue.fetch_add(1, std::memory_order_relaxed) % queues.size();
      worker_queue& q = *queues[slot];
      std::lock_guard<std::mutex> lock(q.mutex);
      // Increment-then-push inside the queue lock: a pop (which holds the
      // same lock) always observes the increment before the job, so
      // `queued` can never underflow, and a worker woken by a momentarily
      // early increment serializes on this lock and finds the job.
      queued.fetch_add(1, std::memory_order_relaxed);
      q.jobs.push_back(std::move(job));
    }
    // Empty critical section pairs the increment with the workers'
    // check-then-wait, closing the lost-wakeup window.
    { std::lock_guard<std::mutex> lock(mutex); }
    work_ready.notify_one();
  }

  void wait_idle() {
    std::unique_lock<std::mutex> lock(mutex);
    batch_done.wait(lock, [this] { return in_flight.load() == 0; });
  }

  // ----- intra-flow subtasks (caller participates) --------------------------

  /// One run_subtasks invocation: tasks are claimed through an atomic cursor
  /// by pool workers *and* the submitting thread, so the group always drains
  /// even on a fully loaded (or single-worker) pool.
  struct subtask_group {
    std::vector<std::function<void()>> tasks;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex m;
    std::condition_variable cv;

    /// Claims and runs one task; false when none are left to claim.
    bool run_next() {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) return false;
      tasks[i]();
      if (done.fetch_add(1) + 1 == tasks.size()) {
        std::lock_guard<std::mutex> lock(m);
        cv.notify_all();
      }
      return true;
    }
  };

  void run_subtasks(std::vector<std::function<void()>> tasks) {
    if (tasks.empty()) return;
    if (tasks.size() == 1 || num_threads <= 1) {
      // No sibling worker could help; skip the group machinery entirely.
      for (auto& task : tasks) task();
      return;
    }
    auto group = std::make_shared<subtask_group>();
    group->tasks = std::move(tasks);
    const std::size_t n = group->tasks.size();
    // Offer at most one claim job per *other* worker (more thieves than
    // workers just adds wakeups); each helper drains the cursor until the
    // group is empty, so surplus tasks spread over however many workers are
    // actually free, and the caller claims whatever nobody picked up.
    const std::size_t helpers = std::min<std::size_t>(n - 1, num_threads - 1);
    for (std::size_t i = 0; i < helpers; ++i) {
      submit([group] {
        while (group->run_next()) {
        }
      });
    }
    while (group->run_next()) {
    }
    std::unique_lock<std::mutex> lock(group->m);
    group->cv.wait(lock, [&] { return group->done.load() == n; });
  }

  /// Copies `options` with the pool installed as the partitioned-optimize
  /// executor (when requested and not caller-supplied) and the runner's
  /// region cache installed for grain-mode flows.  Neither joins the
  /// fingerprint — both change wall-clock only — so cache keys are
  /// unaffected.
  flow_options with_pool_executor(const flow_options& options) {
    flow_options out = options;
    if (out.opt.flow_jobs > 1 && !out.opt.executor) {
      out.opt.executor = [this](std::vector<std::function<void()>>&& tasks) {
        run_subtasks(std::move(tasks));
      };
    }
    if (out.opt.partition_grain > 0 && out.opt.regions == nullptr &&
        cache_enabled.load(std::memory_order_relaxed)) {
      out.opt.regions = &region_tier;
    }
    return out;
  }

  // ----- cross-run result cache --------------------------------------------

  struct cache_key {
    std::uint64_t circuit = 0;  ///< aig::content_hash()
    std::uint64_t options = 0;  ///< flow::fingerprint(...)
    bool operator==(const cache_key&) const = default;
  };
  struct cache_key_hash {
    std::size_t operator()(const cache_key& k) const {
      return static_cast<std::size_t>(k.circuit ^
                                      (k.options * 0x9E3779B97F4A7C15ull));
    }
  };
  /// Cached outcome of one optimize stage.
  struct opt_entry {
    aig network;
    optimize_stats stats;
  };

  static constexpr std::size_t max_full_entries = 64;
  static constexpr std::size_t max_opt_entries = 128;

  // Entries are immutable shared_ptrs so the global lock only covers a map
  // find plus a refcount bump — deep copies (whole AIGs) happen outside it.
  // The optimize tier stores shared_futures: the first requester of a key
  // becomes its producer, concurrent requesters wait on the future instead
  // of re-running the stage (no thundering herd when one circuit appears
  // under several mapping options in the same batch).
  using opt_future = std::shared_future<std::shared_ptr<const opt_entry>>;
  using opt_promise = std::promise<std::shared_ptr<const opt_entry>>;

  mutable std::mutex cache_mutex;
  std::unordered_map<cache_key, std::shared_ptr<const flow_result>,
                     cache_key_hash>
      full_cache;
  std::deque<cache_key> full_order;  ///< FIFO eviction
  std::unordered_map<cache_key, opt_future, cache_key_hash> opt_cache;
  std::deque<cache_key> opt_order;
  /// Disk-persistent tier behind the in-memory full cache (set_disk_cache);
  /// owns its own mutex, so lookups never hold cache_mutex across file IO.
  std::unique_ptr<disk_result_cache> disk;
  /// Registry generators are deterministic for the process lifetime, so a
  /// benchmark's content hash (and gate count, which keys the effective
  /// partition clamp) is memoized: repeat full-cache hits skip the
  /// (re)generation entirely.  Bounded by the registry size.
  std::unordered_map<std::string, std::pair<std::uint64_t, std::size_t>>
      hash_memo;
  std::atomic<bool> cache_enabled{true};
  std::atomic<std::uint64_t> full_hits{0};
  std::atomic<std::uint64_t> full_misses{0};
  std::atomic<std::uint64_t> opt_hits{0};
  std::atomic<std::uint64_t> opt_misses{0};
  std::atomic<std::uint64_t> eco_patches{0};

  /// Optimized-region tier (opt/partition.hpp), installed into every
  /// grain-mode flow: the engine of ECO resynthesis.
  region_cache region_tier;

  /// Retained-network tier: the serving entry points keep the networks they
  /// ran, keyed by content hash, so a synth_delta request can replay its
  /// edit script onto the base without shipping or re-parsing the base
  /// circuit.  Sized by traffic, not count: an LRU under a byte budget
  /// (aig::memory_bytes per entry), so a burst of tiny interactive sessions
  /// is not evicted by one huge batch circuit the way a fixed count was.
  struct retained_entry {
    std::shared_ptr<const aig> network;
    std::size_t bytes = 0;
    std::list<std::uint64_t>::iterator lru_pos;  ///< position in retained_lru
  };
  std::unordered_map<std::uint64_t, retained_entry> retained;
  std::list<std::uint64_t> retained_lru;  ///< front = most recently used
  std::size_t retained_budget = 256u << 20;
  std::size_t retained_bytes = 0;
  std::uint64_t retained_evictions = 0;

  /// Drops least-recently-used entries until the tier fits the budget.
  /// Always keeps the most recent entry even when it alone exceeds the
  /// budget — evicting the base a session is actively editing would turn
  /// every delta into a full rebuild.  Caller holds cache_mutex.
  void evict_retained_locked() {
    while (retained_bytes > retained_budget && retained.size() > 1) {
      const std::uint64_t victim = retained_lru.back();
      retained_lru.pop_back();
      const auto it = retained.find(victim);
      retained_bytes -= it->second.bytes;
      retained.erase(it);
      ++retained_evictions;
    }
  }

  void retain_network(std::uint64_t content_hash, const aig& network) {
    {
      std::lock_guard<std::mutex> lock(cache_mutex);
      const auto it = retained.find(content_hash);
      if (it != retained.end()) {
        // Already retained: just touch (refresh the LRU position).
        retained_lru.splice(retained_lru.begin(), retained_lru,
                            it->second.lru_pos);
        return;
      }
    }
    // First sighting: deep-copy outside the lock, then insert unless a
    // concurrent request for the same circuit got there first.
    auto copy = std::make_shared<const aig>(network);
    const std::size_t bytes = copy->memory_bytes();
    std::lock_guard<std::mutex> lock(cache_mutex);
    if (retained.count(content_hash) != 0) return;
    retained_lru.push_front(content_hash);
    retained.emplace(content_hash,
                     retained_entry{std::move(copy), bytes,
                                    retained_lru.begin()});
    retained_bytes += bytes;
    evict_retained_locked();
  }

  std::shared_ptr<const flow_result> lookup_full(const cache_key& key) {
    std::lock_guard<std::mutex> lock(cache_mutex);
    const auto it = full_cache.find(key);
    return it == full_cache.end() ? nullptr : it->second;
  }

  void store_full(const cache_key& key,
                  std::shared_ptr<const flow_result> entry, bool persist) {
    {
      std::lock_guard<std::mutex> lock(cache_mutex);
      if (!full_cache.emplace(key, entry).second) {
        return;  // racer won; it also handled persistence
      }
      full_order.push_back(key);
      if (full_order.size() > max_full_entries) {
        full_cache.erase(full_order.front());
        full_order.pop_front();
      }
    }
    // Disk writes happen outside cache_mutex (the disk tier has its own
    // lock); entries loaded *from* disk pass persist=false.
    if (persist && disk) {
      const std::uint64_t store_start = trace::now_us();
      disk->store(key.circuit, key.options, *entry);
      trace::record("cache.disk_store", store_start,
                    trace::now_us() - store_start);
    }
  }

  /// Outcome of claiming an optimize-cache slot: a consumer gets the future
  /// (ready, or in flight on another worker); the first requester gets the
  /// promise too and must fulfil it.
  struct opt_claim {
    opt_future future;
    std::shared_ptr<opt_promise> promise;  ///< set iff this caller produces
  };

  opt_claim claim_opt(const cache_key& key) {
    std::lock_guard<std::mutex> lock(cache_mutex);
    const auto it = opt_cache.find(key);
    if (it != opt_cache.end()) return {it->second, nullptr};
    auto promise = std::make_shared<opt_promise>();
    opt_future future = promise->get_future().share();
    opt_cache.emplace(key, future);
    opt_order.push_back(key);
    if (opt_order.size() > max_opt_entries) {
      opt_cache.erase(opt_order.front());
      opt_order.pop_front();
    }
    return {std::move(future), std::move(promise)};
  }

  /// Drops a slot whose producer failed so later runs retry the stage.
  void abandon_opt(const cache_key& key) {
    std::lock_guard<std::mutex> lock(cache_mutex);
    opt_cache.erase(key);
    for (auto it = opt_order.begin(); it != opt_order.end(); ++it) {
      if (*it == key) {
        opt_order.erase(it);
        break;
      }
    }
  }

  /// Normalizes options for fingerprinting.  Cache keys fingerprint the
  /// *effective* partition count: small circuits clamp flow_jobs down (often
  /// to 1), so requests whose clamp coincides produce byte-identical results
  /// and must share one entry.  Grain mode skips the clamp — the grain alone
  /// is the partition shape and flow_jobs never joins its fingerprint.
  static flow_options keyed_options(std::size_t num_gates,
                                    const flow_options& options) {
    flow_options keyed = options;
    if (keyed.opt.partition_grain == 0) {
      keyed.opt.flow_jobs =
          effective_partition_count(num_gates, options.opt.flow_jobs);
    }
    return keyed;
  }

  /// The circuit name joins the circuit half of the key: name-derived
  /// artifacts (result.name, the emit stage's default Verilog module
  /// header) must never be served across two names that happen to
  /// generate content-identical circuits.
  static cache_key full_key_for(std::uint64_t circuit_hash,
                                const std::string& name,
                                const flow_options& keyed) {
    return {hash_mix_str(circuit_hash, name), fingerprint(keyed)};
  }

  /// Replays a cached result's stage timings as from_cache progress events,
  /// substituting this run's (re)generate cost for the cached one.
  static void replay_timings(const flow_result& cached, double generate_ms,
                             const stage_observer& observer) {
    if (!observer) return;
    for (std::size_t i = 0; i < cached.timings.size(); ++i) {
      const stage_timing& t = cached.timings[i];
      const bool is_generate = i == 0 && t.stage == "generate";
      observer({t.stage, i, cached.timings.size(),
                is_generate ? generate_ms : t.ms, t.counters,
                /*from_cache=*/true});
    }
  }

  /// Materializes a cache hit for the by-value entry points: deep-copies,
  /// restores the caller's name, and charges this run's (re)generate cost.
  flow_result finish_hit(const flow_result& cached, const std::string& name,
                         double generate_ms) {
    flow_result r = cached;  // deep copy outside the cache lock
    r.name = name;
    // Charge this run's (re)generate cost; downstream stage timings are
    // the cached run's measurements.
    if (!r.timings.empty() && r.timings.front().stage == "generate") {
      r.total_ms += generate_ms - r.timings.front().ms;
      r.timings.front().ms = generate_ms;
    }
    return r;
  }

  /// Outcome of the shared-ownership core: the (immutable) cache entry plus
  /// whether it was served from a cache tier.  Hits hand back the stored
  /// entry itself — zero copies; the by-value wrappers copy, the daemon
  /// (latency-critical) reads through the pointer.
  struct cached_outcome {
    std::shared_ptr<const flow_result> entry;
    bool hit = false;
  };

  /// The canned paper flow for one entry with every cache tier applied:
  /// in-memory full results, the disk-persistent tier, and the shared-future
  /// optimize tier.  `network` may arrive empty for registry entries whose
  /// content hash is memoized; `generate` then rebuilds it on demand.
  cached_outcome run_cached_core(const std::string& name,
                                 std::uint64_t circuit_hash,
                                 std::size_t num_gates,
                                 const flow_options& options,
                                 std::optional<aig> network,
                                 double generate_ms,
                                 const std::function<aig()>& generate,
                                 const stage_observer& observer) {
    using clock = std::chrono::steady_clock;
    const flow_options keyed = keyed_options(num_gates, options);
    const cache_key full_key = full_key_for(circuit_hash, name, keyed);
    const std::uint64_t mem_start = trace::now_us();
    if (auto cached = lookup_full(full_key)) {
      full_hits.fetch_add(1, std::memory_order_relaxed);
      trace::record("cache.full_hit", mem_start, trace::now_us() - mem_start);
      replay_timings(*cached, generate_ms, observer);
      return {std::move(cached), /*hit=*/true};
    }
    full_misses.fetch_add(1, std::memory_order_relaxed);
    if (disk) {
      const std::uint64_t disk_start = trace::now_us();
      auto loaded = disk->load(full_key.circuit, full_key.options);
      trace::record(loaded ? "cache.disk_hit" : "cache.disk_miss", disk_start,
                    trace::now_us() - disk_start);
      if (loaded) {
        auto entry =
            std::make_shared<const flow_result>(*std::move(loaded));
        store_full(full_key, entry, /*persist=*/false);
        replay_timings(*entry, generate_ms, observer);
        return {std::move(entry), /*hit=*/true};
      }
    }
    if (!network) {  // hash came from the memo or the caller
      const auto start = clock::now();
      network = generate();
      const std::chrono::duration<double, std::milli> elapsed =
          clock::now() - start;
      generate_ms += elapsed.count();
    }

    flow f("synthesis");
    f.add_stage(stages::preset(std::move(*network), name));
    if (options.run_optimize) {
      const cache_key opt_key{circuit_hash, fingerprint(keyed.opt)};
      // Claim happens when the stage *runs* (on a worker), so whichever
      // entry gets there first produces and everyone else — ready or still
      // in flight on a sibling worker — consumes the same result.
      f.add_stage("optimize", [this, opt_key,
                               params = options.opt](flow_context& ctx) {
        opt_claim claim = claim_opt(opt_key);
        if (claim.promise) {  // producer: run the stage and publish
          opt_misses.fetch_add(1, std::memory_order_relaxed);
          try {
            optimize_stats st;
            ctx.network = xsfq::optimize(ctx.network, params, &st);
            ctx.opt = st;
            apply_opt_counters(ctx.counters, st.work);
            claim.promise->set_value(std::make_shared<const opt_entry>(
                opt_entry{ctx.network, st}));
          } catch (...) {
            claim.promise->set_exception(std::current_exception());
            abandon_opt(opt_key);  // let later runs retry
            throw;
          }
        } else {  // consumer: ready result, or wait for the producer
          opt_hits.fetch_add(1, std::memory_order_relaxed);
          const auto entry = claim.future.get();  // rethrows producer errors
          ctx.network = entry->network;
          ctx.opt = entry->stats;
          apply_opt_counters(ctx.counters, entry->stats.work);
        }
      });
    }
    flow_options tail = options;
    tail.run_optimize = false;  // handled above
    f.add_stages(make_synthesis_flow(tail));

    // The preset stage only copies the pre-built network; fold the actual
    // generation cost back into its timing slot.
    flow_result result = f.run(observer);
    if (!result.timings.empty() && result.timings.front().stage == "generate") {
      result.timings.front().ms += generate_ms;
      result.total_ms += generate_ms;
    }
    auto entry = std::make_shared<const flow_result>(std::move(result));
    store_full(full_key, entry, /*persist=*/true);
    return {std::move(entry), /*hit=*/false};
  }

  /// Registry entry point: the benchmark generator is deterministic for the
  /// process lifetime, so its content hash is memoized and repeat hits skip
  /// the (re)generation entirely.
  flow_result run_cached_flow(const std::string& name,
                              const flow_options& caller_options) {
    const flow_options options = with_pool_executor(caller_options);
    if (!cache_enabled.load(std::memory_order_relaxed)) {
      return run_flow(name, options);
    }
    using clock = std::chrono::steady_clock;
    double generate_ms = 0.0;
    std::optional<aig> network;

    std::uint64_t circuit_hash = 0;
    std::size_t num_gates = 0;
    bool have_hash = false;
    {
      std::lock_guard<std::mutex> lock(cache_mutex);
      const auto it = hash_memo.find(name);
      if (it != hash_memo.end()) {
        circuit_hash = it->second.first;
        num_gates = it->second.second;
        have_hash = true;
      }
    }
    if (!have_hash) {
      const auto start = clock::now();
      network = benchgen::make_benchmark(name);
      const std::chrono::duration<double, std::milli> elapsed =
          clock::now() - start;
      generate_ms += elapsed.count();
      circuit_hash = network->content_hash();
      num_gates = network->num_gates();
      std::lock_guard<std::mutex> lock(cache_mutex);
      hash_memo.emplace(name, std::make_pair(circuit_hash, num_gates));
    }
    return materialize(
        run_cached_core(name, circuit_hash, num_gates, options,
                        std::move(network), generate_ms,
                        [&name] { return benchgen::make_benchmark(name); },
                        {}),
        name, generate_ms);
  }

  /// By-value materialization of a core outcome.  Hits pay the same deep
  /// copy finish_hit always made; misses pay one copy out of the stored
  /// entry — exactly the copy store_full used to make, just relocated.
  flow_result materialize(cached_outcome out, const std::string& name,
                          double generate_ms) {
    if (out.hit) return finish_hit(*out.entry, name, generate_ms);
    return *out.entry;
  }

  /// Serving entry point: an already-built network (parsed from a request
  /// payload or a corpus file) with optional per-stage progress streaming.
  /// Shared-ownership return — the daemon renders straight out of the cache
  /// entry, so hit and miss alike move zero flow_results.
  std::shared_ptr<const flow_result> run_cached_network_shared(
      aig network, const std::string& name,
      const flow_options& caller_options, const stage_observer& observer) {
    const flow_options options = with_pool_executor(caller_options);
    if (!cache_enabled.load(std::memory_order_relaxed)) {
      flow f("synthesis");
      f.add_stage(stages::preset(std::move(network), name));
      f.add_stages(make_synthesis_flow(options));
      return std::make_shared<const flow_result>(f.run(observer));
    }
    const std::uint64_t circuit_hash = network.content_hash();
    const std::size_t num_gates = network.num_gates();
    // Every served network is retained (byte-budgeted LRU) so a later
    // synth_delta request can name it by content hash.
    retain_network(circuit_hash, network);
    return run_cached_core(name, circuit_hash, num_gates, options,
                           std::move(network), 0.0, {}, observer)
        .entry;
  }

  flow_result run_cached_network(aig network, const std::string& name,
                                 const flow_options& caller_options,
                                 const stage_observer& observer) {
    const flow_options options = with_pool_executor(caller_options);
    if (!cache_enabled.load(std::memory_order_relaxed)) {
      flow f("synthesis");
      f.add_stage(stages::preset(std::move(network), name));
      f.add_stages(make_synthesis_flow(options));
      return f.run(observer);
    }
    const std::uint64_t circuit_hash = network.content_hash();
    const std::size_t num_gates = network.num_gates();
    retain_network(circuit_hash, network);
    return materialize(run_cached_core(name, circuit_hash, num_gates, options,
                                       std::move(network), 0.0, {}, observer),
                       name, 0.0);
  }

  /// Every tier bypassed: the ECO force-full comparator.  The pool executor
  /// is still installed when asked for (parallelism never changes bytes),
  /// but the region cache is explicitly NOT.
  flow_result run_uncached_network(aig network, const std::string& name,
                                   const flow_options& caller_options,
                                   const stage_observer& observer) {
    flow_options options = with_pool_executor(caller_options);
    options.opt.regions = nullptr;
    flow f("synthesis");
    f.add_stage(stages::preset(std::move(network), name));
    f.add_stages(make_synthesis_flow(options));
    return f.run(observer);
  }
};

batch_runner::batch_runner(unsigned num_threads) : impl_(new impl) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  num_threads_ = num_threads;
  impl_->num_threads = num_threads;
  impl_->queues.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    impl_->queues.push_back(std::make_unique<impl::worker_queue>());
  }
  impl_->workers.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    impl_->workers.emplace_back([this, i] { impl_->worker_loop(i); });
  }
}

batch_runner::~batch_runner() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutting_down = true;
  }
  impl_->work_ready.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

std::uint64_t batch_runner::steals() const {
  return impl_->steal_count.load();
}

std::size_t batch_runner::queue_depth() const {
  return impl_->queued.load(std::memory_order_relaxed);
}

void batch_runner::set_cache_enabled(bool enabled) {
  impl_->cache_enabled.store(enabled);
}

bool batch_runner::cache_enabled() const {
  return impl_->cache_enabled.load();
}

batch_cache_stats batch_runner::cache_stats() const {
  batch_cache_stats s;
  s.full_hits = impl_->full_hits.load();
  s.full_misses = impl_->full_misses.load();
  s.opt_hits = impl_->opt_hits.load();
  s.opt_misses = impl_->opt_misses.load();
  if (impl_->disk) {
    const disk_cache_stats d = impl_->disk->stats();
    s.disk_hits = d.hits;
    s.disk_misses = d.misses;
    s.disk_writes = d.writes;
    s.disk_quarantined = d.quarantined;
    s.disk_quarantine_pruned = d.pruned;
  }
  const region_cache::counters rc = impl_->region_tier.counts();
  s.region_hits = rc.hits;
  s.region_misses = rc.misses;
  s.eco_patches = impl_->eco_patches.load();
  {
    std::lock_guard<std::mutex> lock(impl_->cache_mutex);
    s.retained_networks = impl_->retained.size();
    s.retained_evictions = impl_->retained_evictions;
  }
  return s;
}

std::shared_ptr<const aig> batch_runner::retained_network(
    std::uint64_t content_hash) const {
  std::lock_guard<std::mutex> lock(impl_->cache_mutex);
  const auto it = impl_->retained.find(content_hash);
  if (it == impl_->retained.end()) return nullptr;
  // LRU touch: a base being edited must outlive colder retained entries.
  impl_->retained_lru.splice(impl_->retained_lru.begin(),
                             impl_->retained_lru, it->second.lru_pos);
  return it->second.network;
}

void batch_runner::set_retained_bytes(std::size_t budget) {
  std::lock_guard<std::mutex> lock(impl_->cache_mutex);
  impl_->retained_budget = budget;
  impl_->evict_retained_locked();
}

region_cache& batch_runner::regions() { return impl_->region_tier; }

void batch_runner::patch_entry(std::uint64_t circuit_hash,
                               std::size_t num_gates, const std::string& name,
                               const flow_options& options,
                               const flow_result& result) {
  const flow_options keyed = impl_->keyed_options(num_gates, options);
  const impl::cache_key key =
      impl_->full_key_for(circuit_hash, name, keyed);
  impl_->store_full(key, std::make_shared<const flow_result>(result),
                    /*persist=*/true);
  impl_->eco_patches.fetch_add(1, std::memory_order_relaxed);
}

bool batch_runner::drop_entry(std::uint64_t circuit_hash,
                              std::size_t num_gates, const std::string& name,
                              const flow_options& options) {
  const flow_options keyed = impl_->keyed_options(num_gates, options);
  const impl::cache_key full_key =
      impl_->full_key_for(circuit_hash, name, keyed);
  const impl::cache_key opt_key{circuit_hash, fingerprint(keyed.opt)};
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lock(impl_->cache_mutex);
    if (impl_->full_cache.erase(full_key) > 0) {
      dropped = true;
      for (auto it = impl_->full_order.begin(); it != impl_->full_order.end();
           ++it) {
        if (*it == full_key) {
          impl_->full_order.erase(it);
          break;
        }
      }
    }
    // The optimized-network tier only drops *ready* entries: an in-flight
    // producer still owns its promise and must be left to publish.
    const auto oit = impl_->opt_cache.find(opt_key);
    if (oit != impl_->opt_cache.end() &&
        oit->second.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
      impl_->opt_cache.erase(oit);
      dropped = true;
      for (auto it = impl_->opt_order.begin(); it != impl_->opt_order.end();
           ++it) {
        if (*it == opt_key) {
          impl_->opt_order.erase(it);
          break;
        }
      }
    }
  }
  if (impl_->disk && impl_->disk->drop_entry(full_key.circuit,
                                             full_key.options)) {
    dropped = true;
  }
  if (dropped) impl_->eco_patches.fetch_add(1, std::memory_order_relaxed);
  return dropped;
}

void batch_runner::set_disk_cache(const std::string& directory,
                                  std::size_t max_entries) {
  impl_->disk =
      std::make_unique<disk_result_cache>(directory, max_entries);
}

std::string batch_runner::disk_cache_directory() const {
  return impl_->disk ? impl_->disk->directory() : std::string{};
}

flow_result batch_runner::run_cached(aig network, const std::string& name,
                                     const flow_options& options,
                                     const stage_observer& observer) {
  return impl_->run_cached_network(std::move(network), name, options,
                                   observer);
}

std::shared_ptr<const flow_result> batch_runner::run_cached_shared(
    aig network, const std::string& name, const flow_options& options,
    const stage_observer& observer) {
  return impl_->run_cached_network_shared(std::move(network), name, options,
                                          observer);
}

flow_result batch_runner::run_uncached(aig network, const std::string& name,
                                       const flow_options& options,
                                       const stage_observer& observer) {
  return impl_->run_uncached_network(std::move(network), name, options,
                                     observer);
}

void batch_runner::run_subtasks(std::vector<std::function<void()>> tasks) {
  impl_->run_subtasks(std::move(tasks));
}

void batch_runner::clear_cache() {
  {
    std::lock_guard<std::mutex> lock(impl_->cache_mutex);
    impl_->full_cache.clear();
    impl_->full_order.clear();
    impl_->opt_cache.clear();
    impl_->opt_order.clear();
    impl_->hash_memo.clear();
    impl_->retained.clear();
    impl_->retained_lru.clear();
    impl_->retained_bytes = 0;  // retained_evictions stays cumulative
  }
  impl_->region_tier.clear();
}

batch_report batch_runner::run_jobs(
    std::vector<std::string> names,
    std::vector<std::function<flow_result()>> jobs) {
  if (names.size() != jobs.size()) {
    throw std::invalid_argument("batch_runner: names/jobs size mismatch");
  }
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();

  batch_report report;
  report.threads = num_threads_;
  report.entries.resize(jobs.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    report.entries[i].name = std::move(names[i]);
  }

  // Each worker writes only its own slot; the report is read after
  // wait_idle(), so no further synchronization is needed.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    batch_entry* slot = &report.entries[i];
    std::function<flow_result()> job = std::move(jobs[i]);
    impl_->submit([slot, job = std::move(job)] {
      try {
        slot->result = job();
        slot->ok = true;
      } catch (const std::exception& e) {
        slot->error = e.what();
      } catch (...) {
        slot->error = "unknown exception";
      }
    });
  }
  impl_->wait_idle();

  const std::chrono::duration<double, std::milli> wall = clock::now() - start;
  report.wall_ms = wall.count();
  for (const auto& e : report.entries) {
    if (e.ok) report.flow_ms_sum += e.result.total_ms;
  }
  return report;
}

batch_report batch_runner::run(const std::vector<std::string>& benchmark_names,
                               const flow_options& options) {
  std::vector<std::function<flow_result()>> jobs;
  jobs.reserve(benchmark_names.size());
  for (const auto& name : benchmark_names) {
    jobs.push_back(
        [this, name, options] { return impl_->run_cached_flow(name, options); });
  }
  return run_jobs(benchmark_names, std::move(jobs));
}

batch_report batch_runner::run(
    const std::vector<std::string>& benchmark_names,
    const std::vector<flow_options>& per_entry_options) {
  if (benchmark_names.size() != per_entry_options.size()) {
    throw std::invalid_argument("batch_runner: names/options size mismatch");
  }
  std::vector<std::function<flow_result()>> jobs;
  jobs.reserve(benchmark_names.size());
  for (std::size_t i = 0; i < benchmark_names.size(); ++i) {
    jobs.push_back([this, name = benchmark_names[i],
                    options = per_entry_options[i]] {
      return impl_->run_cached_flow(name, options);
    });
  }
  return run_jobs(benchmark_names, std::move(jobs));
}

batch_report run_batch(const std::vector<std::string>& benchmark_names,
                       const flow_options& options, unsigned num_threads) {
  batch_runner runner(num_threads);
  return runner.run(benchmark_names, options);
}

}  // namespace xsfq::flow
