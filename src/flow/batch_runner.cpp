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
// Worker pool (one FIFO of offered claim loops) and cross-run result cache.
// ---------------------------------------------------------------------------

struct batch_runner::impl {
  // ----- pool ---------------------------------------------------------------

  unsigned num_threads = 1;  ///< mirror of the owner's worker count
  mutable std::mutex mutex;  ///< guards offers and shutting_down
  std::condition_variable work_ready;
  /// Claim loops offered by run_subtasks, taken front-first by idle workers.
  std::deque<std::function<void()>> offers;
  bool shutting_down = false;
  std::vector<std::thread> workers;

  void worker_loop() {
    for (;;) {
      std::function<void()> offer;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_ready.wait(lock,
                        [this] { return shutting_down || !offers.empty(); });
        if (offers.empty()) return;  // shutting down, nothing left to run
        offer = std::move(offers.front());
        offers.pop_front();
      }
      offer();
    }
  }

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
    // Offer at most one claim loop per *other* worker: with the caller
    // claiming too, at most num_threads tasks of the group run at once.
    // Each loop drains the cursor until the group is empty, so surplus tasks
    // spread over however many workers are actually free, and the caller
    // claims whatever nobody picked up.
    const std::size_t helpers = std::min<std::size_t>(n - 1, num_threads - 1);
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (std::size_t i = 0; i < helpers; ++i) {
        offers.emplace_back([group] {
          while (group->run_next()) {
          }
        });
      }
    }
    for (std::size_t i = 0; i < helpers; ++i) work_ready.notify_one();
    while (group->run_next()) {
    }
    std::unique_lock<std::mutex> lock(group->m);
    group->cv.wait(lock, [&] { return group->done.load() == n; });
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

  /// Refreshes the LRU position of a retained network; false when the tier
  /// does not hold it.
  bool touch_retained(std::uint64_t content_hash) {
    std::lock_guard<std::mutex> lock(cache_mutex);
    const auto it = retained.find(content_hash);
    if (it == retained.end()) return false;
    retained_lru.splice(retained_lru.begin(), retained_lru, it->second.lru_pos);
    return true;
  }

  void retain_network(std::uint64_t content_hash, const aig& network) {
    if (touch_retained(content_hash)) return;
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

  /// Request memo: the exact source bytes of requests served from a result
  /// tier, mapped to their circuit facts.  An LRU under a byte bound.  A
  /// hit compares the stored bytes, so two sources that share a hash never
  /// share facts; the newer of two such sources replaces the older.
  struct memo_entry {
    std::uint64_t hash = 0;
    std::uint8_t kind = 0;
    std::string bytes;
    circuit_facts facts;
  };
  /// Per-entry bookkeeping counted against the bound beside the bytes: the
  /// entry, its list node and its index node.
  static constexpr std::size_t memo_overhead = sizeof(memo_entry) + 64;
  std::mutex memo_mutex;
  std::list<memo_entry> memo_lru;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<memo_entry>::iterator>
      memo_index;
  std::size_t memo_bytes = 0;
  std::atomic<std::uint64_t> request_hits{0};

  static std::uint64_t source_hash(const request_source& source) {
    return hash_mix(std::hash<std::string_view>{}(source.bytes), source.kind);
  }

  std::optional<circuit_facts> recall(std::uint64_t hash,
                                      const request_source& source) {
    std::lock_guard<std::mutex> lock(memo_mutex);
    const auto it = memo_index.find(hash);
    if (it == memo_index.end()) return std::nullopt;
    const memo_entry& e = *it->second;
    if (e.kind != source.kind || e.bytes != source.bytes) return std::nullopt;
    memo_lru.splice(memo_lru.begin(), memo_lru, it->second);
    return e.facts;
  }

  void forget_locked(std::list<memo_entry>::iterator it) {
    memo_bytes -= memo_overhead + it->bytes.size();
    memo_index.erase(it->hash);
    memo_lru.erase(it);
  }

  void remember(std::uint64_t hash, const request_source& source,
                const circuit_facts& facts) {
    const std::size_t cost = memo_overhead + source.bytes.size();
    if (cost > batch_runner::max_request_memo_bytes) return;
    std::string bytes(source.bytes);  // the copy happens outside the lock
    std::lock_guard<std::mutex> lock(memo_mutex);
    if (const auto it = memo_index.find(hash); it != memo_index.end()) {
      forget_locked(it->second);
    }
    memo_lru.push_front({hash, source.kind, std::move(bytes), facts});
    memo_index.emplace(hash, memo_lru.begin());
    memo_bytes += cost;
    while (memo_bytes > batch_runner::max_request_memo_bytes) {
      forget_locked(std::prev(memo_lru.end()));
    }
  }

  /// The stored result for `key` from memory, else from the disk tier
  /// (promoted into memory), else nullptr.  `before_disk` (optional) runs
  /// right before the disk tier is read.
  std::shared_ptr<const flow_result> find_stored(
      const cache_key& key, const std::function<void()>& before_disk = {}) {
    const std::uint64_t mem_start = trace::now_us();
    std::shared_ptr<const flow_result> entry;
    {
      std::lock_guard<std::mutex> lock(cache_mutex);
      const auto it = full_cache.find(key);
      if (it != full_cache.end()) entry = it->second;
    }
    if (entry) {
      full_hits.fetch_add(1, std::memory_order_relaxed);
      trace::record("cache.full_hit", mem_start, trace::now_us() - mem_start);
      return entry;
    }
    full_misses.fetch_add(1, std::memory_order_relaxed);
    if (!disk) return nullptr;
    if (before_disk) before_disk();
    const std::uint64_t disk_start = trace::now_us();
    auto loaded = disk->load(key.circuit, key.options);
    trace::record(loaded ? "cache.disk_hit" : "cache.disk_miss", disk_start,
                  trace::now_us() - disk_start);
    if (!loaded) return nullptr;
    entry = std::make_shared<const flow_result>(*std::move(loaded));
    store_full(key, entry, /*persist=*/false);
    return entry;
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
    std::erase(opt_order, key);
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

  /// Which cache tiers one flow uses.  `retained` is `results` plus the
  /// retained-network tier, which keeps the network for a later synth_delta.
  enum class tiers { none, results, retained };

  /// The options a flow runs under: the pool serves a partitioned optimize,
  /// and a cached grain-mode flow gets the region cache.  With no tiers,
  /// there is no region cache either: a cold run of exactly this circuit.
  /// Neither joins the fingerprint, because both change wall-clock only.
  flow_options run_options(const flow_options& caller, bool cached,
                           tiers use) {
    flow_options options = caller;
    if (options.opt.flow_jobs > 1 && !options.opt.executor) {
      options.opt.executor = [this](std::vector<std::function<void()>>&& t) {
        run_subtasks(std::move(t));
      };
    }
    if (use == tiers::none) {
      options.opt.regions = nullptr;
    } else if (cached && options.opt.partition_grain > 0 &&
               options.opt.regions == nullptr) {
      options.opt.regions = &region_tier;
    }
    return options;
  }

  /// The result-tier and optimize-tier keys of (circuit, name, options).
  struct flow_keys {
    cache_key full;
    cache_key opt;
  };
  static flow_keys keys_for(std::uint64_t circuit_hash, std::size_t num_gates,
                            const std::string& name,
                            const flow_options& options) {
    const flow_options keyed = keyed_options(num_gates, options);
    return {full_key_for(circuit_hash, name, keyed),
            {circuit_hash, fingerprint(keyed.opt)}};
  }

  /// A stored result, its timings replayed unchanged through the observer
  /// with from_cache=true.
  static std::shared_ptr<const flow_result> replay(
      std::shared_ptr<const flow_result> entry,
      const stage_observer& observer) {
    const auto total = static_cast<std::uint32_t>(entry->timings.size());
    for (std::uint32_t i = 0; observer && i < total; ++i) {
      const stage_timing& t = entry->timings[i];
      observer({t.stage, i, total, t.ms, t.counters, /*from_cache=*/true});
    }
    return entry;
  }

  /// Runs the flow on the calling thread.  With `keys`, the shared-future
  /// optimize tier is its optimize hook and the result is stored; without,
  /// nothing is looked up or stored.
  std::shared_ptr<const flow_result> compute(aig network,
                                             const std::string& name,
                                             const flow_options& options,
                                             const stage_observer& observer,
                                             const flow_keys* keys) {
    // The claim happens when the optimize stage *runs*, so whichever flow
    // gets there first produces and everyone else — ready or still in
    // flight on another thread — consumes the same result.
    optimize_fn optimize;
    if (keys) {
      optimize = [this, keys, &options](aig& net) {
        opt_claim claim = claim_opt(keys->opt);
        if (!claim.promise) {  // consumer: ready result, or wait for it
          opt_hits.fetch_add(1, std::memory_order_relaxed);
          const auto entry = claim.future.get();  // rethrows producer errors
          net = entry->network;
          return entry->stats;
        }
        opt_misses.fetch_add(1, std::memory_order_relaxed);
        try {  // producer: run the stage and publish
          optimize_stats st;
          net = xsfq::optimize(net, options.opt, &st);
          claim.promise->set_value(
              std::make_shared<const opt_entry>(opt_entry{net, st}));
          return st;
        } catch (...) {
          claim.promise->set_exception(std::current_exception());
          abandon_opt(keys->opt);  // let later runs retry
          throw;
        }
      };
    }
    auto entry = std::make_shared<const flow_result>(
        run_flow(std::move(network), name, options, observer, optimize));
    if (keys) store_full(keys->full, entry, /*persist=*/true);
    return entry;
  }

  /// The cached flow over a network whose content hash is known: retain
  /// the network (when asked), then a memory or disk hit returns the stored
  /// entry itself and sets `stored`; a miss computes and stores the result.
  std::shared_ptr<const flow_result> run_built(
      aig network, std::uint64_t circuit_hash, const std::string& name,
      const flow_options& options, const stage_observer& observer,
      bool retain, bool& stored) {
    if (retain) retain_network(circuit_hash, network);
    const flow_keys keys =
        keys_for(circuit_hash, network.num_gates(), name, options);
    if (auto entry = find_stored(keys.full)) {
      stored = true;
      return replay(std::move(entry), observer);
    }
    return compute(std::move(network), name, options, observer, &keys);
  }

  /// The one flow path over an already-built network, on the calling
  /// thread, with the given tiers when the cache is enabled.
  std::shared_ptr<const flow_result> run(aig network, const std::string& name,
                                         const flow_options& caller_options,
                                         const stage_observer& observer,
                                         tiers use) {
    const bool cached =
        use != tiers::none && cache_enabled.load(std::memory_order_relaxed);
    const flow_options options = run_options(caller_options, cached, use);
    if (!cached) {
      return compute(std::move(network), name, options, observer, nullptr);
    }
    const std::uint64_t circuit_hash = network.content_hash();
    bool stored = false;
    return run_built(std::move(network), circuit_hash, name, options, observer,
                     use == tiers::retained, stored);
  }

  /// batch_runner::run_request: the memo in front of run_built.
  std::shared_ptr<const flow_result> run_request(
      const request_source& source, const std::function<aig()>& build,
      const std::string& name, const flow_options& caller_options,
      const stage_observer& observer, circuit_facts& facts,
      const std::function<void()>& admit) {
    // Runs `admit` once, before the first step that is more than a memo or
    // memory-tier lookup.
    bool admitted = false;
    const std::function<void()> work = [&] {
      if (!std::exchange(admitted, true) && admit) admit();
    };
    const bool cached = cache_enabled.load(std::memory_order_relaxed);
    const flow_options options =
        run_options(caller_options, cached, tiers::retained);
    if (!cached) {
      work();
      aig network = build();
      facts = circuit_facts::of(network);
      return compute(std::move(network), name, options, observer, nullptr);
    }
    const std::uint64_t start = trace::now_us();
    const std::uint64_t hash = source_hash(source);
    if (const std::optional<circuit_facts> known = recall(hash, source)) {
      request_hits.fetch_add(1, std::memory_order_relaxed);
      trace::record("cache.request_hit", start, trace::now_us() - start);
      facts = *known;
      // A hit refreshes a retained network; it cannot restore one.
      touch_retained(facts.content_hash);
      const flow_keys keys =
          keys_for(facts.content_hash, facts.gates, name, options);
      if (auto entry = find_stored(keys.full, work)) {
        return replay(std::move(entry), observer);
      }
      // The result left both tiers: this request has made its one lookup,
      // so it builds and recomputes without another.
      work();
      aig network = build();
      retain_network(facts.content_hash, network);
      return compute(std::move(network), name, options, observer, &keys);
    }
    work();
    aig network = build();
    facts = circuit_facts::of(network);
    bool stored = false;
    auto entry = run_built(std::move(network), facts.content_hash, name,
                           options, observer, /*retain=*/true, stored);
    if (stored) remember(hash, source, facts);
    return entry;
  }
};

circuit_facts circuit_facts::of(const aig& network) {
  return {network.content_hash(), network.num_pis(), network.num_pos(),
          network.num_registers(), network.num_gates()};
}

batch_runner::batch_runner(unsigned num_threads) : impl_(new impl) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  num_threads_ = num_threads;
  impl_->num_threads = num_threads;
  // One thread is the caller itself: run_subtasks then never offers work.
  if (num_threads == 1) return;
  impl_->workers.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
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

std::size_t batch_runner::queue_depth() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->offers.size();
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
  s.request_hits = impl_->request_hits.load();
  {
    std::lock_guard<std::mutex> lock(impl_->memo_mutex);
    s.request_entries = impl_->memo_lru.size();
    s.request_bytes = impl_->memo_bytes;
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

bool batch_runner::drop_entry(std::uint64_t circuit_hash,
                              std::size_t num_gates, const std::string& name,
                              const flow_options& options) {
  const auto [full_key, opt_key] =
      impl::keys_for(circuit_hash, num_gates, name, options);
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lock(impl_->cache_mutex);
    if (impl_->full_cache.erase(full_key) > 0) {
      dropped = true;
      std::erase(impl_->full_order, full_key);
    }
    // The optimized-network tier only drops *ready* entries: an in-flight
    // producer still owns its promise and must be left to publish.
    const auto oit = impl_->opt_cache.find(opt_key);
    if (oit != impl_->opt_cache.end() &&
        oit->second.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
      impl_->opt_cache.erase(oit);
      std::erase(impl_->opt_order, opt_key);
      dropped = true;
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
  return *run_cached_shared(std::move(network), name, options, observer);
}

std::shared_ptr<const flow_result> batch_runner::run_cached_shared(
    aig network, const std::string& name, const flow_options& options,
    const stage_observer& observer) {
  return impl_->run(std::move(network), name, options, observer,
                    impl::tiers::retained);
}

std::shared_ptr<const flow_result> batch_runner::run_request(
    const request_source& source, const std::function<aig()>& build,
    const std::string& name, const flow_options& options,
    const stage_observer& observer, circuit_facts& facts,
    const std::function<void()>& admit) {
  return impl_->run_request(source, build, name, options, observer, facts,
                            admit);
}

flow_result batch_runner::run_uncached(aig network, const std::string& name,
                                       const flow_options& options,
                                       const stage_observer& observer) {
  return *impl_->run(std::move(network), name, options, observer,
                     impl::tiers::none);
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
    impl_->retained.clear();
    impl_->retained_lru.clear();
    impl_->retained_bytes = 0;  // retained_evictions stays cumulative
  }
  {
    std::lock_guard<std::mutex> lock(impl_->memo_mutex);
    impl_->memo_lru.clear();
    impl_->memo_index.clear();
    impl_->memo_bytes = 0;  // request_hits stays cumulative
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
  // Each task writes only its own slot, and run_subtasks returns after the
  // last task finished, so the report needs no further synchronization.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    batch_entry& slot = report.entries[i];
    slot.name = std::move(names[i]);
    tasks.push_back([&slot, job = std::move(jobs[i])] {
      const auto job_start = clock::now();
      try {
        slot.result = job();
        slot.ok = true;
      } catch (const std::exception& e) {
        slot.error = e.what();
      } catch (...) {
        slot.error = "unknown exception";
      }
      slot.wall_ms =
          std::chrono::duration<double, std::milli>(clock::now() - job_start)
              .count();
    });
  }
  impl_->run_subtasks(std::move(tasks));

  const std::chrono::duration<double, std::milli> wall = clock::now() - start;
  report.wall_ms = wall.count();
  for (const auto& e : report.entries) report.flow_ms_sum += e.wall_ms;
  return report;
}

batch_report batch_runner::run(const std::vector<std::string>& benchmark_names,
                               const flow_options& options) {
  return run(benchmark_names,
             std::vector<flow_options>(benchmark_names.size(), options));
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
      return *impl_->run(benchgen::make_benchmark(name), name, options, {},
                         impl::tiers::results);
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
