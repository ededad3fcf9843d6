#pragma once
/// \file admission.hpp
/// \brief Bounded, priority-ordered admission control for the serving path.
///
/// One `admission_queue` sits between the connection handlers and the
/// batch_runner: a request must acquire a slot before it does work (builds
/// its circuit, loads from the disk tier or runs a flow stage); a repeat
/// answered from the request memo and the memory tier takes none.  At most
/// `max_inflight` requests execute at once; up to `max_queue` more wait in
/// priority order (highest `priority` first, FIFO within a priority);
/// anything beyond that is rejected immediately with `overloaded` instead
/// of accepting unbounded work.  A waiting request
/// whose relative deadline passes before a slot frees is failed with
/// `deadline_expired` without ever reaching the worker pool.
///
/// The queue never touches the work itself — callers run their job between
/// acquire() and release() — so it composes with any executor.  All methods
/// are thread-safe; acquire() blocks the calling (connection-handler)
/// thread, which is exactly the backpressure a per-connection transport
/// wants.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>
#include <tuple>

namespace xsfq::serve {

/// Counters and gauges of one admission_queue, snapshot atomically.
struct admission_stats {
  std::uint64_t accepted = 0;           ///< acquire() calls that admitted
  std::uint64_t rejected_overload = 0;  ///< bounced: queue was full
  std::uint64_t rejected_deadline = 0;  ///< expired while waiting
  std::uint64_t peak_queue_depth = 0;   ///< high-water mark of waiters
  std::size_t queue_depth = 0;          ///< waiters right now
  std::size_t inflight = 0;             ///< admitted and not yet released
  std::size_t max_queue = 0;            ///< configured bound
  std::size_t max_inflight = 0;         ///< configured bound
};

class admission_queue {
 public:
  enum class verdict : std::uint8_t {
    admitted,          ///< caller owns a slot; must call release()
    overloaded,        ///< queue full at arrival; nothing to release
    deadline_expired,  ///< deadline passed while queued; nothing to release
  };

  /// Outcome of one acquire() call.  `queued_ms` is the wall-clock the
  /// request spent waiting for its slot (0 for an immediate admit).
  struct ticket {
    verdict outcome = verdict::overloaded;
    double queued_ms = 0.0;
  };

  /// \param max_queue     waiters allowed beyond the in-flight set; arrivals
  ///                      beyond it are bounced as overloaded.
  /// \param max_inflight  concurrently admitted requests (>= 1).
  admission_queue(std::size_t max_queue, std::size_t max_inflight);

  /// Blocks until a slot is free (priority-ordered), the deadline passes,
  /// or the queue bound rejects the request outright.  `priority` is
  /// 0..255, higher first; `deadline_ms` is relative to now, 0 = none.
  /// An admitted caller MUST call release() when its work finishes.
  [[nodiscard]] ticket acquire(unsigned priority, double deadline_ms);

  /// Returns an admitted slot; wakes the best waiting request, if any.
  void release();

  [[nodiscard]] admission_stats snapshot() const;

 private:
  // Waiters ordered best-first: highest priority, then earliest arrival.
  // (255 - priority, seq) ascending puts the next admit at begin().
  using waiter_key = std::tuple<unsigned, std::uint64_t>;

  mutable std::mutex mutex_;
  std::condition_variable slot_free_;
  std::set<waiter_key> waiters_;
  std::size_t inflight_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t max_queue_;
  std::size_t max_inflight_;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_overload_ = 0;
  std::uint64_t rejected_deadline_ = 0;
  std::uint64_t peak_queue_depth_ = 0;
};

}  // namespace xsfq::serve
