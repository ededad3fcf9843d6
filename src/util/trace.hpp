#pragma once
/// \file trace.hpp
/// \brief Always-on flight recorder + per-request trace collection.
///
/// Two layers, one record() call:
///
///  1. **Flight recorder** — every span lands in a lock-free fixed-size
///     ring owned by the recording thread.  The ring is ALWAYS on: the
///     write is an interned-name lookup plus a handful of relaxed atomic
///     stores (no locks, no allocation after the first span on a thread),
///     the same cost contract as util/fault.hpp's unarmed sites — pinned by
///     the perf gate.  SIGUSR1 on the daemon (or trace::dump_chrome_trace)
///     snapshots every live ring plus the retired ring into Chrome
///     trace-event JSON loadable in Perfetto, so "what was this process
///     doing just now?" is answerable after the fact with zero setup.
///     Overwritten entries are counted (`spans_dropped`) so overflow is
///     visible in the metrics scrape rather than silent.
///
///  2. **Per-request collection** — when the calling thread carries a
///     valid (non-zero) trace context (the 16-byte trace_id a v6 client
///     sent on submit/synth_delta), the span is additionally appended to a
///     bounded per-trace collector, which the server's `trace` request
///     reads back to the client for the per-stage waterfall.  Untraced
///     traffic never touches the collector or its lock.
///
/// Context propagates by thread: the server's handler installs a
/// context_scope per request and runs the flow on that thread, and the
/// partitioned optimize captures current() into the region tasks it hands
/// the pool, so spans recorded on pool threads attribute to the right
/// request.
///
/// Snapshot safety: slots are seqlock-stamped (odd = mid-write) and every
/// field is a relaxed atomic, so a cross-thread snapshot is race-free and
/// simply skips the (at most one) slot being rewritten.  Span names are
/// interned `const char*`s so a slot is a fixed-size, pointer-stable
/// record; the intern table only ever grows (span names are a small
/// closed-ish vocabulary: "queue_wait", "stage:optimize", ...).

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace xsfq::trace {

/// 16-byte request trace identifier (client-generated, 0/0 = untraced).
struct trace_id {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  bool valid() const { return (hi | lo) != 0; }
  bool operator==(const trace_id&) const = default;
};

/// 32 lowercase hex digits (hi then lo) — the form logs and JSON carry.
std::string to_hex(trace_id id);
/// Inverse of to_hex; accepts exactly 32 hex digits.  Returns false (and
/// leaves `out` alone) on anything else.
bool from_hex(std::string_view text, trace_id& out);

/// Microseconds since an arbitrary process-wide steady epoch.  All spans
/// and the Chrome JSON `ts` field share this clock, so cross-thread spans
/// line up on one timeline.
std::uint64_t now_us();

/// A completed span, as read back out of the recorder.
struct span {
  trace_id id;        ///< 0/0 for untraced background work
  std::string name;   ///< interned site name ("queue_wait", "stage:map", ...)
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;  ///< recording thread, stable per thread
};

// ---------------------------------------------------------------------------
// Recording.
// ---------------------------------------------------------------------------

/// Records one completed span against the calling thread's current trace
/// context.  Always lands in the flight-recorder ring; additionally lands
/// in the per-trace collector when the context is valid.
void record(std::string_view name, std::uint64_t start_us,
            std::uint64_t dur_us);

/// As record(), but against an explicit id instead of the thread context
/// (used where the owning request is known but the context is not
/// installed, e.g. the server's send path after the scope closed).
void record_for(trace_id id, std::string_view name, std::uint64_t start_us,
                std::uint64_t dur_us);

/// RAII span: stamps start at construction, records at destruction.
class scoped_span {
 public:
  explicit scoped_span(std::string_view name)
      : name_(name), start_us_(now_us()) {}
  ~scoped_span();
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  std::string_view name_;
  std::uint64_t start_us_;
};

// ---------------------------------------------------------------------------
// Thread context.
// ---------------------------------------------------------------------------

/// The calling thread's current trace context (0/0 when none installed).
trace_id current();
void set_current(trace_id id);

/// RAII context install/restore.  The server's request handler and the
/// batch_runner job wrapper bracket work with one of these.
class context_scope {
 public:
  explicit context_scope(trace_id id) : saved_(current()) { set_current(id); }
  ~context_scope() { set_current(saved_); }
  context_scope(const context_scope&) = delete;
  context_scope& operator=(const context_scope&) = delete;

 private:
  trace_id saved_;
};

// ---------------------------------------------------------------------------
// Reading back.
// ---------------------------------------------------------------------------

/// Spans collected for one trace id, sorted by start time.  Empty when the
/// id is unknown (never seen, or evicted by newer traces).
std::vector<span> collected(trace_id id);

/// Flight-recorder snapshot: every stable slot of every live ring plus the
/// retired ring (spans from threads that have exited), sorted by start.
std::vector<span> snapshot();

/// Cumulative counters (process lifetime, all threads).
std::uint64_t spans_recorded();
/// Ring slots overwritten before any snapshot saw them + collector
/// evictions — the "your window was too small" signal.
std::uint64_t spans_dropped();

// ---------------------------------------------------------------------------
// Export.
// ---------------------------------------------------------------------------

/// Chrome trace-event JSON (the Perfetto/about:tracing "X" complete-event
/// form): {"traceEvents":[{"name":..,"ph":"X","ts":..,"dur":..,"pid":..,
/// "tid":..,"args":{"trace_id":"..hex.."}},...]}.
std::string chrome_trace_json(const std::vector<span>& spans);

/// snapshot() -> chrome_trace_json -> atomic write (tmp + rename) to
/// `path`.  Returns false on I/O failure; never throws (callable from the
/// daemon's signal-handling thread).
bool dump_chrome_trace(const std::string& path);

}  // namespace xsfq::trace
