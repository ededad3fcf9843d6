#pragma once
/// \file disk_cache.hpp
/// \brief Disk-persistent tier of the batch_runner result cache.
///
/// One directory holds one file per cached flow_result, named by the cache
/// key (`<circuit-hex>-<options-hex>.xfr`).  The format is versioned and
/// self-checking: a magic tag, the format version, the key the entry was
/// stored under, and the serialized result (whose embedded AIG content hash
/// is re-verified on load).  Any mismatch — wrong version after an upgrade,
/// truncation from a crashed writer that somehow survived the atomic rename,
/// plain corruption — reads as a miss and the offending file is moved into
/// a `quarantine/` subdirectory (reason-tagged, e.g. `...xfr.bad_magic`)
/// rather than deleted: corruption in a persistent cache is evidence of a
/// bug or failing storage, and an operator must be able to inspect the bytes
/// after the fact (docs/operations.md, "Failure modes and recovery").
///
/// Writes go to a `.tmp.<pid>` sibling and are renamed into place, so a
/// reader never observes a half-written entry and concurrent daemons sharing
/// a directory at worst overwrite each other with identical bytes.  Eviction
/// is by file modification time: when the entry count exceeds the cap after
/// a store, the oldest entries are pruned down to 7/8 of the cap (the
/// low-water mark), so the directory scan a prune costs is paid once per
/// cap/8 stores, not on every store at the cap.
///
/// Construction runs a recovery scan: every entry's header (magic, format
/// version, embedded keys vs the filename) is verified and mismatches are
/// quarantined up front, and temp files orphaned by a crashed writer are
/// quarantined once they are old enough to rule out a live sibling writer.
/// The write path carries fault-injection sites (`disk_cache.write.short`,
/// `disk_cache.write.enospc`, `disk_cache.rename.crash_before`,
/// `disk_cache.rename.crash_after` — util/fault.hpp) so chaos drills can
/// prove all of the above without a real crash or a full disk.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "flow/flow.hpp"

namespace xsfq::flow {

struct disk_cache_stats {
  std::uint64_t hits = 0;       ///< entries loaded and verified
  std::uint64_t misses = 0;     ///< absent, stale-version, or corrupt entries
  std::uint64_t writes = 0;     ///< entries persisted
  std::uint64_t evictions = 0;  ///< entries pruned by the size cap
  std::uint64_t drops = 0;      ///< entries removed by drop_entry (ECO)
  /// Undecodable entries and orphaned temp files moved to quarantine/
  /// (startup recovery scan + load-time verification).
  std::uint64_t quarantined = 0;
  /// v7: quarantined files removed (oldest first) to keep quarantine/
  /// inside its count/byte bounds — a corruption storm must not be able to
  /// fill the disk with evidence.
  std::uint64_t pruned = 0;
};

class disk_result_cache {
 public:
  /// Current on-disk format.  Bump whenever the serialized layout of
  /// flow_result (result_io.cpp) changes; older entries then read as misses.
  // v2: opt/stage counters gained net_arena_bytes + rebuilds_avoided (PR 5);
  // v1 entries are auto-dropped as stale-version misses.
  static constexpr std::uint32_t format_version = 2;

  /// Creates the directory if needed.  Throws std::runtime_error when the
  /// directory cannot be created or is not writable.
  explicit disk_result_cache(std::string directory,
                             std::size_t max_entries = 1024);

  /// Loads and verifies the entry for (circuit_key, options_key); nullopt on
  /// any miss.  Thread-safe.
  std::optional<flow_result> load(std::uint64_t circuit_key,
                                  std::uint64_t options_key);

  /// Persists `result` under the key (atomic rename; prunes over-cap
  /// entries).  IO errors are swallowed — the cache is an accelerator, never
  /// a correctness dependency.  Thread-safe.
  void store(std::uint64_t circuit_key, std::uint64_t options_key,
             const flow_result& result);

  /// Removes the entry for (circuit_key, options_key) if present; returns
  /// whether a file was removed.  The ECO supersede path drops the base
  /// circuit's entry here so a stale result cannot outlive its edit.
  /// Thread-safe; IO errors read as "nothing dropped".
  bool drop_entry(std::uint64_t circuit_key, std::uint64_t options_key);

  disk_cache_stats stats() const;
  const std::string& directory() const { return directory_; }
  std::size_t max_entries() const { return max_entries_; }
  /// Entries a prune leaves behind: max_entries - max_entries/8.
  std::size_t low_water_mark() const {
    return max_entries_ - max_entries_ / 8;
  }
  /// Where undecodable entries end up (`<directory>/quarantine`); the
  /// directory is created lazily on first quarantine.
  std::string quarantine_directory() const;

  /// v7: bounds on quarantine/ — keeping the newest evidence is enough for
  /// an operator to diagnose a corruption storm; the oldest files go first
  /// once either cap is exceeded (counted in stats().pruned).
  static constexpr std::size_t max_quarantine_entries = 64;
  static constexpr std::uintmax_t max_quarantine_bytes = 64u << 20;

 private:
  std::string entry_path(std::uint64_t circuit_key,
                         std::uint64_t options_key) const;
  /// Moves `path` into quarantine/ with a `.reason` suffix (falls back to
  /// removal when the move fails — a poisoned entry must never be served).
  /// Returns whether the file is gone from the live directory.
  bool quarantine_file(const std::string& path, const char* reason);
  /// Enforces the quarantine/ count+byte caps (oldest-first).  Called after
  /// every successful quarantine; takes mutex_ only to bump stats_.pruned.
  void prune_quarantine();
  void recovery_scan();
  void prune_locked();

  std::string directory_;
  std::size_t max_entries_;
  mutable std::mutex mutex_;
  disk_cache_stats stats_;
  /// Approximate .xfr count (exact after every prune scan); overwrites of
  /// an existing key may overcount, which only causes an early prune scan
  /// that re-synchronizes it.  Keeps store() from rescanning the directory
  /// until the cap is plausibly exceeded.
  std::size_t entry_count_ = 0;
};

}  // namespace xsfq::flow
