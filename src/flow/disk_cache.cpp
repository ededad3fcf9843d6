#include "flow/disk_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

#include "flow/result_io.hpp"
#include "util/fault.hpp"

namespace xsfq::flow {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t cache_magic = 0x43524658u;  // "XFRC" little-endian
constexpr const char* entry_suffix = ".xfr";

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Parses the `<circuit-hex>-<options-hex>.xfr` filename back into its keys;
/// false for anything that does not match the naming scheme.
bool parse_entry_name(const std::string& name, std::uint64_t& circuit_key,
                      std::uint64_t& options_key) {
  if (name.size() != 16 + 1 + 16 + 4 || name[16] != '-' ||
      name.substr(33) != entry_suffix) {
    return false;
  }
  char* end = nullptr;
  const std::string circuit_hex = name.substr(0, 16);
  const std::string options_hex = name.substr(17, 16);
  circuit_key = std::strtoull(circuit_hex.c_str(), &end, 16);
  if (end != circuit_hex.c_str() + 16) return false;
  options_key = std::strtoull(options_hex.c_str(), &end, 16);
  return end == options_hex.c_str() + 16;
}

}  // namespace

disk_result_cache::disk_result_cache(std::string directory,
                                     std::size_t max_entries)
    : directory_(std::move(directory)), max_entries_(max_entries) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec || !fs::is_directory(directory_)) {
    throw std::runtime_error("disk_result_cache: cannot create directory " +
                             directory_);
  }
  recovery_scan();
}

std::string disk_result_cache::quarantine_directory() const {
  return directory_ + "/quarantine";
}

bool disk_result_cache::quarantine_file(const std::string& path,
                                        const char* reason) {
  std::error_code ec;
  fs::create_directories(quarantine_directory(), ec);
  const std::string dest = quarantine_directory() + "/" +
                           fs::path(path).filename().string() + "." + reason;
  fs::rename(path, dest, ec);
  if (ec) {
    // Quarantine is best-effort (the subdirectory may be unwritable); the
    // poisoned file must still never be served, so fall back to removal.
    ec.clear();
    fs::remove(path, ec);
    return !ec;
  }
  prune_quarantine();
  return true;
}

void disk_result_cache::prune_quarantine() {
  // Oldest-first removal until quarantine/ fits both caps.  Best-effort
  // like every other cache IO path: iteration or removal failing just
  // leaves more evidence on disk than intended.
  struct candidate {
    fs::path path;
    fs::file_time_type mtime;
    std::uintmax_t bytes;
  };
  std::vector<candidate> files;
  std::uintmax_t total_bytes = 0;
  try {
    std::error_code ec;
    for (const auto& de : fs::directory_iterator(quarantine_directory(), ec)) {
      if (ec) break;
      std::error_code fec;
      if (!de.is_regular_file(fec) || fec) continue;
      const std::uintmax_t bytes = de.file_size(fec);
      if (fec) continue;
      const fs::file_time_type mtime = de.last_write_time(fec);
      if (fec) continue;
      files.push_back({de.path(), mtime, bytes});
      total_bytes += bytes;
    }
  } catch (const fs::filesystem_error&) {
    return;
  }
  if (files.size() <= max_quarantine_entries &&
      total_bytes <= max_quarantine_bytes) {
    return;
  }
  std::sort(files.begin(), files.end(),
            [](const candidate& a, const candidate& b) {
              return a.mtime < b.mtime;
            });
  std::uint64_t removed = 0;
  std::size_t remaining = files.size();
  for (const candidate& c : files) {
    if (remaining <= max_quarantine_entries &&
        total_bytes <= max_quarantine_bytes) {
      break;
    }
    std::error_code ec;
    if (fs::remove(c.path, ec) && !ec) {
      ++removed;
      --remaining;
      total_bytes -= c.bytes;
    }
  }
  if (removed != 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.pruned += removed;
  }
}

void disk_result_cache::recovery_scan() {
  // Verify every entry's header up front and quarantine mismatches, so a
  // restart after a crash (or a format upgrade) starts from a directory
  // where every .xfr file is structurally sound.  Temp files orphaned by a
  // crashed writer are quarantined too — only once they are at least an
  // hour old, since a sibling process may legitimately be mid-store right
  // now.  Iteration over a shared directory can itself throw (entries
  // vanishing under a concurrent daemon); the scan is best-effort like
  // every other cache IO path.
  try {
    const auto cutoff =
        fs::file_time_type::clock::now() - std::chrono::hours(1);
    std::error_code ec;
    for (const auto& de : fs::directory_iterator(directory_, ec)) {
      if (ec) break;
      const std::string name = de.path().filename().string();
      if (de.path().extension() == entry_suffix) {
        std::uint64_t circuit_key = 0, options_key = 0;
        const char* reason = nullptr;
        if (!parse_entry_name(name, circuit_key, options_key)) {
          reason = "bad_name";
        } else {
          // Only the 24-byte prologue is read here; full payload
          // verification (content hash, expect_done) stays on the load
          // path so startup cost is one small read per entry.
          std::uint8_t head[24];
          std::ifstream is(de.path(), std::ios::binary);
          if (!is.read(reinterpret_cast<char*>(head), sizeof(head))) {
            reason = "truncated_header";
          } else {
            byte_reader r(std::span<const std::uint8_t>(head, sizeof(head)));
            if (r.u32() != cache_magic) {
              reason = "bad_magic";
            } else if (r.u32() != format_version) {
              reason = "stale_version";
            } else if (r.u64() != circuit_key || r.u64() != options_key) {
              reason = "key_mismatch";
            }
          }
        }
        if (reason != nullptr) {
          if (quarantine_file(de.path().string(), reason))
            ++stats_.quarantined;
        } else {
          ++entry_count_;  // seed the prune trigger with the live entries
        }
        continue;
      }
      if (name.find(".xfr.tmp.") == std::string::npos) continue;
      std::error_code tec;
      if (const auto mtime = fs::last_write_time(de.path(), tec);
          !tec && mtime < cutoff) {
        if (quarantine_file(de.path().string(), "orphaned_tmp"))
          ++stats_.quarantined;
      }
    }
  } catch (const fs::filesystem_error&) {
  }
}

std::string disk_result_cache::entry_path(std::uint64_t circuit_key,
                                          std::uint64_t options_key) const {
  return directory_ + "/" + hex16(circuit_key) + "-" + hex16(options_key) +
         entry_suffix;
}

std::optional<flow_result> disk_result_cache::load(std::uint64_t circuit_key,
                                                   std::uint64_t options_key) {
  const std::string path = entry_path(circuit_key, options_key);
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream is(path, std::ios::binary);
    if (!is) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.misses;
      return std::nullopt;
    }
    is.seekg(0, std::ios::end);
    const auto size = is.tellg();
    is.seekg(0, std::ios::beg);
    bytes.resize(static_cast<std::size_t>(std::max<std::streamoff>(size, 0)));
    is.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!is) bytes.clear();  // short read -> fail verification below
  }
  try {
    byte_reader r(bytes);
    if (r.u32() != cache_magic) throw serialize_error("bad magic");
    if (r.u32() != format_version) throw serialize_error("format version");
    if (r.u64() != circuit_key || r.u64() != options_key) {
      throw serialize_error("key mismatch");
    }
    flow_result result = read_flow_result(r);
    r.expect_done();
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return result;
  } catch (const serialize_error&) {
    // Stale format or corruption: quarantine the bytes for inspection (the
    // entry will be rewritten fresh on the next store) instead of erasing
    // the evidence of whatever produced them.
    const bool gone = quarantine_file(path, "undecodable");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    if (gone) ++stats_.quarantined;
    if (entry_count_ > 0) --entry_count_;
    return std::nullopt;
  }
}

void disk_result_cache::store(std::uint64_t circuit_key,
                              std::uint64_t options_key,
                              const flow_result& result) {
  byte_writer w;
  w.u32(cache_magic);
  w.u32(format_version);
  w.u64(circuit_key);
  w.u64(options_key);
  write_flow_result(w, result);

  const std::string path = entry_path(circuit_key, options_key);
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  // Chaos sites (util/fault.hpp): each models one real storage failure the
  // load path and recovery scan must absorb — a truncated entry that made
  // it past the rename, a full disk, and a writer crash on either side of
  // the rename.  All unarmed in production: one relaxed load each.
  const bool short_write = fault::fire("disk_cache.write.short");
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return;  // unwritable directory: stay a pure accelerator
    const std::size_t n = short_write ? w.size() / 2 : w.size();
    os.write(reinterpret_cast<const char*>(w.data().data()),
             static_cast<std::streamsize>(n));
    if (!os || fault::fire("disk_cache.write.enospc")) {
      os.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  if (fault::fire("disk_cache.rename.crash_before")) {
    // Writer "crashed" after the tmp write, before the rename: the tmp
    // orphan stays behind for the recovery scan to quarantine.
    return;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return;
  }
  if (fault::fire("disk_cache.rename.crash_after")) {
    // Writer "crashed" right after the rename: the entry is live on disk
    // (short_write above makes it a truncated one) but none of the
    // in-memory bookkeeping below happened.
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.writes;
  ++entry_count_;
  // Rescanning the directory per store would make bulk ingestion O(N^2):
  // the approximate count defers the scan until the cap is plausibly hit,
  // and a prune goes down to the low-water mark, so one scan pays for the
  // next max_entries/8 stores.
  if (max_entries_ != 0 && entry_count_ > max_entries_) prune_locked();
}

bool disk_result_cache::drop_entry(std::uint64_t circuit_key,
                                   std::uint64_t options_key) {
  const std::string path = entry_path(circuit_key, options_key);
  std::error_code ec;
  if (!fs::remove(path, ec) || ec) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.drops;
  if (entry_count_ > 0) --entry_count_;
  return true;
}

void disk_result_cache::prune_locked() {
  if (max_entries_ == 0) return;
  struct entry {
    fs::path path;
    fs::file_time_type mtime;
  };
  std::vector<entry> entries;
  // The ec iterator constructor does not cover increments, which can throw
  // when a sibling daemon prunes the same directory concurrently; pruning
  // must never turn a successful synthesis into a failed store().
  try {
    std::error_code ec;
    for (const auto& de : fs::directory_iterator(directory_, ec)) {
      if (ec) return;
      if (de.path().extension() != entry_suffix) continue;
      std::error_code tec;
      const auto mtime = fs::last_write_time(de.path(), tec);
      if (tec) continue;
      entries.push_back({de.path(), mtime});
    }
  } catch (const fs::filesystem_error&) {
    return;
  }
  entry_count_ = entries.size();  // re-synchronize the approximate count
  if (entries.size() <= max_entries_) return;
  std::sort(entries.begin(), entries.end(),
            [](const entry& a, const entry& b) { return a.mtime < b.mtime; });
  const std::size_t excess = entries.size() - low_water_mark();
  for (std::size_t i = 0; i < excess; ++i) {
    std::error_code rec;
    if (fs::remove(entries[i].path, rec)) {
      ++stats_.evictions;
      --entry_count_;
    }
  }
}

disk_cache_stats disk_result_cache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace xsfq::flow
