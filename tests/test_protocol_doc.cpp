// Machine-checks docs/protocol.md against src/serve/protocol.hpp: the
// protocol version, the frame payload cap, the histogram bucket count, and
// every row of the message-type and error-code tables must match the header's
// constants exactly — in both directions (no undocumented enumerator, no
// documented phantom).  This is what makes protocol.md a *normative*
// reference instead of prose that drifts.
//
// The doc is located via XSFQ_SOURCE_DIR (a compile definition set in
// CMakeLists.txt), so the test runs from any build directory.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "serve/protocol.hpp"
#include "util/histogram.hpp"

namespace {

using namespace xsfq;

std::string read_doc() {
  const std::string path = std::string(XSFQ_SOURCE_DIR) + "/docs/protocol.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// First "**<digits>**" after `marker`, as an integer.  The doc states its
// normative numbers in bold, which doubles as the machine-readable anchor.
std::uint64_t bold_number_after(const std::string& doc,
                                const std::string& marker) {
  auto pos = doc.find(marker);
  EXPECT_NE(pos, std::string::npos) << "doc lost the line: " << marker;
  pos = doc.find("**", pos);
  EXPECT_NE(pos, std::string::npos);
  pos += 2;
  auto end = doc.find("**", pos);
  EXPECT_NE(end, std::string::npos);
  return std::stoull(doc.substr(pos, end - pos));
}

// Parses every table row of the form "| `name` | value |..." inside the
// section that starts at `heading` and ends at the next "## " heading.
std::map<std::string, std::uint64_t> table_rows(const std::string& doc,
                                                const std::string& heading) {
  auto begin = doc.find(heading);
  EXPECT_NE(begin, std::string::npos) << "doc lost the section: " << heading;
  auto end = doc.find("\n## ", begin);
  if (end == std::string::npos) end = doc.size();

  std::map<std::string, std::uint64_t> rows;
  std::istringstream lines(doc.substr(begin, end - begin));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("| `", 0) != 0) continue;  // not a named table row
    const auto name_end = line.find('`', 3);
    const auto cell =
        name_end == std::string::npos ? name_end : line.find('|', name_end);
    if (cell == std::string::npos) {
      ADD_FAILURE() << "malformed doc table row: " << line;
      continue;
    }
    const std::string name = line.substr(3, name_end - 3);
    // Second cell is the numeric value (right-aligned, so trim spaces).
    const std::uint64_t value = std::stoull(line.substr(cell + 1));
    EXPECT_TRUE(rows.emplace(name, value).second)
        << "duplicate doc row: " << name;
  }
  return rows;
}

TEST(ProtocolDoc, VersionAndLimitsMatchHeader) {
  const std::string doc = read_doc();
  EXPECT_EQ(bold_number_after(doc, "Protocol version:"),
            serve::protocol_version);
  EXPECT_EQ(bold_number_after(doc, "Maximum payload length:"),
            serve::max_frame_payload);
  // The server_stats section states the histogram bucket count.
  EXPECT_NE(doc.find(std::to_string(log_histogram::num_buckets) +
                     " buckets"),
            std::string::npos)
      << "doc's histogram bucket count disagrees with util/histogram.hpp";
}

// Every msg_type enumerator, explicitly: adding one without documenting it
// fails the row-count check below, documenting a wrong value fails the
// per-row expectation.
const std::map<std::string, serve::msg_type>& all_msg_types() {
  static const std::map<std::string, serve::msg_type> types = {
      {"submit", serve::msg_type::submit},
      {"shutdown", serve::msg_type::shutdown},
      {"ping", serve::msg_type::ping},
      {"auth", serve::msg_type::auth},
      {"server_stats", serve::msg_type::server_stats},
      {"synth_delta", serve::msg_type::synth_delta},
      {"trace", serve::msg_type::trace},
      {"result", serve::msg_type::result},
      {"shutdown_ok", serve::msg_type::shutdown_ok},
      {"pong", serve::msg_type::pong},
      {"auth_ok", serve::msg_type::auth_ok},
      {"server_stats_ok", serve::msg_type::server_stats_ok},
      {"trace_ok", serve::msg_type::trace_ok},
      {"progress", serve::msg_type::progress},
      {"error", serve::msg_type::error},
  };
  return types;
}

TEST(ProtocolDoc, MessageTypeTableMatchesEnum) {
  const auto rows = table_rows(read_doc(), "## Message types");
  EXPECT_EQ(rows.size(), all_msg_types().size())
      << "message-type table row count != msg_type enumerator count";
  for (const auto& [name, type] : all_msg_types()) {
    auto it = rows.find(name);
    ASSERT_NE(it, rows.end()) << "message type undocumented: " << name;
    EXPECT_EQ(it->second, static_cast<std::uint64_t>(type))
        << "documented value wrong for message type: " << name;
  }
}

// The doc's "Retired numbers, never reused: ..." sentence holds that promise
// for the header: no enumerator, and no documented row, takes a retired
// value.  Numbers in parentheses (the retired messages' names) are skipped.
TEST(ProtocolDoc, RetiredMessageNumbersAreNeverReused) {
  const std::string doc = read_doc();
  const std::string marker = "Retired numbers, never reused:";
  const auto begin = doc.find(marker);
  ASSERT_NE(begin, std::string::npos) << "doc lost the line: " << marker;
  const auto from = begin + marker.size();
  const auto end = doc.find('.', from);  // the period ends the digit runs
  std::set<std::uint64_t> retired;
  int depth = 0;
  std::string digits;
  for (const char c : doc.substr(from, end - from + 1)) {
    depth += (c == '(') - (c == ')');
    if (depth == 0 && std::isdigit(static_cast<unsigned char>(c))) {
      digits += c;
    } else if (!digits.empty()) {
      retired.insert(std::stoull(digits));
      digits.clear();
    }
  }
  EXPECT_EQ(retired, (std::set<std::uint64_t>{2, 3, 6, 65, 66, 69}));
  for (const auto& [name, type] : all_msg_types()) {
    EXPECT_EQ(retired.count(static_cast<std::uint64_t>(type)), 0u)
        << "msg_type " << name << " reuses a retired number";
  }
  for (const auto& [name, value] : table_rows(doc, "## Message types")) {
    EXPECT_EQ(retired.count(value), 0u)
        << "doc row " << name << " reuses a retired number";
  }
}

TEST(ProtocolDoc, ErrorCodeTableMatchesEnum) {
  const auto rows = table_rows(read_doc(), "## Error codes");

  const std::map<std::string, serve::error_code> expected = {
      {"generic", serve::error_code::generic},
      {"bad_request", serve::error_code::bad_request},
      {"unsupported_version", serve::error_code::unsupported_version},
      {"auth_required", serve::error_code::auth_required},
      {"auth_failed", serve::error_code::auth_failed},
      {"overloaded", serve::error_code::overloaded},
      {"deadline_expired", serve::error_code::deadline_expired},
      {"too_many_connections", serve::error_code::too_many_connections},
      {"shutting_down", serve::error_code::shutting_down},
      {"unknown_base", serve::error_code::unknown_base},
      {"bad_edit", serve::error_code::bad_edit},
      {"io_timeout", serve::error_code::io_timeout},
  };
  EXPECT_EQ(rows.size(), expected.size())
      << "error-code table row count != error_code enumerator count";
  for (const auto& [name, code] : expected) {
    auto it = rows.find(name);
    ASSERT_NE(it, rows.end()) << "error code undocumented: " << name;
    EXPECT_EQ(it->second, static_cast<std::uint64_t>(code))
        << "documented value wrong for error code: " << name;
  }
}

}  // namespace
