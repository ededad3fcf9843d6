#pragma once
/// Shared by the payload codec tests (test_serve, test_result_io): hex
/// rendering for pinned bytes, and the decoder sweep every pinned payload
/// goes through.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace xsfq::codec_test {

inline std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char digits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 15];
  }
  return out;
}

/// Feeds `decode` every strict prefix of `bytes` and 300 seeded copies with
/// one to three bytes overwritten.  Each must decode or throw
/// serialize_error: a chopped cache file or a garbage frame is a typed
/// rejection, never a crash or another exception.
inline void sweep_decoder(
    const std::vector<std::uint8_t>& bytes,
    const std::function<void(std::span<const std::uint8_t>)>& decode) {
  const auto attempt = [&](std::span<const std::uint8_t> input,
                           const std::string& which) {
    try {
      decode(input);
    } catch (const serialize_error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << which << ": " << e.what();
    }
  };
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    attempt({bytes.data(), n}, "prefix " + std::to_string(n));
  }
  rng gen(bytes.size());
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> mutated = bytes;
    for (std::uint64_t k = 0, flips = 1 + gen.below(3); k < flips; ++k) {
      mutated[gen.below(mutated.size())] = static_cast<std::uint8_t>(gen());
    }
    attempt(mutated, "mutation " + std::to_string(i));
  }
}

}  // namespace xsfq::codec_test
