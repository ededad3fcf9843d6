#pragma once
/// \file serialize.hpp
/// \brief Bounds-checked binary serialization primitives and the one
/// field walker every payload codec is derived from.
///
/// One pair of tiny codec classes shared by everything that moves structured
/// data as bytes: the disk-persistent flow result cache (src/flow/disk_cache)
/// and the serve wire protocol (src/serve/protocol).  Encoding is explicit
/// little-endian, so a cache entry written on one machine decodes identically
/// on any other, independent of host endianness.
///
/// The reader throws `serialize_error` on any underrun or implausible length
/// instead of reading past the buffer — a truncated or corrupted input (a
/// chopped cache file, a garbage protocol frame) surfaces as one typed
/// exception the caller converts into "cache miss" or "reject frame".
///
/// A payload struct declares its layout once, as a `fields` overload in its
/// own namespace (found by ADL) handing each member, in wire order, to `f`:
///
///   auto fields(of<trace_span> auto& s, auto&& f) {
///     return f(s.name, s.start_us, s.dur_us, s.tid);
///   }
///
/// `write_field` and `read_field` walk that list, so an encoder and its
/// decoder cannot disagree on order or width; a range-checked member is
/// listed as `bounded{member, lo, hi, "name"}`, and enums decode only that
/// way.  Integers take their member's width, `bool` one byte (decode
/// rejects > 1), `double` its IEEE-754 bits, strings and vectors a u64
/// length first (a count is checked against the element's minimum size),
/// `std::optional` a presence bool, `std::pair` first then second, and a
/// nested struct its own list.  A type whose encoding is an algorithm, not
/// a layout (the AIG's construction replay), overloads the two functions.

#include <concepts>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace xsfq {

struct serialize_error : std::runtime_error {
  explicit serialize_error(const std::string& what)
      : std::runtime_error("serialize: " + what) {}
};

/// Append-only little-endian byte sink.
class byte_writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  /// Length-prefixed string.
  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  /// Little-endian at the integer's own width.
  template <std::integral T>
  void integer(T v) {
    put_le(static_cast<std::make_unsigned_t<T>>(v), sizeof(T));
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void put_le(std::uint64_t v, unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian byte source over a borrowed buffer.
class byte_reader {
 public:
  explicit byte_reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(get_le(1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get_le(4)); }
  std::uint64_t u64() { return get_le(8); }
  template <std::integral T>
  T integer() {
    return static_cast<T>(get_le(sizeof(T)));
  }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw serialize_error("bool byte out of range");
    return v != 0;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    // The length prefix can never legitimately exceed what is left in the
    // buffer; checking before allocating keeps garbage input from turning
    // into a multi-gigabyte allocation.
    if (n > remaining()) throw serialize_error("string length exceeds buffer");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  /// Consumes `n` bytes and returns them as a subspan — how a codec nests
  /// another codec's payload without copying it.
  std::span<const std::uint8_t> raw(std::size_t n) {
    if (n > remaining()) throw serialize_error("raw length exceeds buffer");
    const auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  /// Reads a count prefix for a sequence whose elements take at least
  /// `min_element_bytes` each; rejects counts the buffer cannot hold.
  std::size_t count(std::size_t min_element_bytes) {
    const std::uint64_t n = u64();
    if (min_element_bytes != 0 && n > remaining() / min_element_bytes) {
      throw serialize_error("sequence count exceeds buffer");
    }
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  /// Decoders call this last: trailing bytes mean a format mismatch.
  void expect_done() const {
    if (!done()) throw serialize_error("trailing bytes after payload");
  }

 private:
  std::uint64_t get_le(unsigned n) {
    if (remaining() < n) throw serialize_error("unexpected end of input");
    std::uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i) {
      v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
    }
    pos_ += n;
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// The field walker.
// ---------------------------------------------------------------------------

/// `S` is `T` or `const T`: one field list serves the encoder (const) and
/// the decoder.
template <typename S, typename T>
concept of = std::same_as<std::remove_const_t<S>, T>;

/// A field-list entry whose decoded value must lie in [lo, hi] (NaN never
/// does); anything else throws serialize_error("<what> out of range").
template <typename T>
struct bounded {
  using value_type = std::remove_const_t<T>;
  T& field;
  value_type lo, hi;
  const char* what;
};
// Spelled out for compilers without aggregate deduction (clang < 17).
template <typename T, typename B>
bounded(T&, B, B, const char*) -> bounded<T>;

namespace detail {
template <typename T, template <typename...> class Template>
inline constexpr bool is_a = false;
template <template <typename...> class Template, typename... Args>
inline constexpr bool is_a<Template<Args...>, Template> = true;
}  // namespace detail

/// Fewest bytes one encoded T can take: the per-element floor a decoded
/// sequence count is checked against.
template <typename T>
std::size_t min_bytes() {
  if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, std::string> ||
                       detail::is_a<T, std::vector>) {
    return 8;
  } else if constexpr (detail::is_a<T, std::optional>) {
    return 1;
  } else if constexpr (detail::is_a<T, std::pair>) {
    return min_bytes<typename T::first_type>() +
           min_bytes<typename T::second_type>();
  } else if constexpr (detail::is_a<T, bounded>) {
    return min_bytes<typename T::value_type>();
  } else {
    T probe{};  // only its members' types matter
    std::size_t n = 0;
    fields(probe, [&n](const auto&... f) {
      n = (min_bytes<std::remove_cvref_t<decltype(f)>>() + ... + 0);
    });
    return n;
  }
}

template <typename T>
void write_field(byte_writer& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.boolean(v);
  } else if constexpr (std::is_enum_v<T>) {
    w.integer(static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_integral_v<T>) {
    w.integer(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (detail::is_a<T, std::optional>) {
    w.boolean(v.has_value());
    if (v) write_field(w, *v);
  } else if constexpr (detail::is_a<T, std::vector>) {
    w.u64(v.size());
    for (const auto& e : v) write_field(w, e);
  } else if constexpr (detail::is_a<T, std::pair>) {
    write_field(w, v.first);
    write_field(w, v.second);
  } else if constexpr (detail::is_a<T, bounded>) {
    write_field(w, v.field);
  } else {
    fields(v, [&w](const auto&... f) { (write_field(w, f), ...); });
  }
}

template <typename T>
void read_field(byte_reader& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = r.boolean();
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(!std::is_enum_v<T>, "an enum field needs bounded{...}");
  } else if constexpr (std::is_integral_v<T>) {
    v = r.integer<T>();
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.f64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (detail::is_a<T, std::optional>) {
    v.reset();
    if (r.boolean()) read_field(r, v.emplace());
  } else if constexpr (detail::is_a<T, std::vector>) {
    using element = typename T::value_type;
    const std::size_t n = r.count(min_bytes<element>());
    v.clear();
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      element e{};
      read_field(r, e);
      v.push_back(std::move(e));
    }
  } else if constexpr (detail::is_a<T, std::pair>) {
    read_field(r, v.first);
    read_field(r, v.second);
  } else if constexpr (detail::is_a<T, bounded>) {
    using value = typename T::value_type;
    if constexpr (std::is_enum_v<value>) {
      v.field = static_cast<value>(r.integer<std::underlying_type_t<value>>());
    } else {
      read_field(r, v.field);
    }
    if (!(v.lo <= v.field && v.field <= v.hi)) {
      throw serialize_error(std::string(v.what) + " out of range");
    }
  } else {
    fields(v, [&r](auto&&... f) { (read_field(r, f), ...); });
  }
}

}  // namespace xsfq
