// Data-integrity primitives: CRC-32 framing and 64-bit structural hashes.
//
// Two distinct jobs, two distinct tools:
//
//   * Crc32 / crc32() — the IEEE 802.3 CRC (reflected polynomial
//     0xEDB88320), table-driven and incremental. Used to frame epoch
//     journal records (sim/checkpoint) and to footer serialized artifacts
//     (io/serialize), so torn writes and bit rot are *detected* instead
//     of silently merged into results.
//   * Hash64 — FNV-1a over typed fields, for run fingerprints (is this
//     journal's run the same run I am about to execute?).
//     Not cryptographic; it guards against accidents, not adversaries.
//
// Both are header-only and allocation-free; doubles are hashed by IEEE
// bit pattern (std::bit_cast), never by value rounding, because the
// fingerprint contract of the checkpoint layer is bit-exactness.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ppdc {

namespace detail {

/// 256-entry lookup table of the reflected IEEE CRC-32 polynomial.
constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

}  // namespace detail

/// Incremental CRC-32 (IEEE 802.3). Feed bytes in any chunking; value()
/// may be read at any point without disturbing the accumulator.
class Crc32 {
 public:
  void update(const void* data, std::size_t len) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      crc_ = detail::kCrc32Table[(crc_ ^ p[i]) & 0xFFu] ^ (crc_ >> 8);
    }
  }
  void update(std::string_view bytes) noexcept {
    update(bytes.data(), bytes.size());
  }

  /// CRC of everything fed so far ("123456789" -> 0xCBF43926).
  std::uint32_t value() const noexcept { return crc_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t crc_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a byte range.
inline std::uint32_t crc32(const void* data, std::size_t len) noexcept {
  Crc32 c;
  c.update(data, len);
  return c.value();
}

inline std::uint32_t crc32(std::string_view bytes) noexcept {
  return crc32(bytes.data(), bytes.size());
}

/// FNV-1a (64-bit) accumulator over typed fields. Integers are widened to
/// 8 bytes and strings are length-prefixed before hashing, so field
/// boundaries cannot alias ("ab"+"c" never hashes like "a"+"bc").
class Hash64 {
 public:
  Hash64& bytes(const void* data, std::size_t len) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ULL;
    }
    return *this;
  }

  Hash64& u64(std::uint64_t v) noexcept { return bytes(&v, sizeof v); }
  Hash64& i64(std::int64_t v) noexcept {
    return u64(static_cast<std::uint64_t>(v));
  }
  Hash64& b(bool v) noexcept { return u64(v ? 1 : 0); }
  /// IEEE bit pattern — two doubles hash equal iff they are bit-identical.
  Hash64& f64(double v) noexcept { return u64(std::bit_cast<std::uint64_t>(v)); }
  Hash64& str(const std::string& s) noexcept {
    u64(s.size());
    return bytes(s.data(), s.size());
  }

  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;  // FNV offset basis
};

/// One-shot 64-bit hash of a byte string.
inline std::uint64_t hash64(std::string_view bytes) {
  Hash64 h;
  h.bytes(bytes.data(), bytes.size());
  return h.value();
}

}  // namespace ppdc
