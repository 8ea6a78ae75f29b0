// IPv4 addresses and prefixes.
//
// The baseline address format in the paper's evolvable Internet is IPv4
// (Section 3); every Integrated Advertisement names its destination with an
// IPv4 prefix. Addresses are stored host-order internally and serialized
// big-endian by the wire codecs.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dbgp::util {
class ByteReader;
class ByteWriter;
}  // namespace dbgp::util

namespace dbgp::net {

class Ipv4Address {
 public:
  constexpr Ipv4Address() noexcept = default;
  constexpr explicit Ipv4Address(std::uint32_t value) noexcept : value_(value) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d) noexcept
      : value_((static_cast<std::uint32_t>(a) << 24) | (static_cast<std::uint32_t>(b) << 16) |
               (static_cast<std::uint32_t>(c) << 8) | d) {}

  // Parses dotted-quad ("128.6.0.1"); returns nullopt on malformed input.
  static std::optional<Ipv4Address> parse(std::string_view text) noexcept;

  constexpr std::uint32_t value() const noexcept { return value_; }
  std::string to_string() const;

  friend constexpr auto operator<=>(Ipv4Address, Ipv4Address) noexcept = default;

 private:
  std::uint32_t value_ = 0;
};

// An IPv4 prefix (address + mask length), always stored canonicalized: bits
// below the mask are zero. This is the key type for all RIBs and the trie.
class Prefix {
 public:
  constexpr Prefix() noexcept = default;
  // Canonicalizes: host bits beyond `length` are cleared.
  Prefix(Ipv4Address address, std::uint8_t length) noexcept;

  // Parses "a.b.c.d/len"; returns nullopt on malformed input or len > 32.
  static std::optional<Prefix> parse(std::string_view text) noexcept;

  Ipv4Address address() const noexcept { return address_; }
  std::uint8_t length() const noexcept { return length_; }

  // True if `addr` falls inside this prefix.
  bool contains(Ipv4Address addr) const noexcept;
  // True if `other` is equal to or more specific than this prefix.
  bool covers(const Prefix& other) const noexcept;

  std::string to_string() const;

  friend auto operator<=>(const Prefix&, const Prefix&) noexcept = default;

 private:
  Ipv4Address address_;
  std::uint8_t length_ = 0;
};

// The wire form every D-BGP codec shares: the address as a big-endian u32,
// then the length as a u8. get_prefix is the one place untrusted bytes
// become a Prefix: it throws util::DecodeError for a length above 32.
void put_prefix(util::ByteWriter& w, const Prefix& prefix);
Prefix get_prefix(util::ByteReader& r);

// Hash support for unordered containers.
struct PrefixHash {
  std::size_t operator()(const Prefix& p) const noexcept {
    const std::uint64_t x = (static_cast<std::uint64_t>(p.address().value()) << 8) | p.length();
    // SplitMix64 finalizer.
    std::uint64_t z = x + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

}  // namespace dbgp::net
