#include "net/ipv4.h"

#include "util/bytes.h"
#include "util/strings.h"

namespace dbgp::net {

std::optional<Ipv4Address> Ipv4Address::parse(std::string_view text) noexcept {
  std::uint32_t value = 0;
  int octets = 0;
  std::uint32_t current = 0;
  bool has_digit = false;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '.') {
      if (!has_digit || current > 255 || octets >= 4) return std::nullopt;
      value = (value << 8) | current;
      ++octets;
      current = 0;
      has_digit = false;
    } else if (text[i] >= '0' && text[i] <= '9') {
      current = current * 10 + static_cast<std::uint32_t>(text[i] - '0');
      if (current > 255) return std::nullopt;
      has_digit = true;
    } else {
      return std::nullopt;
    }
  }
  if (octets != 4) return std::nullopt;
  return Ipv4Address(value);
}

std::string Ipv4Address::to_string() const {
  std::string out;
  out.reserve(15);
  for (int shift = 24; shift >= 0; shift -= 8) {
    if (shift != 24) out.push_back('.');
    out += std::to_string((value_ >> shift) & 0xff);
  }
  return out;
}

namespace {
constexpr std::uint32_t mask_for(std::uint8_t length) noexcept {
  return length == 0 ? 0u : (~0u << (32 - length));
}
}  // namespace

Prefix::Prefix(Ipv4Address address, std::uint8_t length) noexcept
    : address_(Ipv4Address(address.value() & mask_for(length))), length_(length) {}

std::optional<Prefix> Prefix::parse(std::string_view text) noexcept {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  auto addr = Ipv4Address::parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  std::uint64_t len = 0;
  if (!util::parse_u64(text.substr(slash + 1), len) || len > 32) return std::nullopt;
  return Prefix(*addr, static_cast<std::uint8_t>(len));
}

void put_prefix(util::ByteWriter& w, const Prefix& prefix) {
  w.put_u32(prefix.address().value());
  w.put_u8(prefix.length());
}

Prefix get_prefix(util::ByteReader& r) {
  const std::uint32_t addr = r.get_u32();
  const std::uint8_t len = r.get_u8();
  if (len > 32) throw util::DecodeError("prefix length > 32");
  return Prefix(Ipv4Address(addr), len);
}

bool Prefix::contains(Ipv4Address addr) const noexcept {
  return (addr.value() & mask_for(length_)) == address_.value();
}

bool Prefix::covers(const Prefix& other) const noexcept {
  return other.length_ >= length_ && contains(other.address_);
}

std::string Prefix::to_string() const {
  return address_.to_string() + "/" + std::to_string(length_);
}

}  // namespace dbgp::net
