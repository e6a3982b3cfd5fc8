// Tenant hello codec: the first chunk a client sends on a multi-tenant
// listener names its tenant — magic "P5TS" plus a u32 BE tenant id, 8 octets
// total. A SONET chunk is always sts.frame_bytes() octets (2430 for STS-3c),
// so the hello is unambiguous on the wire; anything else first is a protocol
// error and the server closes the connection.
#pragma once

#include <array>
#include <optional>

#include "common/types.hpp"

namespace p5::server {

inline constexpr std::array<u8, 4> kHelloMagic{'P', '5', 'T', 'S'};
inline constexpr std::size_t kHelloBytes = 8;

[[nodiscard]] inline Bytes hello_chunk(u32 tenant_id) {
  Bytes b;
  b.reserve(kHelloBytes);
  b.insert(b.end(), kHelloMagic.begin(), kHelloMagic.end());
  put_be32(b, tenant_id);
  return b;
}

[[nodiscard]] inline std::optional<u32> parse_hello(BytesView chunk) {
  if (chunk.size() != kHelloBytes) return std::nullopt;
  for (std::size_t i = 0; i < kHelloMagic.size(); ++i) {
    if (chunk[i] != kHelloMagic[i]) return std::nullopt;
  }
  return get_be32(chunk, 4);
}

}  // namespace p5::server
