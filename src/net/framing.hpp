// Length-prefixed, CRC32-checked frames — the wire unit of the query
// service. Same integrity discipline as BSEG1 records: every header and
// every payload carries a CRC32, and the header CRC is verified BEFORE the
// declared payload length is trusted, so a flipped length byte can never
// drive a multi-gigabyte allocation or a bottomless read.
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  type          (u32 LE, frame_type)
//        4     4  payload_bytes (u32 LE)
//        8     4  payload_crc32 (u32 LE, CRC of the payload bytes)
//       12     4  header_crc32  (u32 LE, CRC of bytes [0, 12))
//       16     …  payload
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "net/socket.hpp"

namespace bes::net {

// Raised on any framing violation (bad CRC, oversized length, unknown
// type). Distinct from net_error so callers can tell "the link died" from
// "the peer sent garbage" — the latter poisons the connection but not the
// process.
class frame_error : public net_error {
 public:
  using net_error::net_error;
};

enum class frame_type : std::uint32_t {
  hello = 1,        // client → server: magic + protocol version
  hello_ok = 2,     // server → client: version + shard identity
  query = 3,        // client → server: encoded query + options
  // 4 was protocol v1's THRESHOLD; retired, it reads as an unknown type.
  cancel = 5,       // client → server: abandon a query (deadline passed)
  result = 6,       // server → client: status + results + stats
  error = 7,        // server → client: per-query or connection error text
  ping = 8,         // either direction: liveness probe
  pong = 9,         // reply to ping
  shutdown = 10,    // client → server: stop serving after this connection
  symbols_req = 11, // client → server: request the shard's symbol table
  symbols = 12,     // server → client: symbol names, alphabet order
};

[[nodiscard]] std::string_view to_string(frame_type type) noexcept;
[[nodiscard]] bool known_frame_type(std::uint32_t raw) noexcept;

inline constexpr std::size_t frame_header_bytes = 16;

// Largest payload either side will accept. Generous for result sets
// (64 MiB ≈ 4M results) yet small enough that a corrupt-but-CRC-valid
// length cannot exhaust memory.
inline constexpr std::uint32_t default_max_payload = 64u << 20;

struct frame {
  frame_type type = frame_type::ping;
  std::vector<std::uint8_t> payload;
};

// Serializes header + payload into one contiguous buffer (one send_all —
// keeps frames atomic relative to other writers holding the same mutex).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const frame& f);

void write_frame(tcp_socket& sock, const frame& f);

// Reads one whole frame. Returns nullopt iff the peer closed cleanly on a
// frame boundary. Throws frame_error on corruption (bad header/payload CRC,
// payload_bytes > max_payload, unknown type) and net_error on I/O failure
// or `deadline` passing.
[[nodiscard]] std::optional<frame> read_frame(
    tcp_socket& sock, net_time deadline,
    std::uint32_t max_payload = default_max_payload);

}  // namespace bes::net
