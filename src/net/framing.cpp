#include "net/framing.hpp"

#include <cstring>

#include "util/checksum.hpp"

namespace bes::net {

namespace {

void put_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::string_view to_string(frame_type type) noexcept {
  switch (type) {
    case frame_type::hello: return "hello";
    case frame_type::hello_ok: return "hello_ok";
    case frame_type::query: return "query";
    case frame_type::cancel: return "cancel";
    case frame_type::result: return "result";
    case frame_type::error: return "error";
    case frame_type::ping: return "ping";
    case frame_type::pong: return "pong";
    case frame_type::shutdown: return "shutdown";
    case frame_type::symbols_req: return "symbols_req";
    case frame_type::symbols: return "symbols";
  }
  return "?";
}

bool known_frame_type(std::uint32_t raw) noexcept {
  // to_string names exactly the frame types in use, so retired and
  // out-of-range values alike read as unknown.
  return to_string(static_cast<frame_type>(raw)) != "?";
}

std::vector<std::uint8_t> encode_frame(const frame& f) {
  std::vector<std::uint8_t> buf(frame_header_bytes + f.payload.size());
  put_u32(buf.data(), static_cast<std::uint32_t>(f.type));
  put_u32(buf.data() + 4, static_cast<std::uint32_t>(f.payload.size()));
  put_u32(buf.data() + 8, crc32(f.payload.data(), f.payload.size()));
  put_u32(buf.data() + 12, crc32(buf.data(), 12));
  if (!f.payload.empty()) {
    std::memcpy(buf.data() + frame_header_bytes, f.payload.data(),
                f.payload.size());
  }
  return buf;
}

void write_frame(tcp_socket& sock, const frame& f) {
  const std::vector<std::uint8_t> buf = encode_frame(f);
  sock.send_all(buf.data(), buf.size());
}

std::optional<frame> read_frame(tcp_socket& sock, net_time deadline,
                                std::uint32_t max_payload) {
  std::uint8_t header[frame_header_bytes];
  if (!sock.read_exact(header, sizeof header, deadline)) return std::nullopt;

  // Header CRC first: until it passes, none of the other fields —
  // especially payload_bytes — may be believed.
  const std::uint32_t stated_header_crc = get_u32(header + 12);
  if (crc32(header, 12) != stated_header_crc) {
    throw frame_error("frame: header checksum mismatch");
  }
  const std::uint32_t raw_type = get_u32(header);
  const std::uint32_t payload_bytes = get_u32(header + 4);
  const std::uint32_t payload_crc = get_u32(header + 8);
  if (!known_frame_type(raw_type)) {
    throw frame_error("frame: unknown frame type " + std::to_string(raw_type));
  }
  if (payload_bytes > max_payload) {
    throw frame_error("frame: declared payload of " +
                      std::to_string(payload_bytes) + " bytes exceeds limit");
  }

  frame f;
  f.type = static_cast<frame_type>(raw_type);
  f.payload.resize(payload_bytes);
  if (payload_bytes > 0 &&
      !sock.read_exact(f.payload.data(), payload_bytes, deadline)) {
    throw net_error("net: peer closed mid-frame");
  }
  if (crc32(f.payload.data(), f.payload.size()) != payload_crc) {
    throw frame_error("frame: payload checksum mismatch");
  }
  return f;
}

}  // namespace bes::net
