// Message bodies carried inside frames (net/framing.hpp): a tiny hand-rolled
// little-endian codec plus one struct per frame type. Everything decoded off
// the wire is validated — lengths are bounds-checked against the payload,
// enums are range-checked, and every decoder finishes with expect_end() so a
// short or padded payload is a frame_error, never silently-misread fields.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/be_string.hpp"
#include "db/query.hpp"
#include "net/framing.hpp"

namespace bes::net {

// 'BESQ' — rejects a stray client speaking some other protocol at the port.
inline constexpr std::uint32_t protocol_magic = 0x42455351;
// Version 2 retired the THRESHOLD frame and query_msg's floor field.
inline constexpr std::uint32_t protocol_version = 2;

// ---------------------------------------------------------------------------
// Codec primitives

// Appends little-endian fields to a byte buffer.
class payload_writer {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void str(const std::string& s);              // u32 length + bytes
  void tokens(const std::vector<token>& ts);   // u32 count + u32 per token
  void symbol_ids(const std::vector<symbol_id>& ids);

  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Reads the same fields back, bounds-checked; throws frame_error on a
// truncated or over-long payload and on any out-of-range enum/token.
class payload_reader {
 public:
  explicit payload_reader(const std::vector<std::uint8_t>& payload)
      : data_(payload.data()), size_(payload.size()) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<token> tokens();
  [[nodiscard]] std::vector<symbol_id> symbol_ids();

  // Call after decoding a message: trailing bytes mean a version skew or
  // corruption that happened to pass the CRC — fail closed.
  void expect_end() const;

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Messages (one struct per frame type that has a payload)

struct hello_msg {
  std::uint32_t magic = protocol_magic;
  std::uint32_t version = protocol_version;
};

struct hello_ok_msg {
  std::uint32_t version = protocol_version;
  std::uint32_t shard = 0;   // which partition this server holds
  std::uint64_t images = 0;  // records in the shard
  std::uint64_t symbols = 0; // alphabet size the shard was encoded with
};

struct query_msg {
  std::uint64_t query_id = 0;
  std::uint32_t deadline_ms = 0;  // server-side budget; 0 = none
  query_options options;          // threads is advisory; the server re-caps
  be_string2d query;
  std::vector<symbol_id> query_symbols;
};

struct cancel_msg {
  std::uint64_t query_id = 0;
};

// How the shard's side of one query ended (mirrors shard_scan_state minus
// the coordinator-only outcomes).
enum class query_status : std::uint8_t {
  ok = 0,        // complete scan, full per-shard top-k attached
  expired = 1,   // deadline/cancel hit mid-scan; attached results are partial
  failed = 2,    // scan threw; no results
  rejected = 3,  // admission queue full; no results
};

[[nodiscard]] std::string_view to_string(query_status status) noexcept;

struct result_msg {
  std::uint64_t query_id = 0;
  query_status status = query_status::ok;
  // Result ids are GLOBAL corpus ids (the server translates before sending).
  std::vector<query_result> results;
  // Core counters only (scanned/scored/pruned/band_rejected/generated);
  // plans and shard_statuses do not cross the wire.
  search_stats stats;
};

struct error_msg {
  std::uint64_t query_id = 0;  // 0 when the error is connection-scoped
  std::string message;
};

struct symbols_msg {
  std::vector<std::string> names;  // alphabet order (symbol_id == position)
};

// ---------------------------------------------------------------------------
// Encode to / decode from frames. Decoders validate exhaustively and throw
// frame_error on anything malformed.

[[nodiscard]] frame encode(const hello_msg& m);
[[nodiscard]] frame encode(const hello_ok_msg& m);
[[nodiscard]] frame encode(const query_msg& m);
[[nodiscard]] frame encode(const cancel_msg& m);
[[nodiscard]] frame encode(const result_msg& m);
[[nodiscard]] frame encode(const error_msg& m);
[[nodiscard]] frame encode(const symbols_msg& m);

[[nodiscard]] hello_msg decode_hello(const frame& f);
[[nodiscard]] hello_ok_msg decode_hello_ok(const frame& f);
[[nodiscard]] query_msg decode_query(const frame& f);
[[nodiscard]] cancel_msg decode_cancel(const frame& f);
[[nodiscard]] result_msg decode_result(const frame& f);
[[nodiscard]] error_msg decode_error(const frame& f);
[[nodiscard]] symbols_msg decode_symbols(const frame& f);

}  // namespace bes::net
