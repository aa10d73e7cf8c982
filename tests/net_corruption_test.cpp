// The wire-path fuzz battery: a live shard server fed corrupt bytes, and a
// coordinator scattered across byzantine peers. The invariants, both
// directions:
//
//  * the server never crashes, never wedges, and stays able to answer a
//    well-behaved connection after every abuse;
//  * the coordinator never hangs past its deadline and never returns a
//    silently-wrong answer — a shard it cannot trust is reported failed /
//    timed out while the surviving shards' contribution stays exact.
//
// Every single-byte flip must be caught: the frame header CRC covers the
// header (so a flipped length cannot drive a huge read), the payload CRC
// covers the payload, and everything decoded afterwards is range-checked.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "core/encoder.hpp"
#include "db/database.hpp"
#include "db/shard.hpp"
#include "net/coordinator.hpp"
#include "net/framing.hpp"
#include "net/loopback.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "workload/query_gen.hpp"
#include "workload/scene_gen.hpp"

namespace bes {
namespace {

image_database small_corpus(std::size_t images = 12, std::uint64_t seed = 5) {
  image_database db;
  rng r(seed);
  scene_params params;
  params.object_count = 6;
  params.symbol_pool = 8;
  for (std::size_t i = 0; i < images; ++i) {
    db.add("scene" + std::to_string(i), random_scene(params, r, db.symbols()));
  }
  return db;
}

net::net_time soon() { return net::deadline_in(5000); }

// A full healthy session: handshake, then a symbols round-trip. This is the
// "server still alive and sane" probe run after every abuse.
::testing::AssertionResult server_is_healthy(std::uint16_t port,
                                             std::size_t expect_symbols) {
  try {
    net::tcp_socket sock = net::tcp_socket::connect("127.0.0.1", port, 2000);
    net::write_frame(sock, net::encode(net::hello_msg{}));
    const auto hello = net::read_frame(sock, soon());
    if (!hello) return ::testing::AssertionFailure() << "no hello_ok";
    (void)net::decode_hello_ok(*hello);
    net::write_frame(sock, net::frame{net::frame_type::symbols_req, {}});
    const auto symbols = net::read_frame(sock, soon());
    if (!symbols) return ::testing::AssertionFailure() << "no symbols reply";
    const net::symbols_msg msg = net::decode_symbols(*symbols);
    if (msg.names.size() != expect_symbols) {
      return ::testing::AssertionFailure()
             << "symbol table shrank to " << msg.names.size();
    }
    return ::testing::AssertionSuccess();
  } catch (const net::net_error& e) {
    return ::testing::AssertionFailure() << "probe failed: " << e.what();
  }
}

// Drains whatever the server says until it hangs up; the abuse tests only
// require that this terminates (no wedge) without the process dying.
void drain_until_close(net::tcp_socket& sock) {
  try {
    while (net::read_frame(sock, soon()).has_value()) {
    }
  } catch (const net::net_error&) {
    // Error frame cut short / connection reset: also a clean outcome.
  }
}

class CorruptionBattery : public ::testing::Test {
 protected:
  CorruptionBattery() : db_(small_corpus()) {
    ids_.resize(db_.size());
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      ids_[i] = static_cast<image_id>(i);
    }
    net::server_options options;
    options.max_payload = 1u << 16;  // small cap: oversized tests stay cheap
    server_ = std::make_unique<net::shard_server>(db_, ids_, 0, options);
  }

  image_database db_;
  std::vector<image_id> ids_;
  std::unique_ptr<net::shard_server> server_;
};

TEST_F(CorruptionBattery, RandomGarbageNeverWedgesTheServer) {
  rng r(99);
  for (int round = 0; round < 24; ++round) {
    net::tcp_socket sock =
        net::tcp_socket::connect("127.0.0.1", server_->port(), 2000);
    std::vector<std::uint8_t> junk(
        static_cast<std::size_t>(r.uniform_int(1, 512)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(r.uniform_int(0, 255));
    try {
      sock.send_all(junk.data(), junk.size());
    } catch (const net::net_error&) {
      // Server already hung up on earlier junk in this burst — fine.
    }
    drain_until_close(sock);
  }
  EXPECT_TRUE(server_is_healthy(server_->port(), db_.symbols().size()));
}

TEST_F(CorruptionBattery, EverySingleByteFlipIsCaught) {
  // A correct session prefix (hello) followed by a query frame with one
  // byte flipped — sweep a deterministic sample of positions across header
  // and payload. The server must refuse the frame (error + hangup is the
  // contract; never a scan of a misread query).
  net::query_msg qm;
  qm.query_id = 7;
  qm.options.top_k = 3;
  const symbolic_image scene = db_.record(0).image;
  qm.query = encode(scene);
  qm.query_symbols = distinct_symbols(scene);
  const std::vector<std::uint8_t> wire = net::encode_frame(net::encode(qm));

  for (std::size_t pos = 0; pos < wire.size();
       pos += (pos < net::frame_header_bytes ? 1 : 7)) {
    net::tcp_socket sock =
        net::tcp_socket::connect("127.0.0.1", server_->port(), 2000);
    net::write_frame(sock, net::encode(net::hello_msg{}));
    const auto hello = net::read_frame(sock, soon());
    ASSERT_TRUE(hello.has_value()) << "flip at " << pos;

    std::vector<std::uint8_t> bad = wire;
    bad[pos] ^= 0x40;
    sock.send_all(bad.data(), bad.size());
    // Expect an error frame, then EOF; a RESULT here would mean the server
    // trusted a corrupt frame.
    try {
      auto reply = net::read_frame(sock, soon());
      while (reply.has_value()) {
        EXPECT_NE(reply->type, net::frame_type::result) << "flip at " << pos;
        reply = net::read_frame(sock, soon());
      }
    } catch (const net::net_error&) {
    }
  }
  EXPECT_TRUE(server_is_healthy(server_->port(), db_.symbols().size()));
}

TEST_F(CorruptionBattery, TruncatedFramesJustHangUp) {
  const std::vector<std::uint8_t> wire =
      net::encode_frame(net::encode(net::cancel_msg{3}));
  for (const std::size_t keep : {std::size_t{3}, std::size_t{15},
                                 net::frame_header_bytes, wire.size() - 1}) {
    net::tcp_socket sock =
        net::tcp_socket::connect("127.0.0.1", server_->port(), 2000);
    net::write_frame(sock, net::encode(net::hello_msg{}));
    ASSERT_TRUE(net::read_frame(sock, soon()).has_value());
    sock.send_all(wire.data(), keep);
    sock.close();
  }
  EXPECT_TRUE(server_is_healthy(server_->port(), db_.symbols().size()));
}

TEST_F(CorruptionBattery, OversizedDeclaredLengthIsRefusedNotAllocated) {
  // A CRC-valid header declaring a payload over the server's cap: the
  // framing layer must throw on the header alone. The client never sends
  // the payload, so a server that "just tried to read it" would sit here
  // forever and fail the healthy-probe timeout.
  net::tcp_socket sock =
      net::tcp_socket::connect("127.0.0.1", server_->port(), 2000);
  net::write_frame(sock, net::encode(net::hello_msg{}));
  ASSERT_TRUE(net::read_frame(sock, soon()).has_value());

  std::vector<std::uint8_t> header(net::frame_header_bytes, 0);
  const std::uint32_t type =
      static_cast<std::uint32_t>(net::frame_type::query);
  const std::uint32_t huge = 1u << 30;
  std::memcpy(header.data(), &type, 4);
  std::memcpy(header.data() + 4, &huge, 4);
  const std::uint8_t no_payload = 0;
  const std::uint32_t payload_crc = crc32(&no_payload, 0);
  std::memcpy(header.data() + 8, &payload_crc, 4);
  const std::uint32_t header_crc = crc32(header.data(), 12);
  std::memcpy(header.data() + 12, &header_crc, 4);
  sock.send_all(header.data(), header.size());
  drain_until_close(sock);
  EXPECT_TRUE(server_is_healthy(server_->port(), db_.symbols().size()));
}

TEST_F(CorruptionBattery, V1HelloAndRetiredThresholdFrameFailClosed) {
  // Each session must end in an error frame and a hangup, never in a
  // scan: a protocol v1 client is refused at the handshake, and a frame of
  // the type v1 used for THRESHOLD is unknown to a v2 server.
  // Reads until the server hangs up and returns how many connection-scoped
  // error frames arrived; any other frame fails the test. (A hangup with
  // unread client bytes may surface as a reset instead of a clean EOF.)
  const auto frames_until_hangup = [](net::tcp_socket& sock,
                                      const char* what) {
    const auto start = std::chrono::steady_clock::now();
    std::size_t errors = 0;
    try {
      for (auto reply = net::read_frame(sock, soon()); reply.has_value();
           reply = net::read_frame(sock, soon())) {
        EXPECT_EQ(reply->type, net::frame_type::error) << what;
        if (reply->type == net::frame_type::error) {
          EXPECT_EQ(net::decode_error(*reply).query_id, 0u) << what;
          ++errors;
        }
      }
    } catch (const net::net_error&) {
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(4))
        << what << ": the server kept the connection open";
    return errors;
  };
  {
    net::tcp_socket sock =
        net::tcp_socket::connect("127.0.0.1", server_->port(), 2000);
    net::hello_msg v1;
    v1.version = 1;
    net::write_frame(sock, net::encode(v1));
    EXPECT_EQ(frames_until_hangup(sock, "v1 hello"), 1u);
  }
  {
    net::tcp_socket sock =
        net::tcp_socket::connect("127.0.0.1", server_->port(), 2000);
    net::write_frame(sock, net::encode(net::hello_msg{}));
    ASSERT_TRUE(net::read_frame(sock, soon()).has_value());
    // The v1 THRESHOLD body: query id + floor, behind a CRC-valid header.
    net::payload_writer w;
    w.u64(7);
    w.f64(0.5);
    const std::vector<std::uint8_t> payload = std::move(w).take();
    std::vector<std::uint8_t> wire(net::frame_header_bytes);
    const std::uint32_t type = 4;
    const auto size = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t payload_crc = crc32(payload.data(), payload.size());
    std::memcpy(wire.data(), &type, 4);
    std::memcpy(wire.data() + 4, &size, 4);
    std::memcpy(wire.data() + 8, &payload_crc, 4);
    const std::uint32_t header_crc = crc32(wire.data(), 12);
    std::memcpy(wire.data() + 12, &header_crc, 4);
    wire.insert(wire.end(), payload.begin(), payload.end());
    sock.send_all(wire.data(), wire.size());
    EXPECT_LE(frames_until_hangup(sock, "type-4 frame"), 1u);
  }
  EXPECT_TRUE(server_is_healthy(server_->port(), db_.symbols().size()));
}

// ------------------------------------------------- byzantine shard servers

// One-connection fake servers impersonating a shard, each a different way
// of being broken. They run on a plain thread and stop after one client.
class byzantine {
 public:
  enum class mode {
    silent,           // accepts, reads, never answers (hung process)
    garbage,          // answers the handshake with random bytes
    die_after_hello,  // handshake ok, then the process "is SIGKILLed":
                      // the socket closes abruptly on the first query
    hang_after_hello, // handshake ok, then never answers queries
  };

  explicit byzantine(mode m) : mode_(m), listener_(0) {
    thread_ = std::thread([this] { run(); });
  }
  ~byzantine() {
    listener_.close();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }

 private:
  void run() {
    try {
      net::tcp_socket sock = listener_.accept(10000);
      if (!sock.valid()) return;
      switch (mode_) {
        case mode::silent: {
          (void)net::read_frame(sock, net::deadline_in(10000));
          break;
        }
        case mode::garbage: {
          (void)net::read_frame(sock, net::deadline_in(10000));
          const std::uint8_t junk[64] = {0xDE, 0xAD, 0xBE, 0xEF};
          sock.send_all(junk, sizeof junk);
          break;
        }
        case mode::die_after_hello: {
          (void)net::read_frame(sock, net::deadline_in(10000));
          net::hello_ok_msg ok;
          net::write_frame(sock, net::encode(ok));
          (void)net::read_frame(sock, net::deadline_in(10000));  // the query
          sock.close();  // abrupt death, mid-query
          break;
        }
        case mode::hang_after_hello: {
          (void)net::read_frame(sock, net::deadline_in(10000));
          net::hello_ok_msg ok;
          net::write_frame(sock, net::encode(ok));
          // Swallow frames forever (until the test tears us down).
          while (net::read_frame(sock, net::deadline_in(10000)).has_value()) {
          }
          break;
        }
      }
    } catch (const net::net_error&) {
      // Fake server torn down / peer gave up: the point was the abuse.
    }
  }

  mode mode_;
  net::tcp_listener listener_;
  std::thread thread_;
};

class ByzantineCoordinator
    : public ::testing::TestWithParam<byzantine::mode> {};

TEST_P(ByzantineCoordinator, DegradesWithinDeadlineAndKeepsSurvivorsExact) {
  // Shard 0 is real; shard 1 is broken in the parameterized way. The
  // coordinator must come back before ~the deadline with shard 0's exact
  // contribution and shard 1 reported failed or timed out.
  const image_database flat = small_corpus(14);
  const sharded_database sharded = make_sharded(flat, 1);
  net::loopback_cluster real(sharded);
  byzantine fake(GetParam());

  net::coordinator_options options;
  options.connect_timeout_ms = 500;
  options.default_deadline_ms = 2000;
  net::coordinator coord(
      {net::endpoint{"127.0.0.1", real.server(0).port()},
       net::endpoint{"127.0.0.1", fake.port()}},
      options);

  query_options qopts;
  qopts.top_k = 5;
  const symbolic_image query = flat.record(1).image;

  const auto start = std::chrono::steady_clock::now();
  const net::remote_result remote =
      coord.search(encode(query), distinct_symbols(query), qopts);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  EXPECT_LT(elapsed.count(), 5000) << "coordinator overshot its deadline";
  EXPECT_TRUE(remote.stats.degraded);
  ASSERT_EQ(remote.stats.shard_statuses.size(), 2u);
  EXPECT_EQ(remote.stats.shard_statuses[0].state, shard_scan_state::ok);
  EXPECT_TRUE(
      remote.stats.shard_statuses[1].state == shard_scan_state::failed ||
      remote.stats.shard_statuses[1].state == shard_scan_state::timed_out)
      << "byzantine shard ended "
      << to_string(remote.stats.shard_statuses[1].state);

  // Never silently wrong: the answer is exactly the real shard's.
  EXPECT_EQ(remote.results, search(flat, query, qopts));
}

INSTANTIATE_TEST_SUITE_P(AllModes, ByzantineCoordinator,
                         ::testing::Values(byzantine::mode::silent,
                                           byzantine::mode::garbage,
                                           byzantine::mode::die_after_hello,
                                           byzantine::mode::hang_after_hello));

TEST(ByzantineRecovery, CoordinatorReconnectsAfterAServerRestarts) {
  // Kill a real server mid-conversation (stop() closes its sockets the way
  // a dead process would), then bring a fresh one up on the SAME data and
  // point a new query at it: the link must re-handshake transparently.
  const image_database flat = small_corpus(14);
  std::vector<image_id> ids(flat.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<image_id>(i);
  }
  net::server_options sopts;
  auto server = std::make_unique<net::shard_server>(flat, ids, 0, sopts);
  const std::uint16_t port = server->port();

  net::coordinator_options copts;
  copts.connect_timeout_ms = 500;
  copts.default_deadline_ms = 2000;
  net::coordinator coord({net::endpoint{"127.0.0.1", port}}, copts);

  query_options qopts;
  qopts.top_k = 5;
  const symbolic_image query = flat.record(2).image;
  const std::vector<query_result> expected = search(flat, query, qopts);

  EXPECT_EQ(coord.search(encode(query), distinct_symbols(query), qopts).results,
            expected);

  server->stop();
  const net::remote_result dead =
      coord.search(encode(query), distinct_symbols(query), qopts);
  EXPECT_TRUE(dead.stats.degraded);
  EXPECT_TRUE(dead.results.empty());

  // Same port, fresh process-equivalent.
  net::server_options reuse;
  reuse.port = port;
  server = std::make_unique<net::shard_server>(flat, ids, 0, reuse);
  const net::remote_result back =
      coord.search(encode(query), distinct_symbols(query), qopts);
  EXPECT_FALSE(back.stats.degraded);
  EXPECT_EQ(back.results, expected);
}

}  // namespace
}  // namespace bes
